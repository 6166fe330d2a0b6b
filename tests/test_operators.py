import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import collapse_lab as cl
from collapse_lab.conservation import (
    commutator_certificate,
    single_shift_generator,
    total_shift_generator,
)
from collapse_lab.errors import DimensionError, OperatorError
from collapse_lab.operators import (
    AssembledOperator,
    embed_diagonal,
    kinetic_matrix,
    separation_table,
)
from collapse_lab.scenarios import _branch_indices

from conftest import SIGMA_X, SIGMA_Z, random_hermitian, random_state


def two_lattice_space(n=8, dx=0.5, periodic=True, m1=1.0, m2=1.0):
    return cl.CompositeSpace(
        [
            cl.lattice("p1", n, dx, mass=m1, periodic=periodic),
            cl.lattice("p2", n, dx, mass=m2, periodic=periodic),
        ]
    )


class TestAssembleHamiltonian:
    def test_free_particle_periodic_row_sums_vanish(self):
        space = cl.CompositeSpace([cl.lattice("p", 8, 0.5, periodic=True)])
        h = cl.assemble_hamiltonian(cl.OperatorSpec([cl.KineticTerm("p")]), space)
        rows = np.asarray(h.to_dense().sum(axis=1))
        assert np.allclose(rows, 0.0, atol=1e-14)

    def test_two_level_external_term_eigenvalues(self):
        space = cl.CompositeSpace([cl.spin("s")])
        h = cl.assemble_hamiltonian(
            cl.OperatorSpec([cl.ExternalPotentialTerm("s", [0.25, -1.5])]), space
        )
        eigs = np.sort(np.linalg.eigvalsh(h.to_dense()))
        assert np.allclose(eigs, [-1.5, 0.25])

    def test_pair_potential_diagonal_indexing_oracle(self):
        # value at each diagonal entry must equal V(minimum-image separation),
        # checked by direct indexing
        space = two_lattice_space(n=6, dx=1.0)
        pot = cl.gaussian_well(depth=3.0, width=1.2)
        spec = cl.OperatorSpec([cl.InteractionTerm("p1", "p2", pot)])
        h = cl.assemble_hamiltonian(spec, space).to_dense()
        assert np.allclose(h, np.diag(np.diag(h)))
        x = space.subsystem("p1").positions()
        n = 6
        for i in (0, 2, 5):
            for j in (0, 3, 4):
                d = (i - j + n // 2) % n - n // 2
                expected = pot(np.array([d * 1.0]))[0]
                assert h[i * n + j, i * n + j] == pytest.approx(expected, abs=1e-14)
        # minimum-image separation 0 sits at the well bottom
        assert h[7, 7] == pytest.approx(-3.0)

    def test_hermiticity_enforced(self):
        space = cl.CompositeSpace([cl.spin("s")])
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(OperatorError):
            AssembledOperator(space, bad, hermitian=True)

    def test_unknown_subsystem_label(self):
        space = cl.CompositeSpace([cl.lattice("p", 4, 0.5)])
        with pytest.raises(KeyError):
            cl.assemble_hamiltonian(cl.OperatorSpec([cl.KineticTerm("zz")]), space)

    def test_nonfinite_potential_rejected(self):
        space = cl.CompositeSpace([cl.spin("s")])
        with pytest.raises(OperatorError):
            cl.assemble_hamiltonian(
                cl.OperatorSpec([cl.ExternalPotentialTerm("s", [np.inf, 0.0])]), space
            )

    def test_kinetic_requires_lattice(self):
        space = cl.CompositeSpace([cl.spin("s")])
        with pytest.raises(OperatorError):
            cl.assemble_hamiltonian(cl.OperatorSpec([cl.KineticTerm("s")]), space)

    def test_kinetic_stencil_values(self):
        sub = cl.lattice("p", 5, 0.5, mass=2.0, periodic=False)
        k = kinetic_matrix(sub).toarray()
        coeff = 1.0 / (2.0 * 2.0 * 0.25)
        assert k[1, 1] == pytest.approx(2 * coeff)
        assert k[1, 2] == pytest.approx(-coeff)
        assert k[0, 4] == 0.0


class TestScaledInteractionSum:
    def test_equal_masses_halves_potential(self):
        space = two_lattice_space(m1=1.0, m2=1.0)
        pot = cl.gaussian_well(2.0, 1.0)
        spec = cl.OperatorSpec([cl.InteractionTerm("p1", "p2", pot)])
        raw = cl.assemble_hamiltonian(spec, space).to_dense()
        scaled = cl.scaled_interaction_sum(spec, space).to_dense()
        assert np.allclose(scaled, raw / 2.0)

    def test_huge_apparatus_mass_suppresses(self):
        pot = cl.gaussian_well(2.0, 1.0)
        space_eq = two_lattice_space(m1=1.0, m2=1.0)
        space_heavy = two_lattice_space(m1=1e20, m2=1.0)
        spec = cl.OperatorSpec([cl.InteractionTerm("p1", "p2", pot)])
        norm_eq = cl.scaled_interaction_sum(spec, space_eq).max_abs()
        norm_heavy = cl.scaled_interaction_sum(spec, space_heavy).max_abs()
        assert norm_heavy / norm_eq == pytest.approx(2.0 / 1e20, rel=1e-10)

    def test_sum_linearity(self):
        space = two_lattice_space()
        pa = cl.gaussian_well(1.0, 1.0)
        pb = cl.square_barrier(0.5, 1.0)
        t1 = cl.InteractionTerm("p1", "p2", pa)
        t2 = cl.InteractionTerm("p1", "p2", pb)
        both = cl.scaled_interaction_sum(cl.OperatorSpec([t1, t2]), space).to_dense()
        single = (
            cl.scaled_interaction_sum(cl.OperatorSpec([t1]), space).to_dense()
            + cl.scaled_interaction_sum(cl.OperatorSpec([t2]), space).to_dense()
        )
        assert np.allclose(both, single, atol=1e-15)

    def test_no_interactions_warns_and_zeroes(self):
        space = two_lattice_space()
        spec = cl.OperatorSpec([cl.KineticTerm("p1")])
        with pytest.warns(UserWarning):
            v = cl.scaled_interaction_sum(spec, space)
        assert v.max_abs() == 0.0

    def test_external_terms_excluded(self):
        space = two_lattice_space()
        spec = cl.OperatorSpec(
            [
                cl.InteractionTerm("p1", "p2", cl.gaussian_well(1.0, 1.0)),
                cl.ExternalPotentialTerm("p1", list(np.ones(8))),
                cl.KineticTerm("p1"),
            ]
        )
        v = cl.scaled_interaction_sum(spec, space).to_dense()
        only = cl.scaled_interaction_sum(
            cl.OperatorSpec([spec.terms[0]]), space
        ).to_dense()
        assert np.allclose(v, only)


class TestCollapseOperator:
    def setup_method(self):
        self.space = two_lattice_space()
        spec = cl.OperatorSpec(
            [cl.InteractionTerm("p1", "p2", cl.gaussian_well(2.0, 1.0))]
        )
        self.vprime = cl.scaled_interaction_sum(spec, self.space)

    def test_identity_scaling(self):
        v = cl.collapse_operator(self.vprime, cl.CollapseParams(1.0, 1.0))
        assert np.allclose(v.to_dense(), self.vprime.to_dense())

    def test_tau_scaling(self):
        v = cl.collapse_operator(self.vprime, cl.CollapseParams(1.0, 4.0))
        assert np.allclose(v.to_dense(), self.vprime.to_dense() / 2.0)

    def test_c_scaling(self):
        v = cl.collapse_operator(self.vprime, cl.CollapseParams(2.0, 1.0))
        assert np.allclose(v.to_dense(), self.vprime.to_dense() / 4.0)

    def test_params_validated(self):
        with pytest.raises(OperatorError):
            cl.CollapseParams(-1.0, 1.0)
        with pytest.raises(OperatorError):
            cl.CollapseParams(1.0, 0.0)


class TestBetaApply:
    def test_eigenvector_is_fixed_point(self, qubit_space):
        v = AssembledOperator(qubit_space, SIGMA_Z, hermitian=True)
        psi = cl.make_product_state(qubit_space, {"q": [1.0, 0.0]})
        vec, mean = cl.beta_apply(v, psi)
        assert mean == pytest.approx(1.0)
        assert np.max(np.abs(vec)) < 1e-12

    def test_balanced_superposition(self, qubit_space):
        v = AssembledOperator(qubit_space, SIGMA_Z, hermitian=True)
        psi = cl.make_product_state(qubit_space, {"q": [1.0, 1.0]})
        vec, mean = cl.beta_apply(v, psi)
        assert mean == pytest.approx(0.0, abs=1e-14)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(vec, [s, -s])

    def test_non_hermitian_rejected(self, qubit_space):
        t = AssembledOperator(
            qubit_space, np.array([[0, 1], [0, 0]], dtype=complex),
            hermitian=False,
        )
        with pytest.raises(OperatorError):
            cl.beta_apply(t, cl.make_product_state(qubit_space, {"q": [1, 0]}))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 12),
           log_scale=st.floats(-3.0, 3.0))
    def test_result_orthogonal_to_state(self, seed, dim, log_scale):
        rng = np.random.default_rng(seed)
        space = cl.CompositeSpace([cl.discrete("x", dim)])
        vmat = random_hermitian(rng, dim, scale=10.0**log_scale)
        v = AssembledOperator(space, vmat, hermitian=True)
        psi = cl.renormalize(random_state(rng, dim), space)
        vec, mean = cl.beta_apply(v, psi)
        assert abs(np.vdot(psi.amplitudes, vec)) < 1e-10
        assert abs(np.vdot(psi.amplitudes, vec)) <= 1e-12 * np.max(np.abs(vmat))


class TestTranslationInvariance:
    def test_shift_commutes_with_interaction_exactly(self):
        space = two_lattice_space(n=8, dx=0.5)
        spec = cl.OperatorSpec(
            [cl.InteractionTerm("p1", "p2", cl.soft_coulomb(1.3, 0.4))]
        )
        v = cl.assemble_hamiltonian(spec, space)
        t = total_shift_generator(space)
        cert = commutator_certificate(t.matrix, v.matrix, tolerance=0.0)
        assert cert.value == 0.0
        assert cert.passed

    def test_shift_commutes_with_periodic_kinetic(self):
        space = two_lattice_space(n=8, dx=0.5)
        spec = cl.OperatorSpec([cl.KineticTerm("p1"), cl.KineticTerm("p2")])
        h = cl.assemble_hamiltonian(spec, space)
        t = total_shift_generator(space)
        assert commutator_certificate(t.matrix, h.matrix, 1e-12).passed

    def test_mismatched_periodic_grids_rejected(self):
        space = cl.CompositeSpace(
            [
                cl.lattice("p1", 8, 0.5, periodic=True),
                cl.lattice("p2", 6, 0.5, periodic=True),
            ]
        )
        with pytest.raises(OperatorError):
            separation_table(space, "p1", "p2")


def test_pair_potential_families():
    well = cl.gaussian_well(2.0, 1.0)
    assert well(0.0) == pytest.approx(-2.0)
    assert well(10.0) == pytest.approx(0.0, abs=1e-15)
    sc = cl.soft_coulomb(1.0, 0.5)
    assert sc(0.0) == pytest.approx(2.0)
    bar = cl.square_barrier(3.0, 1.0)
    assert bar(0.5) == 3.0 and bar(1.5) == 0.0
    tab = cl.tabulated([-1.0, 0.0, 1.0], [0.0, 2.0, 0.0])
    assert tab(0.5) == pytest.approx(1.0)
    assert tab(5.0) == 0.0


def test_spin_coupling_matrix():
    space = cl.CompositeSpace([cl.spin("s"), cl.lattice("p", 2, 1.0)])
    spec = cl.OperatorSpec([cl.SpinCouplingTerm("s", "p", 2.0)])
    h = cl.assemble_hamiltonian(spec, space).to_dense()
    # basis order (s, p); positions are -0.5, +0.5
    expected = 2.0 * np.kron(SIGMA_Z, np.diag([-0.5, 0.5]))
    assert np.allclose(h, expected)


class TestApply:
    """``apply`` maps a state or each row of a (batch, d) block."""

    @staticmethod
    def check_against_matrix(op, rng):
        d = op.space.total_dim
        mat = op.matrix
        psi = random_state(rng, d)
        assert np.allclose(op.apply(psi), mat @ psi, rtol=0.0, atol=1e-12)
        block = np.array([random_state(rng, d) for _ in range(5)])
        out = op.apply(block)
        assert out.shape == block.shape
        assert out.flags.c_contiguous
        for row, state in zip(out, block):
            assert np.allclose(row, mat @ state, rtol=0.0, atol=1e-12)

    def test_diagonal(self):
        rng = np.random.default_rng(21)
        space = cl.CompositeSpace([cl.discrete("a", 6), cl.discrete("b", 5)])
        diag = rng.standard_normal(30)
        op = AssembledOperator(space, sp.diags_array(diag, format="csr"))
        self.check_against_matrix(op, rng)
        # non-Hermitian diagonal: complex entries
        cdiag = diag + 1j * rng.standard_normal(30)
        cop = AssembledOperator(space, sp.diags_array(cdiag, format="csr"),
                                hermitian=False)
        self.check_against_matrix(cop, rng)

    def test_dense_small(self):
        rng = np.random.default_rng(22)
        space = cl.CompositeSpace([cl.discrete("a", 8)])
        op = AssembledOperator(space, random_hermitian(rng, 8))
        self.check_against_matrix(op, rng)

    def test_sparse_large(self):
        rng = np.random.default_rng(23)
        space = cl.CompositeSpace([cl.discrete("a", 300)])
        a = sp.random_array((300, 300), density=0.02, rng=rng, dtype=np.complex128)
        op = AssembledOperator(space, (a + a.conj().T).tocsr())
        self.check_against_matrix(op, rng)

    def test_real_diagonal_is_bit_equal_to_dense_product(self):
        rng = np.random.default_rng(24)
        space = cl.CompositeSpace([cl.discrete("a", 40)])
        diag = rng.standard_normal(40)
        op = AssembledOperator(space, sp.diags_array(diag, format="csr"))
        dense_t = np.ascontiguousarray(np.diag(diag).astype(complex).T)
        block = np.array([random_state(rng, 40) for _ in range(4)])
        assert np.array_equal(op.apply(block), block @ dense_t)
        assert np.array_equal(op.apply(block[0]), np.diag(diag).astype(complex) @ block[0])


class TestAssemblyAgainstDenseReferences:
    """Assembly on a three-subsystem space, term labels out of axis order,
    against references built from np.kron and explicit site loops.  Terms
    are summed in the same order on both sides, so the match is exact."""

    space = cl.CompositeSpace([
        cl.lattice("a", 5, 0.5, mass=2.0),
        cl.spin("s", mass=1.5),
        cl.lattice("b", 4, 0.7, mass=3.0),
    ])
    potential = cl.soft_coulomb(1.3, 0.4)
    samples = [0.1, -0.2, 0.0, 0.4]
    terms = [
        cl.KineticTerm("b"),
        cl.InteractionTerm("b", "a", potential),
        cl.SpinCouplingTerm("s", "b", 0.7),
        cl.ExternalPotentialTerm("b", samples),
        cl.KineticTerm("a", mass=0.5),
    ]

    def full(self, a, s, b):
        return np.kron(np.kron(a, s), b)

    def reference_terms(self):
        sa, sb = self.space.subsystem("a"), self.space.subsystem("b")
        xa, xb = sa.positions(), sb.positions()
        interaction = np.zeros((5, 2, 4), dtype=complex)
        for ja, js, jb in np.ndindex(5, 2, 4):
            interaction[ja, js, jb] = self.potential(xb[jb] - xa[ja])
        coupling = 0.7 * self.full(np.ones(5), [1.0, -1.0], xb).astype(complex)
        return {
            "kinetic_b": self.full(np.eye(5), np.eye(2), kinetic_matrix(sb).toarray()),
            "interaction": np.diag(interaction.ravel()),
            "coupling": np.diag(coupling),
            "external": np.diag(self.full(np.ones(5), np.ones(2), self.samples)
                                .astype(complex)),
            "kinetic_a": self.full(kinetic_matrix(sa, 0.5).toarray(), np.eye(2), np.eye(4)),
        }

    def test_hamiltonian(self):
        ref = np.zeros((40, 40), dtype=complex)
        for term in self.reference_terms().values():
            ref = ref + term
        h = cl.assemble_hamiltonian(cl.OperatorSpec(self.terms), self.space)
        assert h.matrix.format == "csr" and h.matrix.dtype == np.complex128
        assert np.array_equal(h.to_dense(), ref)

    def test_collapse_operator(self):
        t = self.reference_terms()
        ref = np.zeros((40, 40), dtype=complex)
        ref = ref + t["interaction"] * (1.0 / (2.0 + 3.0))
        ref = ref + t["coupling"] * (1.0 / (1.5 + 3.0))
        factor = 1.0 / (0.5**2 * np.sqrt(2.0))
        vprime = cl.scaled_interaction_sum(cl.OperatorSpec(self.terms), self.space)
        v = cl.collapse_operator(vprime, cl.CollapseParams(0.5, 2.0))
        assert np.array_equal(v.to_dense(), ref * factor)

    def test_branch_indices_on_the_middle_subsystem(self):
        for sites in ([0], [1], [0, 1]):
            indicator = np.zeros(2)
            indicator[sites] = 1.0
            expected = np.flatnonzero(self.full(np.ones(5), indicator, np.ones(4)))
            assert np.array_equal(_branch_indices(self.space, "s", sites), expected)

    def test_embed_diagonal_broadcasts_a_table_over_the_other_axes(self):
        table = np.arange(20.0).reshape(4, 5)  # axes (b, a)
        diag = embed_diagonal(self.space, ["b", "a"], table)
        expected = [table[jb, ja] for ja, js, jb in np.ndindex(5, 2, 4)]
        assert np.array_equal(diag, expected)
        with pytest.raises(DimensionError):
            embed_diagonal(self.space, ["a", "b"], table)


class TestShiftGenerators:
    space = cl.CompositeSpace([
        cl.lattice("q", 6, 0.5, periodic=True),
        cl.spin("s"),
        cl.lattice("r", 6, 0.5, periodic=True, mass=4.0),
    ])

    def test_total_and_single_shifts_are_rolls(self):
        psi = random_state(np.random.default_rng(3), self.space.total_dim)
        grid = psi.reshape(self.space.dims)
        total = total_shift_generator(self.space)
        assert np.array_equal(total.apply(psi),
                              np.roll(grid, 1, axis=(0, 2)).ravel())
        for label, axis in (("q", 0), ("r", 2)):
            single = single_shift_generator(self.space, label)
            assert np.array_equal(single.apply(psi), np.roll(grid, 1, axis=axis).ravel())
            assert single.unitary and not single.hermitian


def test_commutator_certificate_takes_arrays():
    xz = commutator_certificate(SIGMA_X, SIGMA_Z)
    assert (xz.value, xz.passed) == (2.0, False)
    assert commutator_certificate(SIGMA_Z, np.diag([3.0, -0.5])).value == 0.0
    assert commutator_certificate(sp.csr_array(SIGMA_X), SIGMA_Z).value == 2.0
