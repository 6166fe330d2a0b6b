import dataclasses
import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import collapse_lab as cl
from collapse_lab.config import from_dict
from collapse_lab import conservation, integrator
from collapse_lab.conservation import (
    ConservedQuantity,
    audit_run,
    classify_quantity,
    commutator_certificate,
    family_threshold,
    lindblad_drift_rate_bound,
    total_shift_generator,
)
from collapse_lab.errors import AuditRefusal, DimensionError, OperatorError
from collapse_lab.integrator import (
    IntegrationPlan,
    Observable,
    _column_names,
    lindblad_oracle,
    run_ensemble,
    run_trajectory,
)
from collapse_lab.operators import AssembledOperator, embed_operator, momentum_operator
from collapse_lab.scenarios import builtin_names, builtin_scenario, realize

from conftest import SIGMA_X, SIGMA_Z, make_realized


def _csr_commutator(a, b) -> float:
    """Max-norm of AB - BA from the two CSR products."""
    am, bm = conservation._csr(a), conservation._csr(b)
    return float(np.abs((am @ bm - bm @ am).data).max(initial=0.0))


def _value(op, psi):
    """<psi| op |psi> as the kernel records it."""
    return Observable("q", op).evaluate(psi.amplitudes[None])[0]


class TestExpectation:
    def test_spin_up(self, qubit_space):
        q = ConservedQuantity(
            "sz", AssembledOperator(qubit_space, SIGMA_Z), "spin_z"
        )
        psi = cl.make_product_state(qubit_space, {"q": [1.0, 0.0]})
        assert _value(q.operator, psi) == pytest.approx(1.0)

    def test_eigenvector_gives_eigenvalue(self, qubit_space):
        h = 0.4 * SIGMA_X + 0.3 * SIGMA_Z
        eigvals, eigvecs = np.linalg.eigh(h)
        q = ConservedQuantity("h", AssembledOperator(qubit_space, h), "energy")
        psi = cl.renormalize(eigvecs[:, 0], qubit_space)
        assert _value(q.operator, psi) == pytest.approx(eigvals[0], abs=1e-12)

    def test_shift_eigenstate_modulus_one(self):
        space = cl.CompositeSpace([cl.lattice("p", 8, 0.5, periodic=True)])
        t = total_shift_generator(space)
        # plane wave is a shift eigenstate; eigen-decomposition oracle
        k = 3
        vec = np.exp(2j * np.pi * k * np.arange(8) / 8) / np.sqrt(8)
        psi = cl.renormalize(vec, space)
        val = _value(t, psi)
        assert abs(abs(val) - 1.0) < 1e-10
        assert val == pytest.approx(np.exp(-2j * np.pi * k / 8), abs=1e-12)


def _marginal(op_single, subsystem, psi):
    """Value of a one-subsystem operator, identity elsewhere."""
    space = psi.space
    return _value(AssembledOperator(space, embed_operator(space, {subsystem: op_single})),
                  psi)


class TestSubsystemMarginal:
    def test_product_state_factor_expectation(self):
        space = cl.CompositeSpace([cl.spin("a"), cl.spin("b")])
        psi = cl.make_product_state(space, {"a": [1.0, 1.0], "b": [1.0, 0.0]})
        assert _marginal(SIGMA_Z, "a", psi) == pytest.approx(0.0, abs=1e-12)
        assert _marginal(SIGMA_Z, "b", psi) == pytest.approx(1.0)

    def test_bell_state_marginal_vanishes(self):
        space = cl.CompositeSpace([cl.spin("a"), cl.spin("b")])
        psi = cl.renormalize(np.array([1, 0, 0, 1]) / np.sqrt(2), space)
        assert _marginal(SIGMA_Z, "a", psi) == pytest.approx(0.0, abs=1e-12)

    def test_momentum_total_conserved_under_unitary_scattering(self):
        # small two-particle system so the dense exponential oracle is cheap;
        # the well is kept smooth on the grid scale so the Fourier momentum
        # sums are conserved to discreteness error
        space = cl.CompositeSpace(
            [
                cl.lattice("p1", 32, 0.5, mass=1.0, periodic=True),
                cl.lattice("p2", 32, 0.5, mass=2.0, periodic=True),
            ]
        )
        spec = cl.OperatorSpec(
            [
                cl.KineticTerm("p1"),
                cl.KineticTerm("p2"),
                cl.InteractionTerm("p1", "p2", cl.gaussian_well(1.0, 1.5)),
            ]
        )
        h = cl.assemble_hamiltonian(spec, space).to_dense()
        psi0 = cl.make_product_state(
            space,
            {
                "p1": cl.gaussian_packet(space, "p1", center=-2.0, width=1.2,
                                         momentum=1.0),
                "p2": cl.gaussian_packet(space, "p2", center=2.0, width=1.2),
            },
        )
        p1 = momentum_operator(space, "p1")
        p2 = momentum_operator(space, "p2")
        total0 = _value(p1, psi0) + _value(p2, psi0)
        psi_t = cl.renormalize(expm(-1j * h * 2.0) @ psi0.amplitudes, space)
        total_t = _value(p1, psi_t) + _value(p2, psi_t)
        assert total_t == pytest.approx(total0, abs=1e-6)


class TestTotalShiftGenerator:
    def test_single_lattice_cyclic_permutation(self):
        space = cl.CompositeSpace([cl.lattice("p", 4, 1.0, periodic=True)])
        t = total_shift_generator(space).to_dense()
        expected = np.zeros((4, 4))
        for j in range(4):
            expected[(j + 1) % 4, j] = 1.0
        assert np.array_equal(t.real, expected)
        assert np.allclose(t @ t.conj().T, np.eye(4))

    def test_commutes_with_interaction_exactly(self):
        space = cl.CompositeSpace(
            [
                cl.lattice("p1", 8, 0.25, periodic=True),
                cl.lattice("p2", 8, 0.25, periodic=True),
            ]
        )
        v = cl.assemble_hamiltonian(
            cl.OperatorSpec(
                [cl.InteractionTerm("p1", "p2", cl.gaussian_well(2.0, 0.5))]
            ),
            space,
        )
        t = total_shift_generator(space)
        cert = commutator_certificate(t.matrix, v.matrix, tolerance=0.0)
        assert cert.value == 0.0

    def test_requires_periodic(self):
        space = cl.CompositeSpace([cl.lattice("p", 4, 1.0, periodic=False)])
        with pytest.raises(OperatorError):
            total_shift_generator(space)

    def test_spin_factors_untouched(self):
        space = cl.CompositeSpace(
            [cl.spin("s"), cl.lattice("p", 4, 1.0, periodic=True)]
        )
        t = total_shift_generator(space).to_dense()
        single = np.zeros((4, 4))
        for j in range(4):
            single[(j + 1) % 4, j] = 1.0
        assert np.array_equal(t.real, np.kron(np.eye(2), single))


class TestCommutatorCertificate:
    def test_self_commutes(self):
        assert commutator_certificate(SIGMA_X, SIGMA_X).value == 0.0

    def test_pauli_pair(self):
        cert = commutator_certificate(SIGMA_X, SIGMA_Z)
        assert cert.value == pytest.approx(2.0)
        assert not cert.passed

    def test_periodic_two_particle_hamiltonian(self):
        sc = realize(builtin_scenario("two-particle-collision"))
        t = total_shift_generator(sc.space)
        cert = commutator_certificate(t.matrix, sc.hamiltonian.matrix, 1e-12)
        assert cert.passed

    @pytest.mark.parametrize("name", builtin_names())
    def test_builtin_operators_match_the_csr_products(self, name):
        # every pair of H, V and the audit quantities, in both orders
        sc = realize(builtin_scenario(name))
        ops = [op for op in (sc.hamiltonian, sc.collapse_op) if op is not None]
        ops += [q.operator for q in sc.quantities]
        for a in ops:
            for b in ops:
                assert commutator_certificate(a, b).value == _csr_commutator(a, b)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 16))
    def test_diagonal_side_matches_the_csr_products(self, seed, dim):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m[rng.random((dim, dim)) < 0.5] = 0.0
        d = rng.standard_normal(dim)  # a Hermitian diagonal: the same bits
        d[rng.random(dim) < 0.25] = 0.0
        for diag in (np.diag(d), sp.csr_array(np.diag(d))):
            for a, b in ((m, diag), (diag, m), (diag, np.diag(d[::-1]))):
                assert commutator_certificate(a, b).value == _csr_commutator(a, b)
        # numpy may fuse a complex product, so a complex diagonal agrees to rounding
        phases = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, dim)))
        for a, b in ((m, phases), (phases, m)):
            gap = commutator_certificate(a, b).value - _csr_commutator(a, b)
            assert abs(gap) <= 4 * np.finfo(float).eps * np.abs(m).max()

    def test_no_matrix_product_for_a_diagonal_side_or_itself(self, monkeypatch):
        qnd = realize(builtin_scenario("qnd-two-level"))
        coll = realize(builtin_scenario("two-particle-collision"))
        energy, tshift = coll.quantities
        products = []
        matmul = sp.csr_array.__matmul__

        def spy(self, other):
            if sp.issparse(other):
                products.append(other.shape)
            return matmul(self, other)

        monkeypatch.setattr(sp.csr_array, "__matmul__", spy)
        for sc, q in ((qnd, qnd.quantities[0]), (coll, energy)):
            classify_quantity(q, sc.hamiltonian, sc.collapse_op, sc.psi0)
        assert commutator_certificate(SIGMA_X, SIGMA_X).value == 0.0
        assert commutator_certificate(SIGMA_X, SIGMA_Z).value == 2.0
        assert products == []
        classify_quantity(tshift, coll.hamiltonian, coll.collapse_op, coll.psi0)
        assert products == [(4096, 4096), (4096, 4096)]  # [T, H] alone


class TestClassification:
    def test_exact_class(self, two_qubit_space):
        h = np.kron(np.eye(2), SIGMA_Z)
        v = np.kron(SIGMA_Z, np.eye(2))
        psi0 = cl.make_product_state(two_qubit_space, {"a": [0.6, 0.8], "b": [1, 0]})
        q = ConservedQuantity(
            "energy", AssembledOperator(two_qubit_space, h), "energy"
        )
        sc = make_realized(
            two_qubit_space, h, v,
            psi0.amplitudes, IntegrationPlan(dt=1e-3, n_steps=10),
        )
        cls, details = classify_quantity(q, sc.hamiltonian, sc.collapse_op, sc.psi0)
        assert cls == "exact"

    def test_martingale_class(self, qubit_space):
        q = ConservedQuantity("sz", AssembledOperator(qubit_space, SIGMA_Z), "spin_z")
        sc = make_realized(
            qubit_space, None, SIGMA_Z, [0.6, 0.8],
            IntegrationPlan(dt=1e-3, n_steps=10),
        )
        cls, _ = classify_quantity(q, sc.hamiltonian, sc.collapse_op, sc.psi0)
        assert cls == "martingale"

    def test_lindblad_class(self, qubit_space):
        q = ConservedQuantity("h", AssembledOperator(qubit_space, SIGMA_X), "energy")
        sc = make_realized(
            qubit_space, SIGMA_X, SIGMA_Z, [0.6, 0.8],
            IntegrationPlan(dt=1e-3, n_steps=10),
        )
        cls, _ = classify_quantity(q, sc.hamiltonian, sc.collapse_op, sc.psi0)
        assert cls == "lindblad-governed"


class TestAuditTrajectory:
    def test_shift_sector_exact_conservation(self):
        d = builtin_scenario("two-particle-collision").to_dict()
        d["initial_state"]["shift_sector"] = 0
        d["plan"]["n_steps"] = 2000
        d["plan"]["record_every"] = 100
        cfg = from_dict(d)
        sc = realize(cfg)
        rec = run_trajectory(sc, seed=21)
        quantities = cl.realize_audits(cfg, sc.space, sc.hamiltonian)
        report = audit_run([rec], quantities, sc)
        tshift = next(q for q in report.quantities if q.name == "tshift")
        assert tshift.classification == "exact"
        assert tshift.passed is True
        assert tshift.drift_max < 1e-9

    def test_refuses_external_potentials(self):
        d = builtin_scenario("two-particle-collision").to_dict()
        d["operators"]["terms"].append(
            {"type": "external_potential", "subsystem": "particle",
             "samples": [0.0] * 64}
        )
        d["plan"]["n_steps"] = 100
        d["plan"]["record_every"] = 50
        cfg = from_dict(d)
        sc = realize(cfg)
        rec = run_trajectory(sc, seed=1)
        quantities = cl.realize_audits(cfg, sc.space, sc.hamiltonian)
        with pytest.raises(AuditRefusal):
            audit_run([rec], quantities, sc)

    def test_missing_series_is_an_error(self, qubit_space):
        plan = IntegrationPlan(dt=1e-3, n_steps=100, seed=0, record_every=50)
        sc = make_realized(qubit_space, None, SIGMA_Z, [0.6, 0.8], plan)
        rec = run_trajectory(sc)
        q = ConservedQuantity("ghost", AssembledOperator(qubit_space, SIGMA_Z))
        with pytest.raises(cl.errors.DimensionError):
            audit_run([rec], [q], sc)


class TestAuditEnsemble:
    def test_qnd_martingale_passes(self):
        sc = realize(builtin_scenario("qnd-two-level"))
        import dataclasses

        sc = dataclasses.replace(
            sc, plan=IntegrationPlan(dt=1e-3, n_steps=1000, seed=0, record_every=100)
        )
        _, records = run_ensemble(sc, 200, base_seed=300, keep_records=True)
        quantities = cl.realize_audits(sc.config, sc.space, sc.hamiltonian)
        report = audit_run(records, quantities, sc)
        assert report.ensemble["martingale:sz_audit"]["passed"]
        assert any(k.startswith("branch_martingale") for k in report.ensemble)
        assert report.passed

    def test_energy_matches_oracle_when_noncommuting(self, qubit_space):
        plan = IntegrationPlan(dt=2e-3, n_steps=200, seed=0, record_every=50)
        sc = make_realized(
            qubit_space, SIGMA_X, SIGMA_Z, [0.6, 0.8], plan,
            observables=[Observable("energy", AssembledOperator(qubit_space, SIGMA_X))],
        )
        _, records = run_ensemble(sc, 1500, base_seed=41, keep_records=True)
        q = ConservedQuantity(
            "energy", AssembledOperator(qubit_space, SIGMA_X), "energy"
        )
        report = audit_run(records, [q], sc)
        assert report.ensemble["oracle:energy"]["passed"]

    def test_report_serializes(self, qubit_space):
        plan = IntegrationPlan(dt=1e-3, n_steps=100, seed=0, record_every=50)
        sc = make_realized(
            qubit_space, None, SIGMA_Z, [0.6, 0.8], plan,
            observables=[Observable("sz", AssembledOperator(qubit_space, SIGMA_Z))],
        )
        _, records = run_ensemble(sc, 4, base_seed=7, keep_records=True)
        q = ConservedQuantity("sz", AssembledOperator(qubit_space, SIGMA_Z), "spin_z")
        report = audit_run(records, [q], sc)
        import json

        payload = json.loads(report.to_json())
        assert payload["schema_version"] == 1
        assert "martingale:sz" in payload["ensemble"]
        assert isinstance(report.text_summary(), str)


class TestBranchTotalCheck:
    """The post-collapse branch total of each collapsed trajectory with a
    quadratic-variation track, on qnd-two-level with an energy audit."""

    @pytest.fixture(scope="class")
    def ensemble(self):
        d = builtin_scenario("qnd-two-level").to_dict()
        d["audits"].append({"name": "energy", "kind": "energy"})
        d["plan"]["n_steps"] = 2000
        sc = realize(from_dict(d))
        _, records = run_ensemble(sc, 40, base_seed=0, keep_records=True)
        assert sum(r.collapsed_branch is not None for r in records) > 1
        return sc, records

    def test_correct_ensemble_passes_with_checks(self, ensemble):
        sc, records = ensemble
        report = audit_run(records, list(sc.quantities), sc)
        assert report.passed
        energy = next(q for q in report.quantities if q.name == "energy")
        assert energy.branch_check is not None
        assert energy.branch_check["passed"] is True
        bc = energy.branch_check
        line = (f"         branch total: |deviation| {bc['deviation']:.3e} "
                f"<= bound {bc['bound']:.3e} [pass]")
        assert line in report.text_summary().split("\n")
        payload = json.loads(report.to_json())
        assert payload["quantities"][1]["branch_check"]["passed"] is True

    @pytest.mark.parametrize("factor, fails", [(0.999, False), (1.001, True)])
    def test_record_moved_past_its_bound_fails(self, ensemble, factor, fails):
        sc, records = ensemble
        i = next(k for k, r in enumerate(records) if r.collapsed_branch is not None)
        rec = records[i]
        idx = int(np.ceil(rec.collapse_step / sc.plan.record_every))
        rate = lindblad_drift_rate_bound(sc.hamiltonian, sc.collapse_op)
        bound = rate * rec.times[idx] + 5.0 * np.sqrt(rec.qv_series["energy"][idx]) + 1e-9
        table = rec.table.copy()
        energy = table[rec.columns.index("energy")]
        energy[idx] = energy[0] + factor * bound
        moved = dataclasses.replace(rec, table=table)
        report = audit_run([*records[:i], moved, *records[i + 1:]],
                           list(sc.quantities), sc)
        failures = report.ensemble["per_trajectory"]["failures"]
        entry = next(q for q in report.quantities if q.name == "energy")
        if fails:
            assert failures == [{"seed": rec.seed, "quantity": "energy"}]
            assert entry.passed is False and not report.passed
            assert entry.branch_check["passed"] is False
        else:
            assert failures == [] and entry.passed is None

    def test_drift_rate_bound_computed_once_per_quantity(self, ensemble, monkeypatch):
        sc, records = ensemble
        calls = []

        def spy(hamiltonian, vhat):
            calls.append(1)
            return lindblad_drift_rate_bound(hamiltonian, vhat)

        monkeypatch.setattr(conservation, "lindblad_drift_rate_bound", spy)
        energy = [q for q in sc.quantities if q.name == "energy"]
        assert audit_run(records, energy, sc).passed
        assert len(calls) == 1

    def test_entry_is_the_worst_trajectory_audited_alone(self, ensemble):
        sc, records = ensemble
        report = audit_run(records, list(sc.quantities), sc)
        assert [q.name for q in report.quantities] == ["sz_audit", "energy"]
        for q, entry in zip(sc.quantities, report.quantities):
            drifts = [np.max(np.abs(r.observables[q.name] - r.observables[q.name][0]))
                      for r in records]
            worst = records[int(np.argmax(drifts))]
            alone = audit_run([worst], [q], sc).quantities[0]
            assert entry.drift_max == max(drifts)
            assert json.dumps(entry.to_dict()) == json.dumps(alone.to_dict())


def test_unitary_entry_is_the_worst_trajectory_audited_alone():
    d = builtin_scenario("two-particle-collision").to_dict()
    d["initial_state"]["shift_sector"] = 0
    d["plan"].update(n_steps=400, record_every=100)
    sc = realize(from_dict(d))
    _, records = run_ensemble(sc, 3, base_seed=5, keep_records=True)
    tshift = next(q for q in sc.quantities if q.name == "tshift")
    entry = audit_run(records, [tshift], sc).quantities[0]
    alone = [audit_run([r], [tshift], sc).quantities[0] for r in records]
    assert entry.passed is True
    worst = max(alone, key=lambda a: a.drift_max)
    assert json.dumps(entry.to_dict()) == json.dumps(worst.to_dict())
    drifts = []  # one series at a time, as the reference for the block
    for r in records:
        series = r.observables["tshift"]
        args = np.unwrap(np.angle(series))
        drifts.append(max(np.max(np.abs(np.abs(series) - np.abs(series[0]))),
                          np.max(np.abs(args - args[0]))))
    assert entry.drift_max == max(drifts)


def table_record(plan, seed, **observables):
    """A record of the given real or complex observables, and no other
    series, built from the table a run of ``plan`` would record."""
    rows = [plan.record_times, np.ones(plan.n_records)]
    for series in observables.values():
        rows += [series.real, series.imag] if np.iscomplexobj(series) else [series]
    columns = _column_names(
        [(name, np.iscomplexobj(v)) for name, v in observables.items()], [], [], [])
    return cl.TrajectoryRecord(columns=columns, table=np.array(rows),
                               final_state=None, seed=seed)


def test_unitary_drift_unwraps_each_trajectory_phase():
    # phases that turn by 1 and 2 rad per record pass through +-pi
    space = cl.CompositeSpace([cl.lattice("p", 4, 1.0, periodic=True)])
    t = ConservedQuantity("T", total_shift_generator(space), "total_quasimomentum")
    plan = IntegrationPlan(dt=1e-3, n_steps=6, seed=0, record_every=1)
    sc = make_realized(space, None, None, [1.0, 1.0, 1.0, 1.0], plan)
    records = [
        table_record(plan, seed, T=np.exp(1j * turn * np.arange(plan.n_records)))
        for seed, turn in ((0, 1.0), (1, 2.0))
    ]
    entry = audit_run(records, [t], sc).quantities[0]
    assert entry.classification == "exact" and entry.passed is False
    assert entry.drift_max == pytest.approx(12.0, abs=1e-12)
    assert entry.drift_final == pytest.approx(12.0, abs=1e-12)
    assert entry.details["arg_drift_max"] == pytest.approx(12.0, abs=1e-12)


def test_per_trajectory_failures_by_trajectory_then_quantity(qubit_space):
    # both quantities are exact (eigenstate start) and every record drifts
    plan = IntegrationPlan(dt=1e-3, n_steps=4, seed=0, record_every=1)
    sc = make_realized(qubit_space, None, SIGMA_Z, [1.0, 0.0], plan)
    quantities = [ConservedQuantity(name, AssembledOperator(qubit_space, SIGMA_Z))
                  for name in ("b", "a")]
    records = [
        table_record(plan, seed, a=1.0 - drift * np.arange(plan.n_records),
                     b=1.0 - drift * np.arange(plan.n_records))
        for seed, drift in ((9, 1e-3), (3, 0.0), (5, 2e-3))
    ]
    report = audit_run(records, quantities, sc)
    assert report.ensemble["per_trajectory"]["failures"] == [
        {"seed": 9, "quantity": "b"}, {"seed": 9, "quantity": "a"},
        {"seed": 5, "quantity": "b"}, {"seed": 5, "quantity": "a"},
    ]
    assert [(q.name, q.passed) for q in report.quantities] == [("b", False), ("a", False)]
    drifts = [q.drift_max for q in report.quantities]
    assert drifts == pytest.approx([8e-3, 8e-3], abs=1e-15)
    assert not report.passed


def test_records_of_different_layouts_refused(qubit_space):
    plan = IntegrationPlan(dt=1e-3, n_steps=4, seed=0, record_every=1)
    short = IntegrationPlan(dt=1e-3, n_steps=3, seed=0, record_every=1)
    sc = make_realized(qubit_space, None, SIGMA_Z, [1.0, 0.0], plan)
    q = ConservedQuantity("a", AssembledOperator(qubit_space, SIGMA_Z))
    ones = np.ones(plan.n_records)
    base = table_record(plan, 0, a=ones)
    more_columns = table_record(plan, 1, a=ones, b=ones)
    fewer_records = table_record(short, 2, a=np.ones(short.n_records))
    for odd in (more_columns, fewer_records):
        with pytest.raises(DimensionError, match=f"trajectory seed {odd.seed} has a "):
            audit_run([base, odd], [q], sc)


def d8_config() -> dict:
    """A spin read by a 4-site hard-wall pointer (d = 8): energy and the
    pointer's kinetic energy fail to commute with the collapse operator,
    so both meet the density-matrix oracle."""
    return {
        "name": "d8",
        "space": {"subsystems": [
            {"kind": "spin", "label": "spin", "dim": 2},
            {"kind": "lattice1d", "label": "pointer", "dim": 4, "grid_spacing": 1.0,
             "mass": 2.0, "periodic": False},
        ]},
        "operators": {"terms": [
            {"type": "kinetic", "subsystem": "pointer"},
            {"type": "spin_coupling", "spin_subsystem": "spin",
             "pointer_subsystem": "pointer", "strength": 0.8},
        ]},
        "collapse": {"enabled": True},
        "initial_state": {"kind": "product", "factors": {
            "spin": [[0.6, 0.0], [0.8, 0.0]],
            "pointer": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]],
        }},
        "plan": {"dt": 0.002, "n_steps": 1000, "record_every": 50, "seed": 0},
        "branches": [{"label": "up", "subsystem": "spin", "sites": [0]},
                     {"label": "down", "subsystem": "spin", "sites": [1]}],
        "audits": [
            {"kind": "energy", "name": "energy"},
            {"kind": "custom", "name": "kin",
             "terms": [{"type": "kinetic", "subsystem": "pointer"}]},
            {"kind": "spin_z", "name": "szq", "subsystem": "spin"},
        ],
    }


def test_oracle_solved_once_per_audit(monkeypatch):
    sc = realize(from_dict(d8_config()))
    _, records = run_ensemble(sc, 40, base_seed=0, keep_records=True)
    calls = []

    def spy(*args):
        calls.append(1)
        return lindblad_oracle(*args)

    monkeypatch.setattr(integrator, "lindblad_oracle", spy)
    report = audit_run(records, list(sc.quantities), sc)
    assert len(calls) == 1
    assert [q.classification for q in report.quantities] == [
        "lindblad-governed", "lindblad-governed", "martingale"]
    assert report.ensemble["oracle:energy"]["passed"]
    assert report.ensemble["oracle:kin"]["passed"]
    assert report.passed

def test_records_of_another_plan_refused():
    # every record is judged against the scenario's plan, not the first
    # record's: 10x dt records the same count of times, to 20.0, not 2.0
    sc = realize(from_dict(d8_config()))
    fast = dataclasses.replace(sc, plan=dataclasses.replace(sc.plan, dt=10 * sc.plan.dt))
    _, own = run_ensemble(sc, 20, base_seed=0, keep_records=True)
    _, other = run_ensemble(fast, 40, base_seed=20, keep_records=True)
    refusal = (r"trajectory seed 20 has a t column of 21 records from 0.0 to 20.0, "
               r"not the scenario plan's 21 record times from 0.0 to 2.0$")
    for records in (other, [*own, *other[:20]]):
        with pytest.raises(DimensionError, match=refusal):
            audit_run(records, list(sc.quantities), sc)


def _short(name, n_steps=20, record_every=10, **changes) -> "cl.ScenarioConfig":
    d = builtin_scenario(name).to_dict()
    d["plan"].update(n_steps=n_steps, record_every=record_every)
    d.update(changes)
    return from_dict(d)


def test_oracle_skipped_above_its_dimension():
    sc = realize(_short("two-particle-collision"))
    _, records = run_ensemble(sc, 2, base_seed=0, keep_records=True)
    report = audit_run(records, list(sc.quantities), sc)
    energy = next(q for q in report.quantities if q.name == "energy")
    assert energy.classification == "lindblad-governed"
    assert "oracle:energy" not in report.ensemble
    assert report.notes == [
        "audited 2 trajectories",
        "energy: oracle comparison skipped (dim 4096 > 16); per-trajectory bounds only",
    ]


def test_branch_weights_that_do_not_commute_with_h_are_not_tested():
    # stern-gerlach's pointer halves: the kinetic term moves weight between them
    half = builtin_scenario("stern-gerlach").to_dict()["space"]["subsystems"][1]["dim"] // 2
    halves = [{"label": label, "subsystem": "pointer", "sites": list(sites)}
              for label, sites in (("left", range(half)), ("right", range(half, 2 * half)))]
    for changes, tested in (({}, {"up", "down"}), ({"branches": halves}, set())):
        sc = realize(_short("stern-gerlach", **changes))
        _, records = run_ensemble(sc, 2, base_seed=0, keep_records=True)
        report = audit_run(records, list(sc.quantities), sc)
        assert {k.split(":")[1] for k in report.ensemble
                if k.startswith("branch_martingale:")} == tested


@pytest.mark.parametrize("name", [n for n in builtin_names() if builtin_scenario(n).audits])
def test_double_commutator_mask_matches_csr(name):
    """Gamma o Q, Gamma_xy = (v_x - v_y)^2, is the CSR [V, [V, Q]] to
    rounding for every audit quantity, and so is the helper the audit uses."""
    sc = realize(builtin_scenario(name))
    v = sc.collapse_op.matrix
    dv = v.diagonal()
    for q in sc.quantities:
        m = q.operator.matrix
        inner = v @ m - m @ v
        nested = v @ inner - inner @ v
        rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        gamma_q = m.data * (dv[rows] - dv[m.indices]) ** 2
        twice = conservation._commutator_with_diagonal(
            m, dv, conservation._commutator_with_diagonal(m, dv))
        scale = np.abs(nested.data).max(initial=0.0)
        for data in (gamma_q, twice):
            masked = sp.csr_array((data, m.indices, m.indptr), shape=m.shape)
            assert np.abs((masked - nested).data).max(initial=0.0) <= 1e-14 * scale


def test_non_diagonal_collapse_operator_refused(qubit_space):
    plan = IntegrationPlan(dt=1e-3, n_steps=20, record_every=10)
    sz = AssembledOperator(qubit_space, SIGMA_Z)
    sc = make_realized(qubit_space, SIGMA_Z, SIGMA_X, [0.6, 0.8], plan,
                       observables=[Observable("sz", sz)])
    records = [run_trajectory(sc, seed=s) for s in (0, 1)]  # the kernel takes any V
    rho0 = np.outer(sc.psi0.amplitudes, sc.psi0.amplitudes.conj())
    with pytest.raises(OperatorError, match="off-diagonal"):
        lindblad_oracle(SIGMA_Z, SIGMA_X, rho0, plan)
    with pytest.raises(OperatorError, match="off-diagonal"):
        lindblad_drift_rate_bound(SIGMA_Z, sc.collapse_op)
    with pytest.raises(OperatorError, match="off-diagonal"):
        classify_quantity(ConservedQuantity("sz", sz), sc.hamiltonian, sc.collapse_op,
                          sc.psi0)
    for quantities in ([ConservedQuantity("sz", sz, "spin_z")], []):
        with pytest.raises(OperatorError, match="off-diagonal"):
            audit_run(records, quantities, sc)


class TestUnitaryOnlyConservation:
    def test_energy_and_spin_drift_bounded_by_truncation(self):
        # collapse disabled: remaining drift comes from the explicit scheme;
        # measure the truncation error against the dense exponential oracle
        space = cl.CompositeSpace(
            [cl.spin("s"), cl.lattice("p", 16, 0.5, mass=2.0, periodic=True)]
        )
        spec = cl.OperatorSpec(
            [cl.KineticTerm("p"), cl.SpinCouplingTerm("s", "p", 0.4)]
        )
        h = cl.assemble_hamiltonian(spec, space)
        psi0 = cl.make_product_state(
            space,
            {"s": [1.0, 1.0],
             "p": cl.gaussian_packet(space, "p", center=0.0, width=1.2)},
        )
        dt, n = 1e-3, 2000
        plan = IntegrationPlan(dt=dt, n_steps=n, seed=0, record_every=n)
        sz_full = embed_operator(space, {"s": SIGMA_Z})
        sc = make_realized(
            space, h.to_dense(), None, psi0.amplitudes, plan,
            observables=[
                Observable("energy", AssembledOperator(space, h.to_dense())),
                Observable("sz", AssembledOperator(space, sz_full.toarray())),
            ],
        )
        rec = run_trajectory(sc)
        exact = expm(-1j * h.to_dense() * dt * n) @ psi0.amplitudes
        truncation = np.linalg.norm(rec.final_state.amplitudes - exact)
        h_scale = float(np.max(np.abs(np.linalg.eigvalsh(h.to_dense()))))
        for name, scale in (("energy", h_scale), ("sz", 1.0)):
            drift = abs(rec.observables[name][-1] - rec.observables[name][0])
            assert drift <= 10.0 * max(truncation * scale, 1e-14)


class TestFamilyThreshold:
    def test_bonferroni_value(self):
        from scipy.stats import norm

        z = family_threshold(3.0, 50)
        assert z == pytest.approx(4.0376, abs=1e-4)
        assert norm.sf(z) == pytest.approx(norm.sf(3.0) / 50, rel=1e-9)
        assert family_threshold(3.0, 1) == pytest.approx(3.0, abs=1e-12)

    @staticmethod
    def audit_offset(qubit_space, n_se):
        """Four trajectories whose mean sits ``n_se`` standard errors off
        the initial value at one of 50 checkpoints and on it elsewhere."""
        plan = IntegrationPlan(dt=1e-3, n_steps=50, seed=0, record_every=1)
        sc = make_realized(qubit_space, None, SIGMA_Z, [0.6, 0.8], plan)
        sz0 = 0.6**2 - 0.8**2
        eps = 0.01
        se = eps / np.sqrt(3.0)  # std(ddof=1) of eps*[1,-1,1,-1] over sqrt(4)
        records = []
        for i, sign in enumerate([1, -1, 1, -1]):
            series = np.full(plan.n_records, sz0)
            series[20] += n_se * se + sign * eps
            records.append(table_record(plan, i, sz=series))
        q = ConservedQuantity("sz", AssembledOperator(qubit_space, SIGMA_Z), "spin_z")
        return audit_run(records, [q], sc).ensemble["martingale:sz"]

    def test_single_excursion_within_family_threshold(self, qubit_space):
        section = self.audit_offset(qubit_space, 3.5)
        assert section["checkpoints"] == 50
        assert section["z"] == pytest.approx(family_threshold(3.0, 50))
        assert section["passed"]

    def test_large_excursion_still_fails(self, qubit_space):
        assert not self.audit_offset(qubit_space, 6.0)["passed"]
