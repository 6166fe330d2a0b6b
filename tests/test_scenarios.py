import numpy as np
import pytest

import collapse_lab as cl
from collapse_lab.config import _COMPLEX_KINDS, from_dict
from collapse_lab.errors import ConfigError
from collapse_lab.integrator import run_trajectory
from collapse_lab.operators import diagonal_operator, momentum_operator
from collapse_lab.scenarios import (
    build_operator_spec,
    builtin_names,
    builtin_scenario,
    project_shift_sector,
    realize,
)


def test_builtin_names_stable():
    assert builtin_names() == [
        "beamsplitter",
        "free-packet",
        "qnd-two-level",
        "stern-gerlach",
        "two-particle-collision",
    ]


def test_unknown_builtin():
    with pytest.raises(ConfigError):
        builtin_scenario("does-not-exist")


@pytest.mark.parametrize("name", [
    "qnd-two-level", "beamsplitter", "two-particle-collision",
    "stern-gerlach", "free-packet",
])
def test_every_builtin_validates_and_realizes(name):
    cfg = builtin_scenario(name)
    sc = realize(cfg)
    assert sc.space.total_dim >= 2
    assert abs(cl.norm(sc.psi0) - 1.0) < 1e-12


def test_beamsplitter_reproduces_appendix_entropy():
    sc = realize(builtin_scenario("beamsplitter"))
    part = cl.Bipartition.of(sc.space, {"photon"})
    s = cl.vn_entropy(cl.reduced_density(sc.psi0, part))
    assert s == pytest.approx(cl.two_branch_entropy_exact(0.99), abs=1e-6)


def test_free_packet_width_within_one_percent():
    cfg = builtin_scenario("free-packet")
    sc = realize(cfg)
    rec = run_trajectory(sc)
    t_final = rec.times[-1]
    expected = cl.packet_width(cl.PacketParams(a=1.0, m=1.0, t=t_final))
    measured = rec.observables["width"][-1]
    assert abs(measured - expected) / expected < 0.01
    # spreading is monotone
    assert np.all(np.diff(rec.observables["width"]) > -1e-9)


def test_qnd_scenario_runs_and_flags_collapse():
    sc = realize(builtin_scenario("qnd-two-level"))
    rec = run_trajectory(sc, seed=12)
    assert rec.collapsed_branch in ("up", "down")


def test_stern_gerlach_entangles_and_conserves_spin_class():
    sc = realize(builtin_scenario("stern-gerlach"))
    rec = run_trajectory(sc, seed=4)
    ent = rec.entropy_series["spin"]
    assert ent[0] < 1e-10
    assert ent.max() > 0.01
    # spin-z projectors commute with H and the collapse operator
    from collapse_lab.conservation import commutator_certificate
    import scipy.sparse as sp

    proj = sp.diags_array(
        [np.repeat([1.0, 0.0], sc.space.total_dim // 2).astype(complex)],
        offsets=[0], format="csr",
    )
    assert commutator_certificate(sc.hamiltonian.matrix, proj, 1e-12).passed
    assert commutator_certificate(sc.collapse_op.matrix, proj, 1e-12).passed


def test_two_particle_interaction_entangles_product_start():
    d = builtin_scenario("two-particle-collision").to_dict()
    d["plan"]["n_steps"] = 4000
    d["plan"]["record_every"] = 200
    sc = realize(from_dict(d))
    rec = run_trajectory(sc, seed=2)
    ent = rec.entropy_series["particle"]
    assert ent[0] < 1e-10
    assert ent.max() > 1e-8


def test_shift_sector_projection_is_exact_eigenstate():
    d = builtin_scenario("two-particle-collision").to_dict()
    d["initial_state"]["shift_sector"] = 0
    sc = realize(from_dict(d))
    from collapse_lab.conservation import total_shift_generator

    t = total_shift_generator(sc.space)
    tpsi = t.matrix @ sc.psi0.amplitudes
    assert np.linalg.norm(tpsi - sc.psi0.amplitudes) < 1e-12


def test_shift_sector_nonzero():
    space = cl.CompositeSpace([cl.lattice("p", 8, 0.5, periodic=True)])
    psi = cl.make_product_state(
        space, {"p": cl.gaussian_packet(space, "p", width=1.0, momentum=3.0)}
    )
    projected = project_shift_sector(psi, 2)
    from collapse_lab.conservation import total_shift_generator

    t = total_shift_generator(space)
    lam = np.exp(-2j * np.pi * 2 / 8)
    assert np.linalg.norm(t.matrix @ projected.amplitudes
                          - lam * projected.amplitudes) < 1e-12


def test_collapse_potential_observable_requires_collapse():
    d = builtin_scenario("free-packet").to_dict()
    d["observables"].append({"name": "vhat", "kind": "collapse_potential"})
    with pytest.raises(ConfigError):
        realize(from_dict(d))


def test_audit_series_added_automatically():
    sc = realize(builtin_scenario("two-particle-collision"))
    names = [o.name for o in sc.observables]
    assert "energy" in names
    assert "tshift" in names
    assert "tshift.particle" in names and "tshift.apparatus" in names
    assert sc.qv_tracks == ("energy",)


def _roll_projection(psi, sector):
    """Reference: average the d simultaneous shifts, phase-weighted."""
    axes = [i for i, s in enumerate(psi.space.subsystems) if s.is_lattice]
    d = psi.space.dims[axes[0]]
    tensor = psi.reshaped()
    acc = np.zeros_like(tensor)
    for s in range(d):
        acc += np.exp(2j * np.pi * sector * s / d) * np.roll(tensor, [s] * len(axes),
                                                             axis=axes)
    return acc.reshape(-1) / np.linalg.norm(acc)


@pytest.mark.parametrize("sector", [0, 3, -5])
def test_shift_sector_projection_matches_roll_reference(sector):
    cfg = builtin_scenario("two-particle-collision")
    sc = realize(cfg)
    # forward and inverse FFT: O(log2 n) roundings per amplitude, n = 4096
    tol = 4 * np.log2(sc.space.total_dim) * np.finfo(float).eps
    projected = project_shift_sector(sc.psi0, sector)
    assert np.max(np.abs(projected.amplitudes - _roll_projection(sc.psi0, sector))) < tol


def test_shift_sector_without_weight_refused():
    space = cl.CompositeSpace([cl.lattice("p", 4, 0.5, periodic=True)])
    psi = cl.make_product_state(space, {"p": np.array([1.0, 1.0, 1.0, 1.0])})
    with pytest.raises(cl.errors.StateError):
        project_shift_sector(psi, 1)


@pytest.mark.parametrize("name", ["qnd-two-level", "stern-gerlach"])
def test_audit_quantities_built_once_and_shared(name):
    sc = realize(builtin_scenario(name))
    (quantity,) = sc.quantities
    sz = next(o for o in sc.observables if o.name == "sz")
    assert quantity.name == "sz_audit"
    assert quantity.operator is sz.op


def test_energy_and_total_shift_observables():
    d = builtin_scenario("two-particle-collision").to_dict()
    d["observables"] += [{"name": "e", "kind": "energy"},
                         {"name": "shift", "kind": "total_shift"}]
    sc = realize(from_dict(d))
    ops = {o.name: o.op for o in sc.observables}
    tshift = next(q.operator for q in sc.quantities if q.kind == "total_quasimomentum")
    assert ops["e"] is sc.hamiltonian and ops["shift"] is tshift
    assert (ops["shift"].matrix != cl.total_shift_generator(sc.space).matrix).nnz == 0


def _every_series_config() -> dict:
    """A spin beside two periodic 8-site lattices: every observable kind and
    every audit kind has an operator on this space."""
    lattice = {"kind": "lattice1d", "dim": 8, "grid_spacing": 0.5, "periodic": True}
    kinetic = [{"type": "kinetic", "subsystem": s} for s in ("a", "b")]
    one_site = [1.0] + [0.0] * 7
    return {
        "space": {"subsystems": [{"label": "spin", "kind": "spin", "dim": 2},
                                 {"label": "a", **lattice}, {"label": "b", **lattice}]},
        "operators": {"terms": [
            *kinetic,
            {"type": "interaction", "subsystem_i": "a", "subsystem_j": "b",
             "potential": {"family": "gaussian_well", "depth": 2.0, "width": 0.7}},
            {"type": "spin_coupling", "spin_subsystem": "spin",
             "pointer_subsystem": "a", "strength": 0.5}]},
        "collapse": {},
        "initial_state": {"kind": "product", "factors": {
            "spin": [1.0, 1.0], "a": one_site, "b": one_site[::-1]}},
        "plan": {"dt": 1e-3, "n_steps": 10},
        "observables": [
            {"name": "e", "kind": "energy"},
            {"name": "v", "kind": "collapse_potential"},
            {"name": "shift", "kind": "total_shift"},
            {"name": "sz", "kind": "spin_z", "subsystem": "spin"},
            {"name": "x", "kind": "position", "subsystem": "a"},
            {"name": "w", "kind": "width", "subsystem": "a"},
            {"name": "p", "kind": "momentum", "subsystem": "b"},
        ],
        "audits": [
            {"name": "energy", "kind": "energy"},
            {"name": "tshift", "kind": "total_quasimomentum"},
            {"name": "sz_audit", "kind": "spin_z", "subsystem": "spin"},
            {"name": "kin", "kind": "custom", "terms": kinetic},
        ],
    }


# the directly built operator of each series of _every_series_config()
_DIRECT_SERIES_OPERATORS = {
    "e": lambda sp, spec: cl.assemble_hamiltonian(spec, sp),
    "v": lambda sp, spec: cl.collapse_operator(
        cl.scaled_interaction_sum(spec, sp), cl.CollapseParams(1.0, 1.0)),
    "shift": lambda sp, spec: cl.total_shift_generator(sp),
    "sz": lambda sp, spec: diagonal_operator(sp, "spin", np.array([1.0, -1.0])),
    "x": lambda sp, spec: diagonal_operator(sp, "a", sp.subsystem("a").positions()),
    "w": lambda sp, spec: diagonal_operator(sp, "a", sp.subsystem("a").positions()),
    "p": lambda sp, spec: momentum_operator(sp, "b"),
    "energy": lambda sp, spec: cl.assemble_hamiltonian(spec, sp),
    "tshift": lambda sp, spec: cl.total_shift_generator(sp),
    "sz_audit": lambda sp, spec: diagonal_operator(sp, "spin", np.array([1.0, -1.0])),
    "kin": lambda sp, spec: cl.assemble_hamiltonian(
        cl.OperatorSpec([cl.KineticTerm("a"), cl.KineticTerm("b")]), sp),
}


@pytest.fixture(scope="module")
def every_series():
    return realize(from_dict(_every_series_config()))


@pytest.mark.parametrize("name", sorted(_DIRECT_SERIES_OPERATORS))
def test_every_series_kind_gets_its_direct_operator(every_series, name):
    sc = every_series
    series = {o.name: o for o in sc.observables}
    audits = {q.name: q.operator for q in sc.quantities}
    op = audits[name] if name in audits else series[name].op
    spec = build_operator_spec(sc.config.operators["terms"])
    expected = _DIRECT_SERIES_OPERATORS[name](sc.space, spec)
    assert (op.matrix != expected.matrix).nnz == 0
    assert (op.hermitian, op.unitary) == (expected.hermitian, expected.unitary)
    if name in series:
        assert series[name].kind == ("width" if name == "w" else "expectation")
    # one operator object per built operator, whichever series asks for it
    assert series["sz"].op is audits["sz_audit"]
    assert series["shift"].op is audits["tshift"]
    assert series["x"].op is series["w"].op


def test_complex_kinds_are_the_kinds_of_complex_series(every_series):
    # the config refuses a complex series named like a column stem; a
    # kind is complex exactly when its realized series is
    sc = every_series
    kinds = {s["name"]: s["kind"] for s in (*sc.config.observables, *sc.config.audits)}
    series = {o.name: o for o in sc.observables}
    for name in _DIRECT_SERIES_OPERATORS:
        assert series[name].is_complex == (kinds[name] in _COMPLEX_KINDS), name
