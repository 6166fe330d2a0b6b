import numpy as np
import pytest

import collapse_lab as cl
from collapse_lab.config import from_dict
from collapse_lab.errors import ConfigError
from collapse_lab.integrator import run_trajectory
from collapse_lab.scenarios import (
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
