"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; the runtime budgets are
asserted as part of the criterion.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import collapse_lab as cl
from collapse_lab.cli import cli_run
from collapse_lab.config import from_dict
from collapse_lab.integrator import (
    IntegrationPlan,
    Observable,
    lindblad_oracle,
    run_ensemble,
    run_trajectory,
)
from collapse_lab.scenarios import builtin_scenario, realize
from collapse_lab.wavepacket import ELECTRON_MASS_SI, HBAR_SI

from conftest import SIGMA_X, SIGMA_Z, make_realized, trace_distance


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} ({label}): FAIL after {elapsed:.1f}s")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.1f}s "
          f"(budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_appendix_entropy():
    with criterion(1, "two-branch entropy closed forms", 1.0):
        exact = cl.two_branch_entropy_exact(1.0 - 0.01)
        approx = cl.two_branch_entropy_approx(0.01)
        assert abs(approx - exact) / exact < 0.01
        rels = []
        for delta in (1e-2, 1e-3, 1e-4):
            e = cl.two_branch_entropy_exact(1.0 - delta)
            a = cl.two_branch_entropy_approx(delta)
            rels.append(abs(a - e) / e)
        assert rels[0] > rels[1] > rels[2]


def test_criterion_2_window_momentum_vs_quadrature():
    with criterion(2, "window momentum closed form vs quadrature", 10.0):
        for t in (0.2, 0.5, 1.0, 2.0, 5.0):
            params = cl.PacketParams(a=1.0, m=1.0, t=t)
            eps = cl.packet_width(params) / 100.0
            for x_f in (0.25, 0.5, 1.0, 2.0, 3.0):
                sel = cl.PostSelection(x_f, eps)
                closed = cl.postselected_momentum_closed(params, sel)
                quad_val = cl.postselected_momentum_quadrature(params, sel)
                assert abs(quad_val - closed) / abs(closed) <= 1e-3
        # deviation scales quadratically under epsilon-halving
        for t, x_f in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.5)):
            params = cl.PacketParams(a=1.0, m=1.0, t=t)
            eps = cl.packet_width(params) / 100.0
            closed = cl.postselected_momentum_closed(params, cl.PostSelection(x_f, eps))
            d1 = abs(
                cl.postselected_momentum_quadrature(params, cl.PostSelection(x_f, eps))
                - closed
            )
            d2 = abs(
                cl.postselected_momentum_quadrature(
                    params, cl.PostSelection(x_f, eps / 2.0)
                )
                - closed
            )
            assert 3.0 <= d1 / d2 <= 5.0


def test_criterion_3_electron_spreading():
    with criterion(3, "electron spreading in SI units", 1.0):
        params = cl.PacketParams(a=1e-10, m=ELECTRON_MASS_SI, hbar=HBAR_SI, t=1e-6)
        width = cl.packet_width(params)
        assert 0.3 <= width <= 1.2


def _strong_order_batch(vt, psi0, dxi_matrix, dt):
    psi = np.tile(psi0, (dxi_matrix.shape[0], 1))
    for i in range(dxi_matrix.shape[1]):
        vpsi = psi @ vt
        vmean = np.einsum("bi,bi->b", psi.conj(), vpsi).real
        bpsi = vpsi - vmean[:, None] * psi
        b2 = (bpsi @ vt) - vmean[:, None] * bpsi
        new = psi + (-0.5 * dt) * b2 + dxi_matrix[:, i][:, None] * bpsi
        psi = new / np.linalg.norm(new, axis=1)[:, None]
    return psi


def test_criterion_4_norm_martingale_and_strong_order():
    with criterion(4, "norm martingale and Euler-Maruyama order", 60.0):
        # (a) per-step pre-renormalization drift: ensemble mean within 3 SE of 0
        d = builtin_scenario("qnd-two-level").to_dict()
        d["plan"].update({"dt": 5e-5, "n_steps": 4000, "record_every": 400})
        stats, _ = run_ensemble(from_dict(d), 500, base_seed=4000)
        assert abs(stats.norm_drift_mean) <= 3.0 * stats.norm_drift_stderr

        # (b) fixed-noise-path strong error shrinks by >= sqrt(2) per halving
        sc = realize(builtin_scenario("qnd-two-level"))
        v = sc.collapse_op.to_dense()
        vt = v.T.copy()
        psi0 = sc.psi0.amplitudes
        base_dt, levels, ref_level, T, n_paths = 1e-3, (0, 1, 2, 3), 6, 0.25, 512
        n_fine = int(round(T / base_dt)) * 2**ref_level
        dt_fine = base_dt / 2**ref_level
        rng = np.random.default_rng(1)
        w = rng.standard_normal((n_paths, n_fine, 2))
        dxi_fine = (w[..., 0] + 1j * w[..., 1]) * np.sqrt(dt_fine / 2.0)

        # the batch evolution must agree with the public single-step routine
        probe = _strong_order_batch(vt, psi0, dxi_fine[:1, :64], dt_fine)[0]
        psi_check = sc.psi0
        for i in range(64):
            psi_check = cl.ito_step(psi_check, None, sc.collapse_op, dt_fine,
                                    dxi_fine[0, i])
        assert np.allclose(probe, psi_check.amplitudes, atol=1e-12)

        ref = _strong_order_batch(vt, psi0, dxi_fine, dt_fine)
        errs = []
        for k in levels:
            dt = base_dt / 2**k
            block = 2 ** (ref_level - k)
            dxi = dxi_fine.reshape(n_paths, -1, block).sum(axis=2)
            psi = _strong_order_batch(vt, psi0, dxi, dt)
            errs.append(float(np.mean(np.linalg.norm(psi - ref, axis=1))))
        per_halving = (errs[0] / errs[-1]) ** (1.0 / (len(errs) - 1))
        assert per_halving >= np.sqrt(2.0)


def test_criterion_5_born_rule():
    with criterion(5, "Born-rule outcome frequencies", 120.0):
        sc = realize(builtin_scenario("qnd-two-level"))
        stats, _ = run_ensemble(sc, 2000, base_seed=20260809)
        freq_up = stats.outcome_counts.get("up", 0) / 2000.0
        tol = 3.0 * np.sqrt(0.3 * 0.7 / 2000.0)
        assert abs(freq_up - 0.3) <= tol
        assert stats.outcome_counts.get("uncollapsed", 0) == 0


def _ensemble_vs_oracle(space, h, v, psi0, n_traj, base_seed):
    plan = IntegrationPlan(dt=0.002, n_steps=500, seed=0, record_every=50)
    sc = make_realized(
        space, h, v, psi0, plan,
        observables=[Observable("energy", cl.AssembledOperator(space, np.asarray(h)))],
    )
    stats, _ = run_ensemble(sc, n_traj, base_seed, record_density=True)
    rho0 = np.outer(sc.psi0.amplitudes, sc.psi0.amplitudes.conj())
    oracle = lindblad_oracle(h, v, rho0, plan)  # one state per recorded time
    checkpoints = list(range(1, 11))  # ten non-initial recorded times
    tds = [
        trace_distance(stats.mean_density[i], oracle[i])
        for i in checkpoints
    ]
    return stats, oracle, plan, checkpoints, tds


def test_criterion_6_lindblad_equivalence():
    with criterion(6, "ensemble average matches the master equation", 600.0):
        space2 = cl.CompositeSpace([cl.discrete("q", 2)])
        *_, tds2 = _ensemble_vs_oracle(
            space2, SIGMA_X, SIGMA_Z, [0.6, 0.8], 8000, 60001
        )
        assert max(tds2) <= 0.02

        h4 = (np.kron(SIGMA_X, np.eye(2)) + 0.5 * np.kron(np.eye(2), SIGMA_X)
              + 0.3 * np.kron(SIGMA_Z, SIGMA_Z))
        v4 = np.kron(SIGMA_Z, np.eye(2)) + 0.6 * np.kron(np.eye(2), SIGMA_Z)
        space4 = cl.CompositeSpace([cl.discrete("a", 2), cl.discrete("b", 2)])
        *_, tds4 = _ensemble_vs_oracle(
            space4, h4, v4, [0.5, 0.5, 0.5, 0.5], 8000, 70001
        )
        assert max(tds4) <= 0.02


def test_criterion_7_exact_momentum_sector():
    with criterion(7, "total-shift sector conservation under collapse", 300.0):
        d = builtin_scenario("two-particle-collision").to_dict()
        d["initial_state"]["shift_sector"] = 0
        cfg = from_dict(d)
        sc = realize(cfg)
        assert sc.collapse_op is not None
        assert sc.plan.n_steps == 10000
        rec = run_trajectory(sc, seed=99)
        ts = rec.observables["tshift"]
        assert np.max(np.abs(np.abs(ts) - 1.0)) < 1e-9
        args = np.unwrap(np.angle(ts))
        assert np.max(np.abs(args - args[0])) < 1e-9


def test_criterion_8_interaction_entangles():
    with criterion(8, "interaction produces and retains entanglement", 300.0):
        sc = realize(builtin_scenario("two-particle-collision"))
        assert sc.collapse_op is not None
        rec = run_trajectory(sc, seed=42)
        ent = rec.entropy_series["particle"]
        assert ent[0] < 1e-8  # product start
        assert ent.max() > 1e-8
        assert ent[-1] > 0.0


def test_criterion_9_energy_audit_honesty():
    with criterion(9, "energy audit against the master-equation oracle", 600.0):
        # non-commuting: ensemble mean energy must track the oracle at 3 SE
        space2 = cl.CompositeSpace([cl.discrete("q", 2)])
        stats, oracle, plan, checkpoints, _ = _ensemble_vs_oracle(
            space2, SIGMA_X, SIGMA_Z, [0.6, 0.8], 6000, 90001
        )
        for i in checkpoints:
            mean = stats.observable_mean["energy"][i]
            # floor covers accumulation rounding over thousands of sums
            se = max(stats.observable_stderr["energy"][i], 1e-12)
            oracle_val = float(
                np.real(np.trace(SIGMA_X @ oracle[i]))
            )
            assert abs(mean - oracle_val) <= 3.0 * se

        # commuting with an energy-eigenspace start: per-trajectory <H>
        # constant to 1e-10 even while the other factor collapses
        space4 = cl.CompositeSpace([cl.discrete("a", 2), cl.discrete("b", 2)])
        h4 = 0.7 * np.kron(np.eye(2), SIGMA_Z)
        v4 = 1.2 * np.kron(SIGMA_Z, np.eye(2))
        plan4 = IntegrationPlan(dt=1e-3, n_steps=2000, seed=0, record_every=5)
        sc4 = make_realized(
            space4, h4, v4, [0.6, 0.0, 0.8, 0.0], plan4,
            observables=[Observable("energy", cl.AssembledOperator(space4, h4))],
        )
        _, records = run_ensemble(sc4, 20, base_seed=91000, keep_records=True)
        for rec in records:
            drift = np.max(np.abs(rec.observables["energy"]
                                  - rec.observables["energy"][0]))
            assert drift < 1e-10


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "byte-identical trajectory for fixed config and seed", 10.0):
        cfg = builtin_scenario("qnd-two-level")
        path = tmp_path / "qnd.json"
        path.write_text(cl.serialize(cfg))
        assert cli_run(["run", "--config", str(path), "--seed", "7",
                        "--out-dir", str(tmp_path / "a"), "--quiet"]) == 0
        assert cli_run(["run", "--config", str(path), "--seed", "7",
                        "--out-dir", str(tmp_path / "b"), "--quiet"]) == 0
        csv_a = (tmp_path / "a" / "trajectory_seed7.csv").read_bytes()
        csv_b = (tmp_path / "b" / "trajectory_seed7.csv").read_bytes()
        assert csv_a == csv_b
