import multiprocessing
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import collapse_lab as cl
from collapse_lab import integrator
from collapse_lab.config import from_dict
from collapse_lab.errors import DimensionError, NumericalError, StabilityError
from collapse_lab.integrator import (
    Branch,
    IntegrationPlan,
    Observable,
    TrajectoryRecord,
    _column_names,
    _column_roles,
    lindblad_oracle,
    run_ensemble,
    run_trajectory,
)
from collapse_lab.operators import AssembledOperator
from collapse_lab.persist import trajectory_csv_text
from collapse_lab.scenarios import builtin_names, builtin_scenario, realize

from conftest import (
    SIGMA_X,
    SIGMA_Z,
    make_realized,
    random_hermitian,
    random_state,
    trace_distance,
)


def assert_same_trajectory(single, rec):
    """``single`` (a batch of one) matches ``rec`` (a row of a larger batch)
    to 1e-12 in every series and in the final state."""
    assert single.collapse_step == rec.collapse_step
    assert single.collapsed_branch == rec.collapsed_branch
    for attr in ("observables", "branch_weights", "entropy_series", "qv_series"):
        one, many = getattr(single, attr), getattr(rec, attr)
        assert one.keys() == many.keys()
        for k in one:
            assert np.allclose(one[k], many[k], rtol=0.0, atol=1e-12), k
    assert np.allclose(single.norms_pre_renorm, rec.norms_pre_renorm,
                       rtol=0.0, atol=1e-12)
    assert np.allclose(single.final_state.amplitudes,
                       rec.final_state.amplitudes, rtol=0.0, atol=1e-12)


def as_op(space, mat, hermitian=True):
    return AssembledOperator(space, np.asarray(mat, dtype=complex), hermitian=hermitian)


def one_step(psi, h, v, dt, noise):
    """The kernel's step of a one-row block, as a state vector's amplitudes."""
    new, _, _, _ = integrator._step(psi.amplitudes[None, :], h, v, dt,
                                    np.array([complex(noise)]))
    return new[0]


class TestItoStep:
    """The kernel's renormalized Euler-Maruyama step, ``_step``, on a block
    of one row."""

    def test_unitary_limit_phases(self, qubit_space):
        # collapse operator proportional to identity contributes nothing
        h = as_op(qubit_space, SIGMA_Z)
        v = as_op(qubit_space, np.eye(2) * 2.0)
        psi = cl.make_product_state(qubit_space, {"q": [1.0, 1.0]})
        dt = 1e-3
        out = one_step(psi, h, v, dt, noise=0.1 + 0.05j)
        expected = np.array([np.exp(-1j * dt), np.exp(1j * dt)]) / np.sqrt(2.0)
        assert np.allclose(out, expected, atol=dt**2)

    def test_hand_expanded_weight_shift(self, qubit_space):
        v_eig = 0.8
        v = as_op(qubit_space, np.diag([v_eig, -v_eig]))
        psi = cl.make_product_state(qubit_space, {"q": [1.0, 1.0]})
        dt = 1e-4
        eps = 0.02
        out = one_step(psi, None, v, dt, noise=complex(eps))
        w0 = abs(out[0]) ** 2
        ve = v_eig * eps
        expected = (1 + ve) ** 2 / ((1 + ve) ** 2 + (1 - ve) ** 2)
        assert w0 == pytest.approx(expected, abs=5 * dt)

    def test_joint_eigenstate_fixed_point(self, qubit_space):
        h = as_op(qubit_space, SIGMA_Z)
        v = as_op(qubit_space, np.diag([0.5, -0.5]))
        psi = cl.make_product_state(qubit_space, {"q": [1.0, 0.0]})
        out = one_step(psi, h, v, 1e-3, noise=0.3 - 0.2j)
        overlap = abs(np.vdot(psi.amplitudes, out))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_stability_guard(self, qubit_space):
        plan = IntegrationPlan(dt=1e-3, n_steps=1)
        sc = make_realized(qubit_space, None, np.diag([50.0, -50.0]), [1.0, 1.0], plan)
        with pytest.raises(StabilityError):
            run_trajectory(sc)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 12),
           log_scale=st.floats(-3.0, 3.0))
    def test_step_beta_orthogonal_to_state(self, seed, dim, log_scale):
        # the deviation V psi - <V> psi that drives the noise term
        rng = np.random.default_rng(seed)
        space = cl.CompositeSpace([cl.discrete("x", dim)])
        vmat = random_hermitian(rng, dim, scale=10.0**log_scale)
        v = AssembledOperator(space, vmat, hermitian=True)
        psi = random_state(rng, dim)[None, :]
        _, _, beta, _ = integrator._step(psi, None, v, 1e-3, np.zeros(1, complex))
        assert abs(np.vdot(psi, beta)) < 1e-10
        assert abs(np.vdot(psi, beta)) <= 1e-12 * np.max(np.abs(vmat))

    @pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan"), float("inf")])
    def test_dt_must_be_positive_and_finite(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            IntegrationPlan(dt=dt, n_steps=1)


class TestRunTrajectory:
    def qnd(self, weights=(0.3, 0.7), n_steps=3000, dt=1e-3, seed=5):
        sc = realize(builtin_scenario("qnd-two-level"))
        plan = IntegrationPlan(dt=dt, n_steps=n_steps, seed=seed, record_every=50)
        space = sc.space
        psi0 = cl.make_product_state(
            space, {"spin": [np.sqrt(weights[0]), np.sqrt(weights[1])],
                    "pointer": [0.0, 1.0]}
        )
        import dataclasses

        return dataclasses.replace(sc, plan=plan, psi0=psi0)

    def test_qnd_reaches_terminal_branch(self):
        sc = self.qnd(n_steps=6000)
        rec = run_trajectory(sc, seed=8)
        assert rec.collapsed_branch in ("up", "down")
        winner = rec.branch_weights[rec.collapsed_branch][-1]
        assert winner > 1.0 - 1e-6

    def test_eigenstate_start_weights_constant(self):
        sc = self.qnd(weights=(1.0, 0.0), n_steps=500)
        rec = run_trajectory(sc, seed=3)
        assert np.allclose(rec.branch_weights["up"], 1.0, atol=1e-12)
        assert rec.collapsed_branch == "up"
        assert rec.collapse_step == 0

    def test_free_evolution_matches_exponential_oracle(self, qubit_space):
        h = 0.7 * SIGMA_X + 0.2 * SIGMA_Z
        dt, n = 1e-4, 2000
        plan = IntegrationPlan(dt=dt, n_steps=n, seed=0, record_every=n)
        sc = make_realized(qubit_space, h, None, [0.6, 0.8j], plan)
        rec = run_trajectory(sc)
        exact = expm(-1j * h * dt * n) @ sc.psi0.amplitudes
        # explicit Euler phase error accumulates ~ t * ||H||^3 dt^2 / 3
        assert np.linalg.norm(rec.final_state.amplitudes - exact) < 1e-5

    def test_deterministic_given_seed(self):
        sc = self.qnd()
        r1 = run_trajectory(sc, seed=123)
        r2 = run_trajectory(sc, seed=123)
        assert np.array_equal(r1.observables["sz"], r2.observables["sz"])
        assert np.array_equal(r1.norms_pre_renorm, r2.norms_pre_renorm)

    def test_norm_drift_is_order_dt(self):
        sc = self.qnd(n_steps=200)
        rec = run_trajectory(sc, seed=2)
        drifts = np.abs(rec.norms_pre_renorm[1:] - 1.0)
        assert np.max(drifts) < 50 * sc.plan.dt

    def test_branch_weights_partition(self):
        rec = run_trajectory(self.qnd(n_steps=500), seed=9)
        total = rec.branch_weights["up"] + rec.branch_weights["down"]
        assert np.max(np.abs(total - 1.0)) < 1e-9

    def test_record_lengths(self):
        rec = run_trajectory(self.qnd(n_steps=500), seed=9)
        n_rec = 1 + 500 // 50
        assert len(rec.times) == n_rec
        assert all(len(s) == n_rec for s in rec.observables.values())
        assert all(len(s) == n_rec for s in rec.entropy_series.values())


class TestRunEnsemble:
    def test_no_noise_zero_variance(self, qubit_space):
        h = SIGMA_X
        plan = IntegrationPlan(dt=1e-3, n_steps=100, seed=0, record_every=20)
        sc = make_realized(
            qubit_space, h, None, [1.0, 0.0], plan,
            observables=[Observable("sz", AssembledOperator(qubit_space, SIGMA_Z))],
        )
        stats, _ = run_ensemble(sc, 8, base_seed=0)
        # identical trajectories; variance is zero up to one-pass cancellation
        assert np.max(stats.observable_var["sz"]) < 1e-14

    def test_seed_layout_and_reproducibility(self, qubit_space):
        plan = IntegrationPlan(dt=1e-3, n_steps=200, seed=0, record_every=40)
        sc = make_realized(
            qubit_space, None, SIGMA_Z, [0.6, 0.8], plan,
            observables=[Observable("sz", AssembledOperator(qubit_space, SIGMA_Z))],
        )
        stats1, recs = run_ensemble(sc, 6, base_seed=100, keep_records=True)
        assert [r.seed for r in recs] == [100 + i for i in range(6)]
        stats2, _ = run_ensemble(sc, 6, base_seed=100)
        assert np.array_equal(stats1.observable_mean["sz"], stats2.observable_mean["sz"])

    def test_batched_matches_serial_trajectory(self):
        sc = realize(builtin_scenario("qnd-two-level"))
        plan = sc.plan
        # a `run` writes t = step * dt at each recorded step
        step_times = [step * plan.dt
                      for step in range(0, plan.n_steps + 1, plan.record_every)]
        for seed in (77, 7):
            serial = run_trajectory(sc, seed=seed)
            _, recs = run_ensemble(sc, 3, base_seed=seed, keep_records=True)
            batched = recs[0]
            assert np.array_equal(serial.times, step_times)
            assert np.array_equal(batched.times, serial.times)
            assert batched.collapsed_branch == serial.collapsed_branch
            assert batched.collapse_step == serial.collapse_step
            assert np.allclose(
                batched.observables["sz"], serial.observables["sz"], atol=1e-12
            )

    def test_chunked_ensemble_reduces_like_one_chunk(self, monkeypatch):
        # trajectories integrated together in one chunk or split over
        # several chunks reduce to the same statistics, in seed order
        sc = realize(builtin_scenario("qnd-two-level"))
        import dataclasses

        sc = dataclasses.replace(
            sc, plan=IntegrationPlan(dt=1e-3, n_steps=300, seed=0, record_every=50)
        )
        stats_one, _ = run_ensemble(sc, 6, base_seed=5)
        monkeypatch.setattr(integrator, "BATCH_AMPLITUDES", 2 * sc.space.total_dim)
        stats_chunked, recs = run_ensemble(sc, 6, base_seed=5, keep_records=True)
        assert [r.seed for r in recs] == [5 + i for i in range(6)]
        assert stats_chunked.outcome_counts == stats_one.outcome_counts
        for k in stats_one.observable_mean:
            assert np.allclose(
                stats_chunked.observable_mean[k], stats_one.observable_mean[k],
                rtol=0.0, atol=1e-12,
            )

    def test_chunk_size_capped_by_batch_amplitudes(self, monkeypatch):
        # the number of trajectories integrated together is capped by
        # BATCH_AMPLITUDES alone: setting COLLAPSE_LAB_THREADS, which no
        # code reads, changes neither the chunks nor the statistics
        sc = realize(builtin_scenario("qnd-two-level"))
        import dataclasses

        sc = dataclasses.replace(
            sc, plan=IntegrationPlan(dt=1e-3, n_steps=200, seed=0, record_every=50)
        )
        monkeypatch.delenv("COLLAPSE_LAB_THREADS", raising=False)
        stats_one, _ = run_ensemble(sc, 4, base_seed=11)

        sizes = []
        run_chunk = integrator._run_chunk_batched

        def spy(scenario, seeds, out):
            sizes.append(len(seeds))
            return run_chunk(scenario, seeds, out)

        # one usable CPU: every chunk runs in this process, where the spy is
        monkeypatch.setattr(integrator.os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(integrator, "_run_chunk_batched", spy)
        monkeypatch.setattr(
            integrator, "BATCH_AMPLITUDES", 2 * sc.space.total_dim
        )
        monkeypatch.setenv("COLLAPSE_LAB_THREADS", "4")
        stats_capped, recs = run_ensemble(sc, 4, base_seed=11, keep_records=True)
        assert sizes == [2, 2]
        assert [r.seed for r in recs] == [11, 12, 13, 14]
        assert stats_capped.outcome_counts == stats_one.outcome_counts
        for k in stats_one.observable_mean:
            assert np.allclose(
                stats_capped.observable_mean[k], stats_one.observable_mean[k],
                rtol=0.0, atol=1e-12,
            )

    @pytest.mark.parametrize("name, n_steps", [
        ("stern-gerlach", 300),  # d = 96
        ("two-particle-collision", 200),  # d = 4096
    ])
    def test_batch_of_one_matches_batch_of_many(self, name, n_steps):
        import dataclasses

        sc = realize(builtin_scenario(name))
        sc = dataclasses.replace(
            sc, plan=dataclasses.replace(sc.plan, n_steps=n_steps, record_every=50)
        )
        _, recs = run_ensemble(sc, 3, base_seed=31, keep_records=True)
        for rec in recs:
            assert_same_trajectory(run_trajectory(sc, seed=rec.seed), rec)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           dims=st.sampled_from([(2,), (5,), (8,), (2, 2), (2, 3), (2, 4), (4, 2)]),
           n_traj=st.integers(2, 6), pick=st.integers(0, 5),
           complex_noise=st.booleans(), diagonal_v=st.booleans())
    def test_batch_of_one_matches_batch_of_many_random(self, seed, dims, n_traj,
                                                       pick, complex_noise, diagonal_v):
        # V near-diagonal in the branch basis, so that a good share of the
        # trajectories collapse within the run
        rng = np.random.default_rng(seed)
        space = cl.CompositeSpace([cl.discrete(f"s{i}", d) for i, d in enumerate(dims)])
        d = space.total_dim
        h = random_hermitian(rng, d, 0.1)
        v = np.diag(rng.uniform(-3.0, 3.0, d)).astype(complex)
        if not diagonal_v:
            v += random_hermitian(rng, d, 0.05)
        plan = IntegrationPlan(dt=5e-3, n_steps=200, seed=0, record_every=50,
                               noise_kind="complex" if complex_noise else "real",
                               collapse_threshold=0.95)
        sc = make_realized(
            space, h, v, random_state(rng, d), plan,
            observables=[Observable("h", AssembledOperator(space, h)),
                         Observable("v", AssembledOperator(space, v))],
            branches=[Branch("lo", np.arange(d // 2)),
                      Branch("hi", np.arange(d // 2, d))],
            bipartitions=[cl.Bipartition.of(space, {"s0"})] if len(dims) == 2 else [],
            qv_tracks=["h"],
        )
        _, recs = run_ensemble(sc, n_traj, base_seed=int(rng.integers(10**6)),
                               keep_records=True)
        rec = recs[pick % n_traj]
        assert_same_trajectory(run_trajectory(sc, seed=rec.seed), rec)

    def test_stability_guard(self):
        d = builtin_scenario("qnd-two-level").to_dict()
        d["plan"].update({"dt": 5.0, "n_steps": 10, "record_every": 1})
        with pytest.raises(StabilityError):
            run_ensemble(realize(from_dict(d)), 4)

    def test_mean_vhat_matches_oracle(self, qubit_space):
        h = SIGMA_X
        v = SIGMA_Z
        plan = IntegrationPlan(dt=2e-3, n_steps=250, seed=0, record_every=50)
        sc = make_realized(
            qubit_space, h, v, [0.6, 0.8], plan,
            observables=[Observable("vhat", AssembledOperator(qubit_space, SIGMA_Z))],
        )
        stats, _ = run_ensemble(sc, 3000, base_seed=900)
        rho0 = np.outer(sc.psi0.amplitudes, sc.psi0.amplitudes.conj())
        rhos = lindblad_oracle(h, v, rho0, plan)
        assert rhos.shape == (plan.n_records, 2, 2)
        for i, rho in enumerate(rhos):
            oracle_val = float(np.real(np.trace(SIGMA_Z @ rho)))
            se = max(stats.observable_stderr["vhat"][i], 1e-12)
            assert abs(stats.observable_mean["vhat"][i] - oracle_val) <= 3 * se


def _dense_rk4_oracle(h, v, rho0, plan):
    """The master equation by dense RK4, every product formed: the reference
    for the oracle's mask form, at the same checkpoints."""
    v2 = v @ v

    def rhs(r):
        return -1j * (h @ r - r @ h) + v @ r @ v - 0.5 * (v2 @ r + r @ v2)

    rho, dt = rho0.astype(complex), plan.dt
    out = [rho]
    for i in range(1, plan.n_steps + 1):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        if i % plan.record_every == 0:
            out.append(rho)
    return np.array(out)


class TestLindbladOracle:
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 16),
           n_records=st.integers(1, 12), every=st.integers(1, 5),
           with_h=st.booleans(), with_v=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_mask_form_matches_dense_rk4(self, seed, d, n_records, every, with_h, with_v):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, d) if with_h else np.zeros((d, d))
        v = np.diag(rng.standard_normal(d)) if with_v else np.zeros((d, d))
        psi = random_state(rng, d)
        rho0 = np.outer(psi, psi.conj())
        plan = IntegrationPlan(dt=5e-3, n_steps=n_records * every, record_every=every)
        got = lindblad_oracle(h if with_h else None, v if with_v else None, rho0, plan)
        ref = _dense_rk4_oracle(h, v, rho0, plan)
        assert got.shape == ref.shape == (plan.n_records, d, d)
        assert np.max(np.abs(got - ref)) <= 1e-12

    def test_pure_unitary_keeps_spectrum(self):
        h = 0.9 * SIGMA_X
        rho0 = np.diag([0.7, 0.3]).astype(complex)
        rhos = lindblad_oracle(h, None, rho0, IntegrationPlan(dt=1e-3, n_steps=500))
        eigs0 = np.sort(np.linalg.eigvalsh(rhos[0]))
        eigsT = np.sort(np.linalg.eigvalsh(rhos[-1]))
        assert np.allclose(eigs0, eigsT, atol=1e-9)
        assert abs(np.trace(rhos[-1]).real - 1.0) < 1e-9

    def test_diagonal_states_fixed_under_dephasing(self):
        v = np.diag([0.6, -1.1]).astype(complex)
        rho0 = np.diag([0.25, 0.75]).astype(complex)
        rhos = lindblad_oracle(None, v, rho0, IntegrationPlan(dt=1e-3, n_steps=400))
        assert np.allclose(rhos[-1], rho0, atol=1e-12)

    def test_offdiagonal_dephasing_closed_form(self):
        v0, v1 = 0.9, -0.4
        v = np.diag([v0, v1]).astype(complex)
        rho0 = np.array([[0.6, 0.3 - 0.1j], [0.3 + 0.1j, 0.4]])
        dt, n = 1e-3, 2000
        rhos = lindblad_oracle(None, v, rho0, IntegrationPlan(dt=dt, n_steps=n))
        expected = rho0[0, 1] * np.exp(-((v0 - v1) ** 2) * n * dt / 2.0)
        assert rhos[-1][0, 1] == pytest.approx(expected, abs=1e-6)

    def test_rejects_non_psd(self):
        bad = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(NumericalError):
            lindblad_oracle(None, SIGMA_Z, bad, IntegrationPlan(dt=1e-3, n_steps=10))


def test_trace_distance():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(a, b) == pytest.approx(1.0)
    assert trace_distance(a, a) == 0.0


@pytest.mark.parametrize("name", builtin_names())
def test_record_times_are_the_kernels_t_column(name):
    sc = realize(builtin_scenario(name))
    rec = run_trajectory(sc)
    assert rec.times.tobytes() == sc.plan.record_times.tobytes()


def test_plan_validation():
    with pytest.raises(ValueError):
        IntegrationPlan(dt=-1.0, n_steps=10)
    with pytest.raises(ValueError):
        IntegrationPlan(dt=1e-3, n_steps=10, record_every=3)
    with pytest.raises(ValueError):
        IntegrationPlan(dt=1e-3, n_steps=10, noise_kind="pink")
    with pytest.raises(ValueError):
        IntegrationPlan(dt=1e-3, n_steps=10, collapse_threshold=1.5)


def test_real_noise_option(qubit_space):
    plan = IntegrationPlan(dt=1e-3, n_steps=400, seed=4, noise_kind="real",
                           record_every=100)
    sc = make_realized(qubit_space, None, SIGMA_Z, [1.0, 1.0], plan)
    rec = run_trajectory(sc)
    assert np.isfinite(rec.norms_pre_renorm).all()
    # martingale still holds with real increments
    assert abs(rec.norm_drift_mean) < 1e-2


def short_collision(n_steps=20, record_every=10):
    d = builtin_scenario("two-particle-collision").to_dict()
    d["plan"].update({"n_steps": n_steps, "record_every": record_every})
    return realize(from_dict(d))


def test_one_hamiltonian_apply_per_step(monkeypatch):
    sc = short_collision()
    assert sc.qv_tracks == ("energy",)
    h = sc.hamiltonian
    calls = {"h": 0, "other": 0}
    apply = AssembledOperator.apply

    def spy(self, psi):
        calls["h" if self is h else "other"] += 1
        return apply(self, psi)

    monkeypatch.setattr(AssembledOperator, "apply", spy)
    rec = run_trajectory(sc, seed=3)
    # H psi is computed once per step and shared by the update and the
    # energy QV track; the records evaluate <H> through the observable
    n_energy_records = sc.plan.n_records
    assert calls["h"] == sc.plan.n_steps + n_energy_records
    assert rec.qv_series["energy"][-1] > 0.0


def test_qv_energy_matches_recomputation(two_qubit_space):
    rng = np.random.default_rng(31)
    h = np.asarray(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    h = 0.5 * (h + h.conj().T)
    v = np.diag([0.9, -0.4, 0.3, -1.1]).astype(complex)
    plan = IntegrationPlan(dt=1e-3, n_steps=60, seed=8, record_every=1)
    sc = make_realized(two_qubit_space, h, v, [0.5, 0.5, 0.5, 0.5], plan,
                       qv_tracks=("energy",))
    rec = run_trajectory(sc, record_states=True)
    qv = [0.0]
    for psi in rec.states[:-1]:
        vpsi = v @ psi
        beta = vpsi - np.vdot(psi, vpsi).real * psi
        c = np.vdot(h @ psi, beta)
        qv.append(qv[-1] + 2.0 * abs(c) ** 2 * plan.dt)
    assert qv[-1] > 0.0
    assert np.allclose(rec.qv_series["energy"], qv, rtol=1e-12, atol=0.0)


def test_noise_blocks_do_not_change_trajectories(monkeypatch):
    sc = short_collision(n_steps=30, record_every=10)
    whole = run_trajectory(sc, seed=4)
    monkeypatch.setattr(integrator, "NOISE_INCREMENTS", 7)  # 7 steps per block
    blocked = run_trajectory(sc, seed=4)
    assert np.array_equal(whole.final_state.amplitudes, blocked.final_state.amplitudes)
    assert np.array_equal(whole.qv_series["energy"], blocked.qv_series["energy"])


def test_chunking_keeps_collapsing_trajectories_bit_identical(monkeypatch):
    # collapse is checked on the open rows only and noise is drawn in
    # blocks sized by the chunk: neither may change a trajectory
    d = builtin_scenario("qnd-two-level").to_dict()
    d["plan"].update({"n_steps": 1500, "record_every": 100})
    sc = realize(from_dict(d))

    def run():
        _, recs = run_ensemble(sc, 64, base_seed=3, keep_records=True)
        return {r.seed: (trajectory_csv_text(r), r.collapse_step) for r in recs}

    one_chunk = run()
    assert sum(step is not None for _, step in one_chunk.values()) >= 16
    monkeypatch.setattr(integrator, "NOISE_INCREMENTS", 64)  # one step per block
    assert run() == one_chunk
    monkeypatch.undo()
    monkeypatch.setattr(integrator, "BATCH_AMPLITUDES", 3 * sc.space.total_dim)
    assert run() == one_chunk


def test_unitary_ensemble_at_large_dim():
    # no collapse operator at d = 4096: H psi alone makes the update, and
    # the new block must still have rows with float64 views
    d = builtin_scenario("two-particle-collision").to_dict()
    d["collapse"] = {"enabled": False}
    d["plan"].update({"n_steps": 20, "record_every": 10})
    sc = realize(from_dict(d))
    assert sc.collapse_op is None and sc.space.total_dim > 256
    stats, recs = run_ensemble(sc, 2, 0, keep_records=True)
    assert stats.outcome_counts == {"uncollapsed": 2}
    assert np.array_equal(recs[0].final_state.amplitudes,
                          recs[1].final_state.amplitudes)
    single = run_trajectory(sc, seed=5)
    assert np.array_equal(single.final_state.amplitudes,
                          recs[0].final_state.amplitudes)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_recorded_branch_weights_sum_their_indices(seed):
    # three or four branches over a shuffled basis, so that no branch is a
    # contiguous index range
    rng = np.random.default_rng(seed)
    space = cl.CompositeSpace([cl.discrete("a", 3), cl.discrete("b", 4)])
    d = space.total_dim
    n_branches = 3 + seed % 2
    parts = np.array_split(rng.permutation(d), n_branches)
    assert not any(np.array_equal(np.sort(p), np.arange(p.min(), p.max() + 1))
                   for p in parts)
    branches = [Branch(f"b{k}", np.sort(p)) for k, p in enumerate(parts)]
    plan = IntegrationPlan(dt=2e-3, n_steps=300, seed=seed, record_every=20)
    sc = make_realized(space, random_hermitian(rng, d, 0.3),
                       np.diag(rng.uniform(-2.0, 2.0, d)).astype(complex),
                       random_state(rng, d), plan, branches=branches)
    # a block of four rows (states are recorded along with the density)
    # and a batch of one
    _, recs = run_ensemble(sc, 4, base_seed=10 * seed, record_density=True,
                           keep_records=True)
    for rec in [*recs, run_trajectory(sc, seed=seed, record_states=True)]:
        for br in branches:
            expected = np.sum(np.abs(rec.states[:, br.indices]) ** 2, axis=1)
            assert np.allclose(rec.branch_weights[br.label], expected,
                               rtol=0.0, atol=1e-12), br.label


def test_first_branch_wins_when_two_cross_the_threshold():
    space = cl.CompositeSpace([cl.discrete("s", 3)])
    plan = IntegrationPlan(dt=1e-3, n_steps=10, record_every=10,
                           collapse_threshold=0.3)
    sc = make_realized(space, None, np.diag([1.0, -1.0, 0.0]).astype(complex),
                       [0.1, np.sqrt(0.45), np.sqrt(0.45)], plan,
                       branches=[Branch("a", np.array([0])),
                                 Branch("b", np.array([1])),
                                 Branch("c", np.array([2]))])
    rec = run_trajectory(sc)
    assert (rec.collapse_step, rec.collapsed_branch) == (0, "b")


def reference_stats(recs, record_density: bool) -> dict:
    """Every EnsembleStats field from kept records, summed one record at a
    time in seed order from zero, with the two-pass variance."""
    n = len(recs)

    def moments(series):
        total, m2 = np.zeros_like(series[0]), np.zeros(len(series[0]))
        for v in series:
            total += v
        m = total / n
        for v in series:
            m2 += np.abs(v - m) ** 2
        var = m2 / (n - 1)
        return m, var, np.sqrt(var / n)

    ref = {name: {} for name in (
        "observable_mean", "observable_var", "observable_stderr",
        "branch_weight_mean", "branch_weight_stderr", "entropy_mean")}
    for k in recs[0].observables:
        (ref["observable_mean"][k], ref["observable_var"][k],
         ref["observable_stderr"][k]) = moments([r.observables[k] for r in recs])
    for k in recs[0].branch_weights:
        m, _, se = moments([r.branch_weights[k] for r in recs])
        ref["branch_weight_mean"][k], ref["branch_weight_stderr"][k] = m, se
    for k in recs[0].entropy_series:
        total = np.zeros(len(recs[0].times))
        for r in recs:
            total += r.entropy_series[k]
        ref["entropy_mean"][k] = total / n
    outcomes = {}
    for r in recs:
        label = r.collapsed_branch or "uncollapsed"
        outcomes[label] = outcomes.get(label, 0) + 1
    ref["outcome_counts"] = dict(sorted(outcomes.items()))
    drift = np.asarray([r.norm_drift_mean for r in recs])
    ref["norm_drift_mean"] = float(drift.mean())
    ref["norm_drift_stderr"] = float(np.std(drift, ddof=1) / np.sqrt(n))
    ref["mean_density"] = None
    if record_density:
        n_rec, d = recs[0].states.shape
        density = np.zeros((n_rec, d, d), dtype=complex)
        for r in recs:
            density += np.einsum("ti,tj->tij", r.states, r.states.conj())
        ref["mean_density"] = density / n
    return ref


def stats_scenario(name: str):
    """A scenario whose ensemble fills every EnsembleStats field: real,
    complex and width observables, three branches of which several
    collapse, an entropy and a tracked quadratic variation."""
    if name != "random":
        d = builtin_scenario(name).to_dict()
        d["plan"].update({"n_steps": 600, "record_every": 50})
        return realize(from_dict(d))
    rng = np.random.default_rng(12)
    space = cl.CompositeSpace([cl.discrete("a", 2), cl.discrete("b", 3)])
    d = space.total_dim
    h = random_hermitian(rng, d, 0.2)
    v = np.diag(rng.uniform(-3.0, 3.0, d)).astype(complex)
    plan = IntegrationPlan(dt=5e-3, n_steps=300, seed=0, record_every=30,
                           collapse_threshold=0.95)
    return make_realized(
        space, h, v, random_state(rng, d), plan,
        observables=[Observable("h", AssembledOperator(space, h)),
                     Observable("shift", AssembledOperator(
                         space, np.roll(np.eye(d), 1, axis=0).astype(complex),
                         hermitian=False)),
                     Observable("v_width", AssembledOperator(space, v), kind="width")],
        branches=[Branch("lo", np.arange(2)), Branch("mid", np.arange(2, 4)),
                  Branch("hi", np.arange(4, d))],
        bipartitions=[cl.Bipartition.of(space, {"a"})],
        qv_tracks=["h"],
    )


@pytest.mark.parametrize("name", ["random", "qnd-two-level"])
def test_ensemble_stats_match_seed_order_reference(monkeypatch, name):
    # One chunk: every field is the record-by-record reduction, bit for
    # bit.  Several chunks (of 2 rows, the last of 1) reassociate the sums
    # and merge the chunks' centered sums of squares.  They keep every
    # series of qnd-two-level, whose operators are diagonal; a CSR product
    # changes a batch of one by rounding.
    sc = stats_scenario(name)
    stats, recs = run_ensemble(sc, 9, base_seed=20, record_density=True,
                               keep_records=True)
    ref = reference_stats(recs, record_density=True)
    assert len(ref["outcome_counts"]) >= 2
    assert all(ref[k] for k in ref if isinstance(ref[k], dict))
    assert np.array_equal(stats.times, recs[0].times)
    assert (stats.n_traj, stats.base_seed) == (9, 20)
    assert stats.outcome_counts == ref.pop("outcome_counts")
    for key, expected in ref.items():
        got = getattr(stats, key)
        if isinstance(expected, dict):
            assert got.keys() == expected.keys(), key
            for k in expected:
                assert np.array_equal(got[k], expected[k]), (key, k)
        else:
            assert type(got) is type(expected) and np.array_equal(got, expected), key

    monkeypatch.setattr(integrator, "BATCH_AMPLITUDES", 2 * sc.space.total_dim)
    chunked, chunked_recs = run_ensemble(sc, 9, base_seed=20, record_density=True,
                                         keep_records=True)
    if name == "random":
        for one, rec in zip(chunked_recs, recs):
            assert_same_trajectory(one, rec)
    else:
        assert [trajectory_csv_text(r) for r in chunked_recs] == [
            trajectory_csv_text(r) for r in recs]
    ref = reference_stats(chunked_recs, record_density=True)
    assert chunked.outcome_counts == ref.pop("outcome_counts")
    for key, expected in ref.items():
        got = getattr(chunked, key)
        pairs = ([(got[k], expected[k]) for k in expected]
                 if isinstance(expected, dict) else [(got, expected)])
        for a, b in pairs:
            assert np.allclose(a, b, rtol=0.0, atol=1e-12), key


def test_unkept_ensemble_builds_no_records(monkeypatch):
    sc = stats_scenario("qnd-two-level")
    kept, _ = run_ensemble(sc, 6, base_seed=1, keep_records=True)

    def refuse(*args, **kwargs):
        raise AssertionError("built a per-trajectory object")

    monkeypatch.setattr(integrator, "TrajectoryRecord", refuse)
    monkeypatch.setattr(integrator, "StateVector", refuse)
    stats, recs = run_ensemble(sc, 6, base_seed=1)
    assert recs == []
    assert stats.outcome_counts == kept.outcome_counts
    assert np.array_equal(stats.observable_mean["sz"], kept.observable_mean["sz"])
    with pytest.raises(AssertionError, match="per-trajectory"):
        run_ensemble(sc, 6, base_seed=1, keep_records=True)


@pytest.mark.parametrize("rows_per_chunk", [None, 300])
def test_ensemble_stderr_vanishes_where_every_trajectory_agrees(monkeypatch,
                                                               rows_per_chunk):
    # Every trajectory starts in psi0, so at t = 0 each series has no
    # spread.  A one-pass variance, sum_sq / n - mean^2, kept a rounding
    # residue there that the square root lifted to a standard error of
    # 2.6e-9 on sz; the two-pass variance leaves rounding only.
    d = builtin_scenario("qnd-two-level").to_dict()
    d["plan"].update({"n_steps": 100, "record_every": 50})
    sc = realize(from_dict(d))
    if rows_per_chunk is not None:
        monkeypatch.setattr(integrator, "BATCH_AMPLITUDES",
                            rows_per_chunk * sc.space.total_dim)
    stats, _ = run_ensemble(sc, 2000, base_seed=0)
    errors = [*stats.observable_stderr.values(), *stats.branch_weight_stderr.values()]
    assert max(se[0] for se in errors) < 1e-15
    assert min(se[-1] for se in errors) > 1e-3


def _is_series_name(name: str) -> bool:
    """What the config accepts as an observable or audit name."""
    return not (name in ("t", "norm_pre") or "." in name
                or name.startswith(("branch_", "entropy_", "qv_"))
                or name.endswith(("_re", "_im")))


_names = st.text(min_size=1, max_size=8)
_series_names = _names.filter(_is_series_name)
# a complex series may not be named like the stem of a column prefix, and a
# quasimomentum audit adds one complex marginal '<audit>.<subsystem label>'
_observables = (st.tuples(_series_names, st.just(False))
                | st.tuples(_series_names.filter(
                    lambda n: n not in ("branch", "entropy", "qv")), st.just(True))
                | st.tuples(st.tuples(_series_names, _names).map(".".join), st.just(True)))


class TestTable:
    @settings(max_examples=200, deadline=None)
    @given(observables=st.lists(_observables, unique_by=lambda o: o[0], max_size=5),
           branches=st.lists(_names, unique=True, max_size=3),
           entropies=st.lists(st.lists(_names, min_size=1, max_size=2).map("+".join),
                              unique=True, max_size=2),
           qvs=st.lists(_series_names, unique=True, max_size=2))
    def test_column_roles_invert_column_names(self, observables, branches, entropies,
                                              qvs):
        names = _column_names(observables, branches, entropies, qvs)
        roles = _column_roles(names)
        assert (names[roles.t], names[roles.norm_pre]) == ("t", "norm_pre")
        assert [(name, im is not None) for name, _, im in roles.observables] == observables
        for name, re, im in roles.observables:
            assert names[re] == (name if im is None else f"{name}_re")
            assert im is None or names[im] == f"{name}_im"
        for prefix, keys, group in (("branch_", branches, roles.branches),
                                    ("entropy_", entropies, roles.entropies),
                                    ("qv_", qvs, roles.qvs)):
            assert [key for key, _ in group] == keys
            assert all(names[i] == prefix + key for key, i in group)

    def test_kept_records_are_views_of_their_chunk(self):
        sc = realize(builtin_scenario("two-particle-collision"))
        sc.plan = IntegrationPlan(dt=sc.plan.dt, n_steps=20, record_every=10)
        seeds = [4, 5, 6]
        chunk = integrator._chunk_block(sc, len(seeds), False)
        integrator._run_chunk_batched(sc, seeds, chunk)
        records = integrator._records(sc, seeds, chunk)
        assert chunk.table.shape == (3, len(chunk.columns), 3)
        complex_names = {n[:-3] for n in chunk.columns if n.endswith("_im")}
        assert complex_names and "energy" in records[0].qv_series
        for i, rec in enumerate(records):
            assert rec.columns == chunk.columns and rec.table.base is chunk.table
            assert np.shares_memory(rec.table, chunk.table[i])
            real = [rec.times, rec.norms_pre_renorm,
                    *(v for k, v in rec.observables.items() if k not in complex_names),
                    *rec.branch_weights.values(), *rec.entropy_series.values(),
                    *rec.qv_series.values()]
            assert len(real) == len(rec.columns) - len(complex_names) * 2
            assert all(np.shares_memory(series, rec.table) for series in real)
        _, kept = run_ensemble(sc, 3, 4, keep_records=True)
        assert kept[0].table.base is kept[2].table.base
        assert kept[0].table.base.shape == chunk.table.shape

    def test_record_refuses_a_table_unlike_its_columns(self):
        plan = IntegrationPlan(dt=1e-3, n_steps=4)
        columns = ("t", "norm_pre", "x")
        table = np.ones((3, plan.n_records))
        TrajectoryRecord(columns, table, None, 0)
        for bad in (table[:2], table[:, None], np.ones((4, plan.n_records)),
                    table[:, :0]):
            with pytest.raises(DimensionError, match="3 columns"):
                TrajectoryRecord(columns, bad, None, 0)
        with pytest.raises(DimensionError, match="no t column"):
            TrajectoryRecord(("u", "norm_pre", "x"), table, None, 0)


def assert_identical_stats(a, b):
    """Every field of two EnsembleStats equal, bit for bit."""
    for key, x in vars(a).items():
        y = getattr(b, key)
        if isinstance(x, dict):
            assert x.keys() == y.keys(), key
            for k in x:
                assert np.array_equal(x[k], y[k]), (key, k)
        else:
            assert np.array_equal(x, y), key


def short_qnd(n_steps: int = 200):
    d = builtin_scenario("qnd-two-level").to_dict()
    d["plan"].update({"n_steps": n_steps, "record_every": 50})
    return realize(from_dict(d))


def use_cpus(monkeypatch, n: int) -> None:
    """Make ``n`` CPUs usable as far as run_ensemble can tell."""
    monkeypatch.setattr(integrator.os, "sched_getaffinity", lambda pid: set(range(n)))


def forked_and_serial(monkeypatch, sc, n: int, base_seed: int,
                      record_density: bool = False):
    """Run ``n`` trajectories of ``sc`` on two CPUs, then on one, each kept
    and unkept.  Asserts that ``_processes`` chose 2, 2, 1, 1, that no
    worker is left, that every run gives the same statistics bit for bit
    and that the forked run's kept records are rows of one block, equal to
    the one-CPU records bit for bit.  Returns the one-CPU statistics."""
    processes = []
    count = integrator._processes

    def spy(n_chunks):
        processes.append(count(n_chunks))
        return processes[-1]

    monkeypatch.setattr(integrator, "_processes", spy)
    results = {}
    for cpus in (2, 1):
        use_cpus(monkeypatch, cpus)
        results[cpus] = [run_ensemble(sc, n, base_seed=base_seed,
                                      record_density=record_density, keep_records=keep)
                         for keep in (True, False)]
    assert processes == [2, 2, 1, 1]
    assert multiprocessing.active_children() == []
    (forked, forked_recs), (forked_unkept, _) = results[2]
    (serial, serial_recs), (serial_unkept, _) = results[1]
    for stats in (forked, forked_unkept, serial_unkept):
        assert_identical_stats(stats, serial)
    assert [r.seed for r in forked_recs] == [base_seed + i for i in range(n)]
    block = forked_recs[0].table.base
    assert block.shape[0] == n
    for one, rec in zip(serial_recs, forked_recs):
        assert rec.table.base is block
        assert np.array_equal(one.table, rec.table)
        assert np.array_equal(one.states, rec.states)
        assert np.array_equal(one.final_state.amplitudes, rec.final_state.amplitudes)
        assert (one.collapse_step, one.collapsed_branch, one.norm_drift_mean) == (
            rec.collapse_step, rec.collapsed_branch, rec.norm_drift_mean)
    return serial


@pytest.fixture
def deadline():
    """Fail a test that has not finished in 60 s, rather than wait on a
    stalled worker forever: its workers are killed, so that no join hangs."""
    def stalled(signum, frame):
        for worker in multiprocessing.active_children():
            worker.kill()
        raise TimeoutError("the test did not finish in 60 s")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("deadline")
class TestForkedChunks:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 100_000), d=st.integers(1, 1 << 16))
    def test_chunk_sizes_are_balanced(self, n, d):
        sizes = integrator._chunk_sizes(n, d)
        cap = max(1, integrator.BATCH_AMPLITUDES // d)
        assert sum(sizes) == n and len(sizes) == -(-n // cap)
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] <= cap and sizes[0] - sizes[-1] <= 1

    @pytest.mark.parametrize("n, d, sizes", [
        (2000, 4, [1000, 1000]),  # qnd-two-level
        (2100, 4, [700, 700, 700]),
        (64, 96, [32, 32]),  # stern-gerlach
        (1, 4096, [1]),  # one collision trajectory
        (9, 4096, [1] * 9),
    ])
    def test_chunk_sizes_depend_on_n_and_d_only(self, n, d, sizes):
        assert integrator._chunk_sizes(n, d) == sizes

    def test_ensemble_runs_those_chunks_whatever_the_cpus(self, monkeypatch):
        sc = short_qnd(50)
        seen = []
        run_chunk = integrator._run_chunk_batched

        def spy(scenario, seeds, out):
            seen.append(len(seeds))
            return run_chunk(scenario, seeds, out)

        monkeypatch.setattr(integrator, "_run_chunk_batched", spy)
        expected = integrator._chunk_sizes(2100, sc.space.total_dim)
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            for keep in (False, True):
                run_ensemble(sc, 2100, keep_records=keep)
                # the spy sees the chunks of this process: every cpus-th
                assert seen == expected[::cpus]
                seen.clear()

    def test_workers_give_what_one_cpu_gives(self, monkeypatch):
        # about a quarter of the rows collapse
        serial = forked_and_serial(monkeypatch, short_qnd(600), 2100, base_seed=40,
                                   record_density=True)
        assert len(serial.outcome_counts) == 3

    def test_workers_give_what_one_cpu_gives_with_a_csr_hamiltonian(self, monkeypatch):
        # stern-gerlach: H applied in CSR, real observables and an entropy
        # at d = 96; its 64 trajectories are two chunks
        d = builtin_scenario("stern-gerlach").to_dict()
        d["plan"].update({"n_steps": 300, "record_every": 50})
        sc = realize(from_dict(d))
        assert sc.hamiltonian._diagonal is None and sc.space.total_dim == 96
        serial = forked_and_serial(monkeypatch, sc, 64, base_seed=7)
        assert serial.observable_mean and serial.entropy_mean
        assert all(not np.iscomplexobj(m) for m in serial.observable_mean.values())

    @pytest.mark.parametrize("keep", [False, True])
    def test_block_holds_the_chunks_in_flight_unless_kept(self, monkeypatch, keep):
        sc = short_qnd()
        monkeypatch.setattr(integrator, "BATCH_AMPLITUDES", 2 * sc.space.total_dim)
        rows = []
        block = integrator._chunk_block

        def spy(scenario, n, record_states):
            rows.append(n)
            return block(scenario, n, record_states)

        monkeypatch.setattr(integrator, "_chunk_block", spy)
        results = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            results.append(run_ensemble(sc, 12, base_seed=3, keep_records=keep)[0])
        # six chunks of two rows: one chunk per process, or every row kept
        assert rows == ([12, 12] if keep else [2, 4])
        assert_identical_stats(*results)

    def test_more_workers_than_cores_reusing_rows(self, monkeypatch):
        # 4 processes, 24 chunks of 5 rows in 4 chunks' rows: a worker that
        # wrote over its rows before they were folded would change the
        # statistics, and a worker left waiting would stall the ensemble
        sc = short_qnd(600)
        monkeypatch.setattr(integrator, "BATCH_AMPLITUDES", 5 * sc.space.total_dim)
        use_cpus(monkeypatch, 4)
        forked, _ = run_ensemble(sc, 120, base_seed=8)
        assert multiprocessing.active_children() == []
        use_cpus(monkeypatch, 1)
        serial, _ = run_ensemble(sc, 120, base_seed=8)
        assert len(serial.outcome_counts) == 3
        assert_identical_stats(forked, serial)

    @pytest.mark.parametrize("chunk, fault", [
        (0, "raise"),  # this process's first chunk: the worker waits or runs on
        (1, "raise"),  # a worker's first chunk
        (3, "raise"),  # a worker's chunk after this process released its rows
        (2, "raise"),  # a later chunk of this process
        (1, "exit"),  # a worker that dies without a word
    ])
    def test_a_failed_chunk_fails_the_ensemble_and_leaves_no_worker(
            self, monkeypatch, chunk, fault):
        sc = short_qnd()
        sizes = integrator._chunk_sizes(3100, sc.space.total_dim)
        assert len(sizes) == 4  # chunks 0 and 2 here, 1 and 3 in the worker
        failing = 5 + sum(sizes[:chunk])
        run_chunk = integrator._run_chunk_batched

        def faulty(scenario, seeds, out):
            if seeds[0] == failing:
                if fault == "exit":
                    os._exit(3)
                raise NumericalError(f"chunk from seed {seeds[0]} failed")
            return run_chunk(scenario, seeds, out)

        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(integrator, "_run_chunk_batched", faulty)
        error, match = ((NumericalError, f"^chunk from seed {failing} failed$")
                        if fault == "raise" else
                        (ChildProcessError, "exited with code 3 before chunk 1"))
        for keep in (False, True):
            with pytest.raises(error, match=match):
                run_ensemble(sc, 3100, base_seed=5, keep_records=keep)
            assert multiprocessing.active_children() == []
