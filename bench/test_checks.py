"""Tests of the benchmark's output checks: each passes on the program's
real output and fails on a deliberately wrong input.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from collapse_lab import builtin_scenario, realize, run_trajectory  # noqa: E402
from collapse_lab.config import from_dict  # noqa: E402
from workloads import WORKLOADS, _branch_probability  # noqa: E402


def short(config_raw: dict, n_steps: int, record_every: int):
    raw = {**config_raw, "plan": {**config_raw["plan"], "n_steps": n_steps,
                                  "record_every": record_every}}
    config = from_dict(raw)
    return config, realize(config)


@pytest.fixture(scope="module")
def collision():
    config, sc = short(WORKLOADS["collision-run"].raw_config(), 500, 50)
    return sc, run_trajectory(sc, seed=3)


def test_born_target_from_config_amplitudes():
    config = builtin_scenario("qnd-two-level")
    assert _branch_probability(config, "up") == pytest.approx(0.3, abs=1e-15)


def test_born_frequency_fails_on_wrong_target():
    assert checks.born_frequency(600, 2000, 0.3) == []
    assert checks.born_frequency(600, 2000, 0.35)


def test_martingale_mean_fails_on_shifted_mean():
    se = np.full(51, 0.02)
    se[0] = 0.0
    mean = np.full(51, -0.4) + 0.5 * se
    assert checks.martingale_mean(mean, se, -0.4, 2000) == []
    mean[30] += 6 * se[30]
    assert checks.martingale_mean(mean, se, -0.4, 2000)


def test_weights_and_norms_fail_off_unit():
    rng = np.random.default_rng(0)
    psi = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    weights = np.array([np.abs(psi[:, :2]) ** 2 @ np.ones(2),
                        np.abs(psi[:, 2:]) ** 2 @ np.ones(2)])[:, :, None]
    assert checks.unit_norms(psi) == []
    assert checks.weights_partition(weights, 4) == []
    assert checks.unit_norms(psi * (1 + 1e-12))
    weights[0, 3, 0] += 1e-12
    assert checks.weights_partition(weights, 4)


def test_round_trip_fails_on_one_ulp():
    series = {"t": np.linspace(0, 1, 11), "sz": np.linspace(-0.4, 1, 11)}
    copy = {k: v.copy() for k, v in series.items()}
    assert checks.series_round_trip(series, copy, 1) == []
    changed = {k: v.copy() for k, v in series.items()}
    changed["sz"][4] = np.nextafter(changed["sz"][4], 2.0)
    assert checks.series_round_trip(series, changed, 1)


def test_shift_checks_fail_out_of_sector(collision):
    sc, rec = collision
    dims = sc.space.dims
    assert checks.shift_series(rec.observables["tshift"]) == []
    assert checks.shift_sector(rec.final_state.amplitudes, dims, [0, 1], 0) == []
    # a momentum kick on the particle alone moves the state to sector 1
    kick = np.exp(2j * np.pi * np.arange(dims[0]) / dims[0])
    pushed = (rec.final_state.amplitudes.reshape(dims) * kick[:, None]).reshape(-1)
    assert checks.shift_sector(pushed, dims, [0, 1], 0)
    # a sliver of another sector: |T psi - psi| of order 1e-6
    mixed = rec.final_state.amplitudes + 1e-6 * pushed
    assert checks.shift_sector(mixed / np.linalg.norm(mixed), dims, [0, 1], 0)
    assert checks.shift_series(rec.observables["tshift"] * np.exp(1e-8j * rec.times))


def test_entropy_checks_fail_on_perturbed_entropy(collision):
    sc, rec = collision
    series = rec.entropy_series["particle"]
    own, bound = checks.schmidt_entropy(rec.final_state.amplitudes, sc.space.dims, [0])
    assert checks.entropy_matches("last", float(series[-1]), own, bound) == []
    assert checks.entropy_matches("last", float(series[-1]) + 1e-10, own, bound)
    assert checks.entropy_rises(series, bound) == []
    assert checks.entropy_rises(np.full(5, series[0]), bound)


def test_symmetry_checks_fail_on_pointer_offset():
    raw = builtin_scenario("stern-gerlach").to_dict()
    raw["plan"] = {**raw["plan"], "n_steps": 200, "record_every": 20}
    offset = json.loads(json.dumps(raw))
    offset["initial_state"]["factors"]["pointer"]["gaussian"]["center"] = 0.5
    for cfg_raw, symmetric in ((raw, True), (offset, False)):
        sc = realize(from_dict(cfg_raw))
        rec = run_trajectory(sc, seed=4)
        x_max = float(np.max(np.abs(sc.space.subsystem("pointer").positions())))
        d = sc.space.total_dim
        failures = (
            checks.symmetric_zero("sz", rec.observables["sz"], 0.0,
                                  checks.symmetry_bound(200, d, 1.0))
            + checks.symmetric_zero("pointer_x", rec.observables["pointer_x"], 0.0,
                                    checks.symmetry_bound(200, d, x_max)))
        assert (failures == []) == symmetric


def test_audit_checks(collision):
    from collapse_lab import audit_run, realize_audits

    sc, rec = collision
    quantities = realize_audits(sc.config, sc.space, sc.hamiltonian)
    report = audit_run([rec], quantities, sc)
    assert checks.audit_quantity(report, "tshift", "exact") == []
    assert checks.audit_verdict(report) == []
    assert checks.audit_quantity(report, "energy", "exact")
    report.quantities[0] = replace(report.quantities[0], passed=False)
    assert checks.audit_verdict(report)


def test_benchmark_refuses_to_run_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "collision-run",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
