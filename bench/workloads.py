"""The three benchmark workloads and the rounds that drive them.

A round is one workload run: set-up (load the config and realize it,
``SETUP_REPS`` times), the run or ensemble command (integrate, build the
manifest, persist), the audit command (load the manifest, realize, load
the CSVs, ``audit_run``), and the output checks.  Every call goes through
collapse-lab's public functions and is timed from outside.  Traced rounds
add probes that time single layers on the round's own state.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from collapse_lab import (
    audit_run,
    beta_apply,
    builtin_scenario,
    realize,
    realize_audits,
    run_ensemble,
    run_trajectory,
    schmidt,
    vn_entropy,
)
from collapse_lab.config import from_dict
from collapse_lab.conservation import classify_quantity
from collapse_lab.errors import AuditRefusal, PersistError
from collapse_lab.persist import (
    build_manifest,
    load_manifest,
    load_trajectory_csv,
    persist_run,
)

import checks

SETUP_REPS = 7
PROBE_BATCHES = 7
PROBE_BATCH_S = 0.02  # target length of one probe batch
RECORD_DENSITY = 10  # record-cost probe: this many times the workload's records
SEED_STRIDE = 1000  # rounds per benchmark seed before base seeds could collide


@dataclass
class Workload:
    name: str
    scenario: str
    n_traj: int | None  # None: a single `run` trajectory
    audit_reps: int = 1  # audits per round; more where one audit is short
    config_overrides: dict = field(default_factory=dict)
    tamper: bool = False  # also audit a tampered copy of a stored run

    def raw_config(self) -> dict | None:
        if not self.config_overrides:
            return None
        raw = builtin_scenario(self.scenario).to_dict()
        for section, values in self.config_overrides.items():
            raw[section] = {**raw[section], **values}
        return raw

    def trajectory_seeds(self, seed: int, rnd: int) -> list[int]:
        """Disjoint seed ranges for every (benchmark seed, round) pair."""
        n = self.n_traj or 1
        base = (seed * SEED_STRIDE + rnd) * n
        return list(range(base, base + n))


WORKLOADS = {
    w.name: w for w in (
        Workload("qnd-ensemble", "qnd-two-level", 2000),
        Workload("sg-ensemble", "stern-gerlach", 64, audit_reps=12),
        Workload("collision-run", "two-particle-collision", None, audit_reps=7,
                 config_overrides={"initial_state": {"shift_sector": 0}},
                 tamper=True),
    )
}


@dataclass
class RoundResult:
    setup_s: list[float]
    run_s: float
    integrate_s: float
    traj_steps: int
    audit_s: list[float]
    attempted: int
    failed: int
    failures: list[str]


class Runner:
    """Runs rounds of one workload; holds the state they share."""

    def __init__(self, workload: Workload, out_root: Path, tracer):
        self.wl = workload
        self.out = out_root / workload.name
        self.tr = tracer
        self.raw = workload.raw_config()
        self.tamper_fixture = self._make_tamper_fixture() if workload.tamper else None

    # -- the commands ---------------------------------------------------

    def load_config(self):
        if self.raw is None:
            return self.tr.call("scenarios.builtin_scenario", builtin_scenario,
                                self.wl.scenario)
        return self.tr.call("config.from_dict", from_dict, self.raw)

    def setup(self):
        times = []
        for _ in range(SETUP_REPS):
            with self.tr.span("setup"):
                t0 = time.perf_counter()
                config = self.load_config()
                scenario = self.tr.call("scenarios.realize", realize, config)
                times.append(time.perf_counter() - t0)
        return config, scenario, times

    def integrate(self, scenario, seeds):
        if self.wl.n_traj is None:
            record = self.tr.call("integrator.run_trajectory", run_trajectory,
                                  scenario, seed=seeds[0])
            return None, [record]
        return self.tr.call("integrator.run_ensemble", run_ensemble, scenario,
                            self.wl.n_traj, seeds[0], keep_records=True)

    def persist(self, config, seeds, stats, records, run_dir):
        kind = "trajectory" if self.wl.n_traj is None else "ensemble"
        manifest = self.tr.call("persist.build_manifest", build_manifest,
                                config, seeds, kind)
        return self.tr.call("persist.persist_run", persist_run, records, manifest,
                            run_dir, stats=stats)

    def audit(self, run_dir: Path):
        """What `collapse-lab audit --run-dir` does, through public calls."""
        tr = self.tr
        manifest = tr.call("persist.load_manifest", load_manifest, run_dir)
        config = tr.call("config.from_dict", from_dict, manifest.config)
        scenario = tr.call("scenarios.realize", realize, config)
        quantities = tr.call("scenarios.realize_audits", realize_audits, config,
                             scenario.space, scenario.hamiltonian)
        stored = []
        for meta in manifest.trajectories:
            path = run_dir / meta["file"]
            if not path.exists():
                raise PersistError(f"missing trajectory artifact {path}")
            stored.append(tr.call("persist.load_trajectory_csv",
                                  load_trajectory_csv, path, meta))
        report = tr.call("conservation.audit_run", audit_run, stored, quantities,
                         scenario)
        (run_dir / "audit.json").write_text(report.to_json() + "\n", encoding="utf-8")
        return report, stored

    # -- one round --------------------------------------------------------

    def round(self, seed: int, rnd: int) -> tuple[RoundResult, dict]:
        config, scenario, setup_s = self.setup()
        seeds = self.wl.trajectory_seeds(seed, rnd)
        run_dir = self.out / f"seed{seed}-r{rnd}"
        shutil.rmtree(run_dir, ignore_errors=True)

        with self.tr.span("run"):
            t0 = time.perf_counter()
            stats, records = self.integrate(scenario, seeds)
            t1 = time.perf_counter()
            paths = self.persist(config, seeds, stats, records, run_dir)
            t2 = time.perf_counter()
        audit_s = []
        for _ in range(self.wl.audit_reps):
            with self.tr.span("audit"):
                t3 = time.perf_counter()
                report, stored = self.audit(run_dir)
                audit_s.append(time.perf_counter() - t3)

        attempted, failed = SETUP_REPS + 1 + self.wl.audit_reps, 0
        if self.tamper_fixture is not None:
            attempted += 1
            failed += not self.tamper_refused()

        with self.tr.span("checks"):
            failures = CHECKS[self.wl.name](config, scenario, stats, records,
                                            stored, report)
        plan = scenario.plan
        result = RoundResult(
            setup_s=setup_s,
            run_s=t2 - t0,
            integrate_s=t1 - t0,
            traj_steps=len(records) * plan.n_steps,
            audit_s=audit_s,
            attempted=attempted,
            failed=failed,
            failures=failures,
        )
        state = {"config": config, "scenario": scenario, "records": records,
                 "seeds": seeds, "run_dir": run_dir, "persist_files": len(paths),
                 "persist_bytes": sum(Path(p).stat().st_size for p in paths.values())}
        return result, state

    def cleanup(self, state: dict) -> None:
        shutil.rmtree(state["run_dir"], ignore_errors=True)

    # -- the failing operation -------------------------------------------

    def _make_tamper_fixture(self) -> Path:
        """A short stored run with a fixed seed, so the input of the tamper
        audit does not depend on the benchmark seed."""
        raw = self.raw or builtin_scenario(self.wl.scenario).to_dict()
        raw = {**raw, "plan": {**raw["plan"], "n_steps": 1000, "record_every": 250}}
        config = from_dict(raw)
        record = run_trajectory(realize(config), seed=0)
        fixture = self.out / "tamper-fixture"
        shutil.rmtree(fixture, ignore_errors=True)
        persist_run([record], build_manifest(config, [0], "trajectory"), fixture)
        return fixture

    def tamper_refused(self) -> bool:
        """Change one value the audit does not read (``x1`` in the last
        row) in a copy of a stored run and audit the copy.  An audit that
        checks the manifest against the artifacts refuses; this one passes."""
        copy = self.out / "tampered"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(self.tamper_fixture, copy)
        csv = next(copy.glob("trajectory_seed*.csv"))
        lines = csv.read_text(encoding="utf-8").splitlines()
        col = lines[0].split(",").index("x1")
        row = lines[-1].split(",")
        row[col] = repr(float(row[col]) + 0.5)
        lines[-1] = ",".join(row)
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            with self.tr.span("tamper-audit"):
                report, _ = self.audit(copy)
        except (PersistError, AuditRefusal):
            return True
        finally:
            shutil.rmtree(copy, ignore_errors=True)
        return not report.passed

    # -- probes of single layers (traced rounds only) --------------------

    def probe(self, state: dict) -> dict[str, float]:
        sc = state["scenario"]
        records = state["records"]
        psi = records[0].final_state
        part = sc.bipartitions[0]
        out = {
            "operators.h_apply_us": self._per_call("operators.AssembledOperator.apply",
                                                   sc.hamiltonian.apply, psi.amplitudes),
            "operators.beta_apply_us": self._per_call("operators.beta_apply",
                                                      beta_apply, sc.collapse_op, psi),
        }
        result = schmidt(psi, part)
        out["entanglement.entropy_us"] = (
            self._per_call("entanglement.schmidt", schmidt, psi, part)
            + self._per_call("entanglement.vn_entropy", vn_entropy, result))

        quantities = realize_audits(state["config"], sc.space, sc.hamiltonian)

        def classify_all():
            for q in quantities:
                classify_quantity(q, sc.hamiltonian, sc.collapse_op, sc.psi0)

        out["conservation.classify_s"] = self._per_call(
            "conservation.classify_quantity", classify_all) * 1e-6

        # Recording cost.  The difference between the round's integration
        # and one with a single final record is below the run-to-run noise,
        # so record RECORD_DENSITY times more often, subtract the
        # final-record-only time, and scale to the workload's record count.
        plan = sc.plan
        dense = replace(plan, record_every=plan.record_every // RECORD_DENSITY)
        final_only = replace(plan, record_every=plan.n_steps)
        times = {}
        for name, p in (("dense", dense), ("final-only", final_only)):
            with self.tr.span(f"probe.record-{name}"):
                t0 = time.perf_counter()
                self.integrate(replace(sc, plan=p), state["seeds"])
                times[name] = time.perf_counter() - t0
        out["integrator.record_s"] = ((times["dense"] - times["final-only"])
                                      * (plan.n_records - 2) / (dense.n_records - 2))
        return out

    def _per_call(self, name: str, fn, *args) -> float:
        """Median over batches of the mean time of one call, in microseconds."""
        t0 = time.perf_counter()
        fn(*args)
        single = max(time.perf_counter() - t0, 1e-7)
        calls = max(1, int(PROBE_BATCH_S / single))
        per_call = []
        for _ in range(PROBE_BATCHES):
            with self.tr.span(name, calls=calls):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn(*args)
                per_call.append((time.perf_counter() - t0) / calls)
        return float(np.median(per_call)) * 1e6


# ---------------------------------------------------------------------------
# output checks per workload
# ---------------------------------------------------------------------------

def _branch_probability(config, label: str) -> float:
    """Weight of a branch in the config's product-state amplitudes."""
    branch = next(b for b in config.branches if b["label"] == label)
    amps = np.array([complex(re, im) for re, im in
                     config.initial_state["factors"][branch["subsystem"]]])
    p = np.abs(amps) ** 2
    return float(p[list(branch["sites"])].sum() / p.sum())


def _memory_series(rec) -> dict:
    out = {"t": rec.times, "norm_pre": rec.norms_pre_renorm}
    for group, prefix in ((rec.observables, ""), (rec.branch_weights, "branch_"),
                          (rec.entropy_series, "entropy_"), (rec.qv_series, "qv_")):
        out.update({prefix + k: v for k, v in group.items()})
    return out


def check_qnd(config, sc, stats, records, stored, report) -> list[str]:
    n = len(records)
    p_up = _branch_probability(config, "up")
    p_down = _branch_probability(config, "down")
    sz0 = p_up - p_down  # Pauli sigma_z: +1 on up, -1 on down
    labels = [b.label for b in sc.branches]
    weights = np.array([[r.branch_weights[b] for r in records] for b in labels])
    failures = []
    failures += checks.born_frequency(stats.outcome_counts.get("up", 0), n, p_up)
    failures += checks.martingale_mean(stats.observable_mean["sz"],
                                       stats.observable_stderr["sz"], sz0, n)
    failures += checks.weights_partition(weights, sc.space.total_dim)
    failures += checks.unit_norms(np.array([r.final_state.amplitudes for r in records]))
    failures += checks.audit_verdict(report, statistical_retested=True)
    for rec, st in zip(records, stored):
        failures += checks.series_round_trip(_memory_series(rec), _memory_series(st),
                                             rec.seed)
    return failures


def check_sg(config, sc, stats, records, stored, report) -> list[str]:
    d = sc.space.total_dim
    n_steps = sc.plan.n_steps
    x_max = float(np.max(np.abs(sc.space.subsystem("pointer").positions())))
    unit = checks.symmetry_bound(n_steps, d, 1.0)
    failures = []
    for rec in records:
        failures += checks.symmetric_zero("<sz>", rec.observables["sz"], 0.0, unit)
        failures += checks.symmetric_zero(
            "<pointer_x>", rec.observables["pointer_x"], 0.0,
            checks.symmetry_bound(n_steps, d, x_max))
        failures += checks.symmetric_zero("weight of up", rec.branch_weights["up"],
                                          0.5, unit)
    failures += checks.audit_verdict(report)
    return failures


def check_collision(config, sc, stats, records, stored, report) -> list[str]:
    (rec,) = records
    dims = sc.space.dims
    lattice = [i for i, s in enumerate(sc.space.subsystems) if s.is_lattice]
    sector = config.initial_state["shift_sector"]
    part = sc.bipartitions[0]
    side_a = [i for i, s in enumerate(sc.space.subsystems) if s.label in part.side_a]
    series = rec.entropy_series[part.name()]
    failures = []
    failures += checks.shift_series(rec.observables["tshift"])
    failures += checks.shift_sector(rec.final_state.amplitudes, dims, lattice, sector)
    failures += checks.audit_quantity(report, "tshift", "exact")
    failures += checks.audit_verdict(report)
    s0, b0 = checks.schmidt_entropy(sc.psi0.amplitudes, dims, side_a)
    s1, b1 = checks.schmidt_entropy(rec.final_state.amplitudes, dims, side_a)
    failures += checks.entropy_matches("first record", float(series[0]), s0, b0)
    failures += checks.entropy_matches("last record", float(series[-1]), s1, b1)
    failures += checks.entropy_rises(series, b0)
    return failures


CHECKS = {
    "qnd-ensemble": check_qnd,
    "sg-ensemble": check_sg,
    "collision-run": check_collision,
}
