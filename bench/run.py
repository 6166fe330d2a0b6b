"""collapse-lab benchmark: one workload per invocation, as a closed loop.

    python3 bench/run.py --workload qnd-ensemble --seed 1 --seconds 30 --trace 0

Runs whole rounds of the workload one after another until ``--seconds``
have passed (at least one round), then prints every metric by name with
its unit, and as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` untraced rounds alternate
with traced rounds plus single-layer probes, the per-layer metrics come
from the traced rounds' spans, and the spans are written to
``.bench_runs/spans-<workload>-seed<n>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "traj_steps_per_s": "1/s",
    "audit_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "config.load_s": "s",
    "scenarios.realize_s": "s",
    "operators.h_apply_us": "us",
    "operators.beta_apply_us": "us",
    "integrator.integrate_s": "s",
    "integrator.step_us": "us",
    "integrator.record_s": "s",
    "entanglement.entropy_us": "us",
    "persist.write_s": "s",
    "persist.bytes": "bytes",
    "persist.files": "count",
    "persist.load_s": "s",
    "conservation.audit_s": "s",
    "conservation.classify_s": "s",
    "trace.overhead_pct": "%",
}


def _limit_threads() -> None:
    """One BLAS thread and the program's own process pool off.

    Must run before numpy is imported.  On a 2-vCPU machine with CPU
    steal, two OpenBLAS threads made the stern-gerlach ensemble slower
    and less steady than one (README, Environment).
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("COLLAPSE_LAB_THREADS", None)


def _import_program():
    if not (SRC / "collapse_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: no collapse-lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import collapse_lab

    if Path(collapse_lab.__file__).resolve().parent != (SRC / "collapse_lab").resolve():
        raise SystemExit(f"error: imported collapse_lab from {collapse_lab.__file__}, "
                         f"not from {SRC}")


def _median(values) -> float:
    return float(statistics.median(values))


def _end_to_end(results) -> dict[str, float]:
    return {
        "setup_s": _median([t for r in results for t in r.setup_s]),
        "run_s": _median([r.run_s for r in results]),
        "traj_steps_per_s": _median([r.traj_steps / r.integrate_s for r in results]),
        "audit_s": _median([t for r in results for t in r.audit_s]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(tracer, traced, untraced) -> dict[str, float]:
    """Medians over traced rounds of the span- and probe-derived figures."""
    rows = []
    for run_id, result, sizes, probe in traced:
        def spans(name, within):
            return tracer.durations(name, run_id, within)

        integrate = sum(spans("integrator.run_ensemble", "run")
                        + spans("integrator.run_trajectory", "run"))
        rows.append({
            "config.load_s": _median(spans("scenarios.builtin_scenario", "setup")
                                     + spans("config.from_dict", "setup")),
            "scenarios.realize_s": _median(spans("scenarios.realize", "setup")),
            "operators.h_apply_us": probe["operators.h_apply_us"],
            "operators.beta_apply_us": probe["operators.beta_apply_us"],
            "integrator.integrate_s": integrate,
            "integrator.step_us": integrate / result.traj_steps * 1e6,
            "integrator.record_s": probe["integrator.record_s"],
            "entanglement.entropy_us": probe["entanglement.entropy_us"],
            "persist.write_s": sum(spans("persist.persist_run", "run")),
            "persist.bytes": float(sizes["persist_bytes"]),
            "persist.files": float(sizes["persist_files"]),
            "persist.load_s": (sum(spans("persist.load_manifest", "audit")
                                   + spans("persist.load_trajectory_csv", "audit"))
                               / len(result.audit_s)),
            "conservation.audit_s": _median(spans("conservation.audit_run", "audit")),
            "conservation.classify_s": probe["conservation.classify_s"],
        })
    out = {name: _median([row[name] for row in rows]) for name in rows[0]}
    plain = _median([r.run_s + sum(r.audit_s) for r in untraced])
    spanned = _median([r.run_s + sum(r.audit_s) for _, r, _, _ in traced])
    out["trace.overhead_pct"] = 100.0 * (spanned - plain) / plain
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _limit_threads()
    _import_program()
    sys.path.insert(0, str(HERE))
    from spans import Tracer
    from workloads import WORKLOADS, Runner

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    tracer = Tracer(enabled=False)
    runner = Runner(WORKLOADS[args.workload], OUT, tracer)
    untraced, traced = [], []
    rnd = 0
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < args.seconds:
        # with tracing, each pair holds one untraced and one traced round,
        # in alternating order so that drift does not read as overhead
        kinds = [False, True] if args.trace else [False]
        if len(traced) % 2:
            kinds.reverse()
        for with_spans in kinds:
            gc.collect()  # start every round without the last round's garbage
            tracer.enabled = with_spans
            tracer.run_id = f"{args.workload}-seed{args.seed}-r{rnd}"
            with tracer.span("round"):
                result, state = runner.round(args.seed, rnd)
                if with_spans:
                    with tracer.span("probe"):
                        probe = runner.probe(state)
                    sizes = {k: state[k] for k in ("persist_bytes", "persist_files")}
                    traced.append((tracer.run_id, result, sizes, probe))
                else:
                    untraced.append(result)
            tracer.enabled = False
            runner.cleanup(state)
            rnd += 1

    everything = untraced + [r for _, r, _, _ in traced]
    failures = [f for r in everything for f in r.failures]
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    if args.trace:
        metrics = _per_layer(tracer, traced, untraced)
        units = PER_LAYER
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = _end_to_end(untraced)
        units = END_TO_END

    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    print(f"workload {args.workload}: {len(everything)} rounds, "
          f"{attempted} operations attempted, {failed} failed")
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
