"""Command-line interface.

Subcommands: ``run`` (single trajectory), ``ensemble``, ``analyze``
(packet closed forms with their quadrature oracle), ``entropy``
(two-branch closed forms), ``audit`` (conservation report from stored
trajectories), and ``scenario list/show``.

Exit codes: 0 success, 1 validation error, 2 runtime/numerical error,
3 audit assertion failure or refusal.  Error messages go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ScenarioConfig, config_hash, from_dict, load_config, serialize
from .conservation import _jsonify, audit_run
from .entanglement import two_branch_entropy_approx, two_branch_entropy_exact
from .errors import AuditRefusal, CollapseLabError, ConfigError, PersistError
from .integrator import ensemble_seeds, run_ensemble, run_trajectory
from .persist import (
    build_manifest,
    load_manifest,
    load_trajectory_csv,
    persist_run,
)
from .scenarios import (
    BUILTIN_DESCRIPTIONS,
    builtin_names,
    builtin_scenario,
    realize,
)
from .wavepacket import (
    PacketParams,
    PostSelection,
    dominant_momentum,
    packet_width,
    polar_decomposition,
    postselected_momentum_closed,
    postselected_momentum_quadrature,
)

__all__ = ["cli_run", "main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; our contract says 1
        raise ConfigError([message])


def _build_parser() -> _Parser:
    parser = _Parser(prog="collapse-lab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out-dir", default=None, help="artifact directory")
        p.add_argument("--quiet", action="store_true", help="suppress stdout chatter")

    p_run = sub.add_parser("run", help="integrate a single trajectory")
    p_run.add_argument("--config", required=True,
                       help="config file path or built-in scenario name")
    p_run.add_argument("--seed", type=int, default=None, help="override plan seed")
    add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_ens = sub.add_parser("ensemble", help="run an ensemble of trajectories")
    p_ens.add_argument("--config", required=True)
    p_ens.add_argument("--n-traj", type=int, required=True)
    p_ens.add_argument("--seed", type=int, default=None, help="override base seed")
    p_ens.add_argument("--keep-trajectories", action="store_true",
                       help="persist every trajectory (needed for audits)")
    add_common(p_ens)
    p_ens.set_defaults(func=_cmd_ensemble)

    p_an = sub.add_parser("analyze", help="packet closed forms and their oracle")
    p_an.add_argument("--a", type=float, required=True, help="initial half-width")
    p_an.add_argument("--m", type=float, default=1.0)
    p_an.add_argument("--hbar", type=float, default=1.0)
    p_an.add_argument("--t", type=float, required=True)
    p_an.add_argument("--x-f", type=float, default=1.0)
    p_an.add_argument("--epsilon", type=float, default=None,
                      help="detection half-window (default width/100)")
    p_an.add_argument("--sweep-xf", nargs=3, type=float, metavar=("MIN", "MAX", "N"),
                      default=None, help="emit a CSV sweep over x_f")
    add_common(p_an)
    p_an.set_defaults(func=_cmd_analyze)

    p_ent = sub.add_parser("entropy", help="two-branch entropy closed forms")
    group = p_ent.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta", type=float, help="1 - overlap")
    group.add_argument("--mu", type=float, help="overlap")
    p_ent.add_argument("--format", choices=("text", "json"), default="text")
    p_ent.set_defaults(func=_cmd_entropy)

    p_aud = sub.add_parser("audit", help="conservation report from stored run")
    p_aud.add_argument("--run-dir", required=True)
    p_aud.add_argument("--quiet", action="store_true")
    p_aud.set_defaults(func=_cmd_audit)

    p_sc = sub.add_parser("scenario", help="built-in scenario library")
    sc_sub = p_sc.add_subparsers(dest="scenario_command", required=True)
    p_list = sc_sub.add_parser("list", help="list built-in scenarios")
    p_list.set_defaults(func=_cmd_scenario_list)
    p_show = sc_sub.add_parser("show", help="print a built-in config as JSON")
    p_show.add_argument("name")
    p_show.set_defaults(func=_cmd_scenario_show)

    return parser


def _load(config_arg: str) -> ScenarioConfig:
    if config_arg in BUILTIN_DESCRIPTIONS:
        return builtin_scenario(config_arg)
    path = Path(config_arg)
    if not path.exists():
        raise ConfigError(
            [f"config {config_arg!r} is neither a file nor a built-in scenario "
             f"(built-ins: {builtin_names()})"]
        )
    return load_config(path)


def _default_out_dir(config: ScenarioConfig, tag: str) -> Path:
    stem = config.name or "scenario"
    return Path("runs") / f"{stem}-{config_hash(config)[:8]}-{tag}"


def _check_seed(args) -> None:
    if args.seed is not None and args.seed < 0:
        raise ConfigError([f"--seed must be >= 0, got {args.seed}"])


def _cmd_run(args) -> int:
    _check_seed(args)
    config = _load(args.config)
    scenario = realize(config)
    seed = args.seed if args.seed is not None else scenario.plan.seed
    record = run_trajectory(scenario, seed=seed)
    out_dir = Path(args.out_dir) if args.out_dir else _default_out_dir(
        config, f"seed{seed}"
    )
    manifest = build_manifest(config, [seed], "trajectory")
    persist_run([record], manifest, out_dir)
    if not args.quiet:
        print(f"run complete: seed {seed}, "
              f"collapsed_branch={record.collapsed_branch!r}")
        print(f"artifacts in {out_dir}")
    return 0


def _cmd_ensemble(args) -> int:
    _check_seed(args)
    config = _load(args.config)
    scenario = realize(config)
    base_seed = args.seed if args.seed is not None else scenario.plan.seed
    if args.n_traj < 2:
        raise ConfigError(["--n-traj must be at least 2"])
    stats, records = run_ensemble(
        scenario, args.n_traj, base_seed, keep_records=args.keep_trajectories
    )
    out_dir = Path(args.out_dir) if args.out_dir else _default_out_dir(
        config, f"ens{base_seed}x{args.n_traj}"
    )
    seeds = ensemble_seeds(base_seed, args.n_traj)
    manifest = build_manifest(config, seeds, "ensemble")
    persist_run(records, manifest, out_dir, stats=stats)
    if not args.quiet:
        freqs = {k: v / stats.n_traj for k, v in stats.outcome_counts.items()}
        print(f"ensemble complete: {stats.n_traj} trajectories, outcomes {freqs}")
        print(f"artifacts in {out_dir}")
    return 0


def _cmd_analyze(args) -> int:
    try:  # the packet, window and sweep refuse their arguments with ValueError
        params = PacketParams(a=args.a, m=args.m, hbar=args.hbar, t=args.t)
        width = packet_width(params)
        eps = args.epsilon if args.epsilon is not None else width / 100.0
        PostSelection(x_f=args.x_f, epsilon=eps)
        if args.sweep_xf is not None:
            lo, hi, n = args.sweep_xf
            if not n.is_integer():
                raise ValueError(f"--sweep-xf N must be a whole number, got {n!r}")
            xs = np.linspace(lo, hi, int(n))
    except (ValueError, OverflowError) as exc:
        raise ConfigError([str(exc)]) from exc

    def analyze_point(x_f: float) -> dict:
        sel = PostSelection(x_f=x_f, epsilon=eps)
        closed = postselected_momentum_closed(params, sel)
        quadrature = postselected_momentum_quadrature(params, sel)
        r, theta = polar_decomposition(closed)
        return {
            "x_f": x_f,
            "closed": _jsonify(closed),
            "quadrature": _jsonify(quadrature),
            # absolute where the closed form is exactly 0
            "relative_deviation": abs(quadrature - closed) / (abs(closed) or 1.0),
            "polar": {"r": r, "theta": theta},
            "dominant": _jsonify(dominant_momentum(params, x_f)),
        }

    if args.sweep_xf is not None:
        lines = ["x_f,closed_re,closed_im,quad_re,quad_im,r,theta,relative_deviation"]
        for row in (analyze_point(float(x)) for x in xs):
            values = (row["x_f"], row["closed"]["re"], row["closed"]["im"],
                      row["quadrature"]["re"], row["quadrature"]["im"],
                      row["polar"]["r"], row["polar"]["theta"], row["relative_deviation"])
            lines.append(",".join(repr(v) for v in values))
        text = "\n".join(lines) + "\n"
        if args.out_dir:
            out = Path(args.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / "momentum_sweep.csv").write_text(text, encoding="utf-8")
            if not args.quiet:
                print(f"wrote {out / 'momentum_sweep.csv'}")
        else:
            sys.stdout.write(text)
        return 0

    payload = {
        "params": {"a": args.a, "m": args.m, "hbar": args.hbar, "t": args.t},
        "width": width,
        "epsilon": eps,
        "point": analyze_point(args.x_f),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_entropy(args) -> int:
    if args.delta is not None:
        delta = args.delta
    else:
        if not (0.0 <= args.mu <= 1.0):
            raise ConfigError(["--mu must be in [0, 1]"])
        delta = 1.0 - args.mu
    if not (0.0 <= delta <= 1.0):
        raise ConfigError(["--delta must be in [0, 1]"])
    exact = two_branch_entropy_exact(1.0 - delta)
    approx = two_branch_entropy_approx(delta) if 0.0 < delta < 1.0 else None
    if args.format == "json":
        print(json.dumps({"delta": delta, "exact_nats": exact,
                          "approx_nats": approx}, indent=2))
    else:
        approx_text = "n/a" if approx is None else f"{approx:.5f}"
        print(f"delta={delta:g}: exact {exact:.5f} nats / approx {approx_text} nats")
    return 0


def _cmd_audit(args) -> int:
    run_dir = Path(args.run_dir)
    manifest = load_manifest(run_dir)
    scenario = realize(from_dict(manifest.config))
    quantities = scenario.quantities
    if not quantities:
        raise ConfigError(["config declares no audits; nothing to certify"])
    # a missing artifact raises OSError naming it, in load_trajectory_csv
    paths = {name: run_dir / name
             for name in {meta["file"] for meta in manifest.trajectories}}
    records = [load_trajectory_csv(paths[meta["file"]], meta)
               for meta in manifest.trajectories]
    if not records:
        raise PersistError("run contains no stored trajectories to audit")

    report = audit_run(records, quantities, scenario)
    (run_dir / "audit.json").write_text(report.to_json() + "\n", encoding="utf-8")
    if not args.quiet:
        print(report.text_summary())
    return 0 if report.passed else 3


def _cmd_scenario_list(args) -> int:
    for name in builtin_names():
        print(f"{name:24s} {BUILTIN_DESCRIPTIONS[name]}")
    return 0


def _cmd_scenario_show(args) -> int:
    print(serialize(builtin_scenario(args.name)))
    return 0


def cli_run(argv=None) -> int:
    """Parse and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        for msg in exc.errors:
            print(f"error: {msg}", file=sys.stderr)
        return 1
    except AuditRefusal as exc:
        print(f"audit refusal: {exc}", file=sys.stderr)
        return 3
    except (CollapseLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_run())
