"""Run persistence: trajectory CSVs, ensemble JSON, and run manifests.

The trajectory CSV schema is stable: header ``t,norm_pre,<columns...>``
where complex observables split into ``name_re``/``name_im`` columns,
branch weights appear as ``branch_<label>``, entropies as
``entropy_<partition>``, and tracked quadratic variations as ``qv_<name>``.
Floats are written with shortest round-trip repr, so identical (config,
seed) runs produce byte-identical files on one platform.

Writes are idempotent per (config hash, seeds): re-persisting the same run
is a no-op, while a differing manifest at the same path is refused rather
than overwritten.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__ as TOOL_VERSION
from .config import ScenarioConfig, config_hash
from .errors import PersistError
from .integrator import EnsembleStats, IntegrationPlan, TrajectoryRecord

__all__ = [
    "RunManifest",
    "build_manifest",
    "persist_run",
    "load_manifest",
    "load_trajectory_csv",
    "StoredTrajectory",
    "trajectory_csv_text",
]

MANIFEST_NAME = "manifest.json"


@dataclass
class RunManifest:
    """Content-addressed description of one persisted run."""

    config_hash: str
    config: dict
    kind: str  # "trajectory" | "ensemble"
    seeds: list[int]
    trajectories: list[dict] = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)
    tool_version: str = TOOL_VERSION
    created_at: str = ""
    schema_version: int = 1

    def identity(self) -> dict:
        """Fields that define sameness; timestamps excluded."""
        return {
            "config_hash": self.config_hash,
            "kind": self.kind,
            "seeds": list(self.seeds),
            "artifacts": dict(self.artifacts),
            "schema_version": self.schema_version,
        }

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "tool_version": self.tool_version,
            "config_hash": self.config_hash,
            "config": self.config,
            "kind": self.kind,
            "seeds": list(self.seeds),
            "trajectories": list(self.trajectories),
            "artifacts": dict(self.artifacts),
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "RunManifest":
        try:
            return cls(
                config_hash=raw["config_hash"],
                config=raw["config"],
                kind=raw["kind"],
                seeds=list(raw["seeds"]),
                trajectories=list(raw.get("trajectories", [])),
                artifacts=dict(raw.get("artifacts", {})),
                tool_version=raw.get("tool_version", ""),
                created_at=raw.get("created_at", ""),
                schema_version=raw.get("schema_version", 1),
            )
        except (KeyError, TypeError) as exc:
            raise PersistError(f"manifest is missing required field: {exc}") from exc


def build_manifest(config: ScenarioConfig, seeds: Iterable[int], kind: str) -> RunManifest:
    return RunManifest(
        config_hash=config_hash(config),
        config=config.to_dict(),
        kind=kind,
        seeds=list(seeds),
        created_at=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    )


def _fmt(value: float) -> str:
    return repr(float(value))


def _columns(record: TrajectoryRecord) -> list[tuple[str, np.ndarray]]:
    cols: list[tuple[str, np.ndarray]] = []
    for name, series in record.observables.items():
        if np.iscomplexobj(series):
            cols.append((f"{name}_re", series.real))
            cols.append((f"{name}_im", series.imag))
        else:
            cols.append((name, series))
    for label, series in record.branch_weights.items():
        cols.append((f"branch_{label}", series))
    for pname, series in record.entropy_series.items():
        cols.append((f"entropy_{pname}", series))
    for qname, series in record.qv_series.items():
        cols.append((f"qv_{qname}", series))
    return cols


def trajectory_csv_text(record: TrajectoryRecord) -> str:
    cols = _columns(record)
    header = "t,norm_pre" + "".join("," + name for name, _ in cols)
    lines = [header]
    for i in range(len(record.times)):
        row = [_fmt(record.times[i]), _fmt(record.norms_pre_renorm[i])]
        row.extend(_fmt(series[i]) for _, series in cols)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _trajectory_json_dict(record: TrajectoryRecord) -> dict:
    def series_out(arr):
        if np.iscomplexobj(arr):
            return {"re": arr.real.tolist(), "im": arr.imag.tolist()}
        return np.asarray(arr, dtype=float).tolist()

    return {
        "schema_version": 1,
        "seed": record.seed,
        "t": record.times.tolist(),
        "norm_pre": record.norms_pre_renorm.tolist(),
        "observables": {k: series_out(v) for k, v in record.observables.items()},
        "branch_weights": {k: v.tolist() for k, v in record.branch_weights.items()},
        "entropy": {k: v.tolist() for k, v in record.entropy_series.items()},
        "qv": {k: v.tolist() for k, v in record.qv_series.items()},
    }


def _summary_dict(record: TrajectoryRecord) -> dict:
    terminal = {}
    for name, series in record.observables.items():
        v = series[-1]
        terminal[name] = {"re": float(np.real(v)), "im": float(np.imag(v))} \
            if np.iscomplexobj(series) else float(v)
    return {
        "schema_version": 1,
        "seed": record.seed,
        "plan": _plan_dict(record.plan),
        "collapsed_branch": record.collapsed_branch,
        "collapse_step": record.collapse_step,
        "collapse_time": record.collapse_time,
        "norm_drift_mean": record.norm_drift_mean,
        "terminal": terminal,
        "terminal_branch_weights": {
            k: float(v[-1]) for k, v in record.branch_weights.items()
        },
        "terminal_entropy": {
            k: float(v[-1]) for k, v in record.entropy_series.items()
        },
    }


def _plan_dict(plan: IntegrationPlan) -> dict:
    return {
        "dt": plan.dt,
        "n_steps": plan.n_steps,
        "seed": plan.seed,
        "noise_kind": plan.noise_kind,
        "record_every": plan.record_every,
        "collapse_threshold": plan.collapse_threshold,
    }


def ensemble_json_dict(stats: EnsembleStats, plan: IntegrationPlan) -> dict:
    def series_out(arr):
        arr = np.asarray(arr)
        if np.iscomplexobj(arr):
            return {"re": arr.real.tolist(), "im": arr.imag.tolist()}
        return arr.tolist()

    return {
        "schema_version": 1,
        "n_traj": stats.n_traj,
        "base_seed": stats.base_seed,
        "plan": _plan_dict(plan),
        "t": stats.times.tolist(),
        "observable_mean": {k: series_out(v) for k, v in stats.observable_mean.items()},
        "observable_stderr": {
            k: series_out(v) for k, v in stats.observable_stderr.items()
        },
        "branch_weight_mean": {
            k: v.tolist() for k, v in stats.branch_weight_mean.items()
        },
        "branch_weight_stderr": {
            k: v.tolist() for k, v in stats.branch_weight_stderr.items()
        },
        "entropy_mean": {k: v.tolist() for k, v in stats.entropy_mean.items()},
        "outcome_counts": dict(stats.outcome_counts),
        "norm_drift_mean": stats.norm_drift_mean,
        "norm_drift_stderr": stats.norm_drift_stderr,
    }


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def load_manifest(out_dir) -> RunManifest:
    path = Path(out_dir) / MANIFEST_NAME
    if not path.exists():
        raise PersistError(f"no manifest at {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PersistError(f"corrupt manifest at {path}: {exc}") from exc
    return RunManifest.from_dict(raw)


def persist_run(
    records: list[TrajectoryRecord],
    manifest: RunManifest,
    out_dir,
    *,
    stats: EnsembleStats | None = None,
    fmt: str = "csv",
) -> dict[str, str]:
    """Write run artifacts under ``out_dir`` and return the file map.

    Same-content re-runs are no-ops; a conflicting manifest at the same
    path raises :class:`PersistError` instead of overwriting anything.
    """
    if fmt not in ("csv", "json"):
        raise PersistError(f"unknown format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    ext = "csv" if fmt == "csv" else "json"
    manifest.trajectories = [
        {
            "seed": rec.seed,
            "file": f"trajectory_seed{rec.seed}.{ext}",
            "collapsed_branch": rec.collapsed_branch,
            "collapse_step": rec.collapse_step,
            "plan": _plan_dict(rec.plan),
        }
        for rec in records
    ]
    artifacts = {t["file"]: t["file"] for t in manifest.trajectories}
    artifacts["summary.json"] = "summary.json"
    if stats is not None:
        artifacts["ensemble.json"] = "ensemble.json"
    manifest.artifacts = artifacts

    existing_path = out / MANIFEST_NAME
    if existing_path.exists():
        existing = load_manifest(out)
        if existing.identity() == manifest.identity():
            names = list(artifacts) + [MANIFEST_NAME]
            return {name: str(out / name) for name in names}
        raise PersistError(
            f"{existing_path} already holds a different run "
            f"(hash {existing.config_hash[:12]} vs {manifest.config_hash[:12]}); "
            "refusing to overwrite"
        )

    paths: dict[str, str] = {}
    for rec, meta in zip(records, manifest.trajectories):
        fpath = out / meta["file"]
        if fmt == "csv":
            fpath.write_text(trajectory_csv_text(rec), encoding="utf-8")
        else:
            _write_json(fpath, _trajectory_json_dict(rec))
        paths[meta["file"]] = str(fpath)

    summary = {
        "schema_version": 1,
        "config_hash": manifest.config_hash,
        "runs": [_summary_dict(rec) for rec in records],
    }
    _write_json(out / "summary.json", summary)
    paths["summary.json"] = str(out / "summary.json")

    if stats is not None:
        plan = records[0].plan if records else IntegrationPlan(
            **manifest.config["plan"]
        )
        _write_json(out / "ensemble.json", ensemble_json_dict(stats, plan))
        paths["ensemble.json"] = str(out / "ensemble.json")

    _write_json(existing_path, manifest.to_dict())
    paths[MANIFEST_NAME] = str(existing_path)
    return paths


@dataclass(eq=False)
class StoredTrajectory:
    """Trajectory series reloaded from disk; duck-types TrajectoryRecord
    for auditing (no final state)."""

    times: np.ndarray
    norms_pre_renorm: np.ndarray
    observables: dict
    branch_weights: dict
    entropy_series: dict
    qv_series: dict
    seed: int
    plan: IntegrationPlan
    collapsed_branch: str | None
    collapse_step: int | None

    @property
    def collapse_time(self) -> float | None:
        if self.collapse_step is None:
            return None
        return self.collapse_step * self.plan.dt


def load_trajectory_csv(path, meta: dict) -> StoredTrajectory:
    """Rebuild a stored trajectory from its CSV plus manifest metadata."""
    lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
    if not lines or not lines[0].startswith("t,norm_pre"):
        raise PersistError(f"{path}: not a trajectory CSV")
    header = lines[0].split(",")
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        raise PersistError(f"{path}: {exc}") from None
    if any(len(row) != len(header) for row in rows):
        raise PersistError(f"{path}: column count mismatch")
    data = np.array(rows).reshape(len(rows), len(header))
    plan = IntegrationPlan(**meta["plan"])
    if data.shape[0] != plan.n_records:
        raise PersistError(
            f"{path}: {data.shape[0]} rows, but the plan records {plan.n_records}"
        )
    by_name = {name: data[:, i] for i, name in enumerate(header)}

    observables: dict[str, np.ndarray] = {}
    consumed = {"t", "norm_pre"}
    for name in header:
        if name in consumed or name.startswith(("branch_", "entropy_", "qv_")):
            continue
        if name.endswith("_re") and name[:-3] + "_im" in by_name:
            base = name[:-3]
            observables[base] = by_name[name] + 1j * by_name[base + "_im"]
            consumed |= {name, base + "_im"}
        elif name.endswith("_im") and name[:-3] + "_re" in by_name:
            continue
        else:
            observables[name] = by_name[name]

    return StoredTrajectory(
        times=by_name["t"],
        norms_pre_renorm=by_name["norm_pre"],
        observables=observables,
        branch_weights={
            n[len("branch_"):]: v for n, v in by_name.items() if n.startswith("branch_")
        },
        entropy_series={
            n[len("entropy_"):]: v for n, v in by_name.items()
            if n.startswith("entropy_")
        },
        qv_series={
            n[len("qv_"):]: v for n, v in by_name.items() if n.startswith("qv_")
        },
        seed=int(meta["seed"]),
        plan=plan,
        collapsed_branch=meta.get("collapsed_branch"),
        collapse_step=meta.get("collapse_step"),
    )
