"""Run persistence: trajectory CSVs, ensemble JSON, and run manifests.

The trajectory CSV schema is stable: header ``t,norm_pre,<columns...>``
where complex observables split into ``name_re``/``name_im`` columns,
branch weights appear as ``branch_<label>``, entropies as
``entropy_<partition>``, and tracked quadratic variations as ``qv_<name>``.
Floats are written with shortest round-trip repr, so identical (config,
seed) runs produce byte-identical files on one platform.

The manifest records the sha256 of every artifact, and
:func:`load_trajectory_csv` refuses a file that does not match it.  Writes
are idempotent per (config hash, seeds, content): re-persisting the same
run over intact files is a no-op, damaged files of the same run are
rewritten, and a differing manifest at the same path is refused rather
than overwritten.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import __version__ as TOOL_VERSION
from .config import ScenarioConfig, config_hash
from .errors import DimensionError, NumericalError, PersistError
from .integrator import EnsembleStats, IntegrationPlan, TrajectoryRecord

__all__ = [
    "RunManifest",
    "build_manifest",
    "persist_run",
    "load_manifest",
    "load_trajectory_csv",
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
    schema_version: int = 2

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
        return asdict(self)

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


def _series_out(arr):
    arr = np.asarray(arr)
    if np.iscomplexobj(arr):
        return {"re": arr.real.tolist(), "im": arr.imag.tolist()}
    return arr.tolist()


def _trajectory_json_dict(record: TrajectoryRecord) -> dict:
    return {
        "schema_version": 1,
        "seed": record.seed,
        "t": record.times.tolist(),
        "norm_pre": record.norms_pre_renorm.tolist(),
        "observables": {k: _series_out(v) for k, v in record.observables.items()},
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
        "plan": asdict(record.plan),
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


def ensemble_json_dict(stats: EnsembleStats, plan: IntegrationPlan) -> dict:
    return {
        "schema_version": 1,
        "n_traj": stats.n_traj,
        "base_seed": stats.base_seed,
        "plan": asdict(plan),
        "t": stats.times.tolist(),
        "observable_mean": {k: _series_out(v) for k, v in stats.observable_mean.items()},
        "observable_stderr": {
            k: _series_out(v) for k, v in stats.observable_stderr.items()
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


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha256(path: Path) -> str | None:
    return _sha256(path.read_bytes()) if path.exists() else None


def load_manifest(out_dir) -> RunManifest:
    path = Path(out_dir) / MANIFEST_NAME
    if not path.exists():
        raise PersistError(f"no manifest at {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PersistError(f"corrupt manifest at {path}: {exc}") from exc
    return RunManifest.from_dict(raw)


def _artifact_bytes(
    records: list[TrajectoryRecord],
    manifest: RunManifest,
    stats: EnsembleStats | None,
    fmt: str,
) -> Iterator[tuple[str, bytes]]:
    """(file name, content) of each artifact of a run, one at a time."""
    for rec in records:
        if fmt == "csv":
            yield f"trajectory_seed{rec.seed}.csv", trajectory_csv_text(rec).encode("utf-8")
        else:
            yield f"trajectory_seed{rec.seed}.json", _json_bytes(_trajectory_json_dict(rec))
    yield "summary.json", _json_bytes({
        "schema_version": 1,
        "config_hash": manifest.config_hash,
        "runs": [_summary_dict(rec) for rec in records],
    })
    if stats is not None:
        plan = records[0].plan if records else IntegrationPlan(
            **manifest.config["plan"]
        )
        yield "ensemble.json", _json_bytes(ensemble_json_dict(stats, plan))


def persist_run(
    records: list[TrajectoryRecord],
    manifest: RunManifest,
    out_dir,
    *,
    stats: EnsembleStats | None = None,
    fmt: str = "csv",
) -> dict[str, str]:
    """Write run artifacts under ``out_dir`` and return the file map.

    The manifest's ``artifacts`` and trajectory entries record each file's
    sha256.  A re-run of the same run is a no-op when the files on disk
    still match their hashes and rewrites them otherwise; a conflicting
    manifest at the same path raises :class:`PersistError` instead of
    overwriting anything.
    """
    if fmt not in ("csv", "json"):
        raise PersistError(f"unknown format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / MANIFEST_NAME
    existing = load_manifest(out) if manifest_path.exists() else None

    hashes: dict[str, str] = {}
    for name, data in _artifact_bytes(records, manifest, stats, fmt):
        hashes[name] = _sha256(data)
        if existing is None:
            (out / name).write_bytes(data)
    manifest.trajectories = [
        {
            "seed": rec.seed,
            "file": name,  # trajectory files come first, in record order
            "sha256": hashes[name],
            "collapsed_branch": rec.collapsed_branch,
            "collapse_step": rec.collapse_step,
            "plan": asdict(rec.plan),
        }
        for rec, name in zip(records, hashes)
    ]
    manifest.artifacts = hashes
    paths = {name: str(out / name) for name in [*hashes, MANIFEST_NAME]}

    if existing is not None:
        if existing.identity() != manifest.identity():
            raise PersistError(
                f"{manifest_path} already holds a different run "
                f"(hash {existing.config_hash[:12]} vs {manifest.config_hash[:12]}, "
                f"schema {existing.schema_version} vs {manifest.schema_version}); "
                "refusing to overwrite"
            )
        if all(_file_sha256(out / name) == h for name, h in hashes.items()):
            return paths
        for name, data in _artifact_bytes(records, manifest, stats, fmt):
            (out / name).write_bytes(data)

    manifest_path.write_bytes(_json_bytes(manifest.to_dict()))
    return paths


def load_trajectory_csv(path, meta: dict) -> TrajectoryRecord:
    """Rebuild a stored trajectory from its CSV plus manifest metadata.

    The file must match the sha256 in ``meta``.  The record has no final
    state; series-length and branch-partition failures are
    :class:`PersistError`.
    """
    raw = Path(path).read_bytes()
    if "sha256" not in meta:
        raise PersistError(f"{path}: the manifest records no content hash")
    if _sha256(raw) != meta["sha256"]:
        raise PersistError(f"{path}: content does not match the manifest hash")
    lines = raw.decode("utf-8").strip().split("\n")
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

    try:
        return TrajectoryRecord(
            times=by_name["t"],
            norms_pre_renorm=by_name["norm_pre"],
            observables=observables,
            branch_weights={
                n[len("branch_"):]: v for n, v in by_name.items()
                if n.startswith("branch_")
            },
            entropy_series={
                n[len("entropy_"):]: v for n, v in by_name.items()
                if n.startswith("entropy_")
            },
            final_state=None,
            seed=int(meta["seed"]),
            plan=plan,
            collapsed_branch=meta.get("collapsed_branch"),
            collapse_step=meta.get("collapse_step"),
            qv_series={
                n[len("qv_"):]: v for n, v in by_name.items() if n.startswith("qv_")
            },
        )
    except (DimensionError, NumericalError) as exc:
        raise PersistError(f"{path}: {exc}") from None
