"""Run persistence: trajectory tables, ensemble JSON, and run manifests.

This module reads and writes bytes and columns; what a column means is
:mod:`collapse_lab.integrator`'s (``_column_names`` encodes a
trajectory's columns and ``_column_roles`` decodes them).  A trajectory
is its record's float64 (columns x records) table, stored as it is:

- A ``run`` writes ``trajectory_seed<seed>.csv``: the columns as its
  header, the table's transpose as its lines, floats in shortest
  round-trip repr, so identical (config, seed) runs write identical bytes
  on one platform.
- An ensemble writes its statistics to ``ensemble.json``.  One that keeps
  its trajectories writes them all to one ``trajectories.npy``: a version
  1.0 ``.npy`` array with one row per trajectory in seed order, whose
  float64 fields are the columns: a row's bytes are its table's bytes.

The manifest holds the config (which must hash to its ``config_hash``),
the seeds, each artifact's sha256 and the array's columns; the config's
plan is the run's one plan.  A trajectory entry stores only its CSV's or
row's sha256, its collapse and its norm drift.  :func:`load_manifest`
checks the plan and each entry once and derives the rest of the entry
(:meth:`RunManifest.complete`), a row load checks bytes against its
entry, and the audit checks every record against the plan.  Artifacts
are written to temporary files in the run directory and moved into
place, manifest last, so an interrupted write leaves no partial file
under a final name and no manifest.  Writes are idempotent per (config
hash, seeds, content): re-persisting the same run over intact files is a
no-op, damaged files of the same run are rewritten, and a differing
manifest at the same path is refused rather than overwritten.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import __version__ as TOOL_VERSION
from .config import ScenarioConfig, config_hash, dict_hash
from .conservation import _jsonify
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
ENSEMBLE_ARRAY = "trajectories.npy"


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
    schema_version: int = 4
    columns: list[str] | None = None  # the ensemble array's; None without one

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
        """The stored form: each trajectory entry keeps only its own facts."""
        return {**vars(self), "trajectories": [
            {k: entry[k] for k in _ENTRY_FIELDS if k in entry}
            for entry in self.trajectories]}

    def complete(self) -> None:
        """Check the config's plan and each entry once, and fill in entry i's
        seed (``seeds[i]``), file (the ensemble array when it is an artifact,
        else ``trajectory_seed<seed>.csv``) and, with ``columns``, an array
        entry's row (i) and columns.

        A config plan that does not build is a PersistError carrying the
        plan's own message.  So, naming ``trajectories[i]``, is an entry
        list that is not one object per seed, and an entry that states a
        derived fact or a schema-2/3 plan otherwise, names no artifact, or
        has a seed that is not an int >= 0, a sha256 that is not a string, a
        collapse that is not null or an int step in [0, n_steps] with a
        branch label of the config, or a norm drift that is not a float."""
        n, m = len(self.trajectories), len(self.seeds)
        if n and n != m:
            raise PersistError(f"manifest trajectories[{min(n, m)}]: {n} entries for "
                               f"{m} seeds; a run lists one entry per seed")
        config = self.config if isinstance(self.config, dict) else {}
        try:
            plan = IntegrationPlan(**config.get("plan"))
        except (TypeError, ValueError) as exc:
            raise PersistError(f"manifest plan is not a plan ({exc})") from None
        labels = [b.get("label") for b in config.get("branches") or () if isinstance(b, dict)]
        array = ENSEMBLE_ARRAY in self.artifacts

        def refuse(i: int, key: str, what: str):
            raise PersistError(f"manifest trajectories[{i}] {key} "
                               f"{self.trajectories[i].get(key)!r} is not {what}")

        for i, (entry, seed) in enumerate(zip(self.trajectories, self.seeds)):
            if not isinstance(entry, dict):
                raise PersistError(f"manifest trajectories[{i}] is {entry!r}, not an object")
            derived = {"seed": seed,
                       "file": ENSEMBLE_ARRAY if array else f"trajectory_seed{seed}.csv"}
            if "plan" in entry:  # a schema-2 or schema-3 entry repeats the plan
                derived["plan"] = {**config["plan"], "seed": seed}
            if array and self.columns is not None:
                derived.update(row=i, columns=self.columns)
            for key, value in derived.items():
                if entry.setdefault(key, value) != value:
                    refuse(i, key, f"the run's {value!r}")
            if entry["file"] not in self.artifacts:
                refuse(i, "file", "one of the run's artifacts")
            if type(entry["seed"]) is not int or entry["seed"] < 0:
                refuse(i, "seed", "an integer >= 0")
            if not isinstance(entry.get("sha256"), str):
                refuse(i, "sha256", "a content hash")
            step, branch = entry.get("collapse_step"), entry.get("collapsed_branch")
            if step is not None and not (type(step) is int and 0 <= step <= plan.n_steps):
                refuse(i, "collapse_step", f"null or an integer in [0, {plan.n_steps}]")
            if branch is not None and branch not in labels:
                refuse(i, "collapsed_branch", f"null or one of the config's branches {labels}")
            if (step is None) != (branch is None):
                raise PersistError(f"manifest trajectories[{i}] collapse_step {step!r} and "
                                   f"collapsed_branch {branch!r} are not both set or both null")
            if type(entry.get("norm_drift_mean", 0.0)) is not float:
                refuse(i, "norm_drift_mean", "a float")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunManifest":
        """The completed manifest of ``raw``; a missing field, a config that
        does not hash to ``config_hash`` and the refusals of
        :meth:`complete` are a PersistError."""
        try:
            manifest = cls(
                config_hash=raw["config_hash"],
                config=raw["config"],
                kind=raw["kind"],
                seeds=list(raw["seeds"]),
                trajectories=list(raw.get("trajectories", [])),
                artifacts=dict(raw.get("artifacts", {})),
                tool_version=raw.get("tool_version", ""),
                created_at=raw.get("created_at", ""),
                schema_version=raw.get("schema_version", 1),
                columns=raw.get("columns"),
            )
        except (KeyError, TypeError) as exc:
            raise PersistError(f"manifest is missing required field: {exc}") from exc
        if dict_hash(manifest.config) != manifest.config_hash:
            raise PersistError(f"manifest config does not hash to its config_hash "
                               f"{str(manifest.config_hash)[:12]}")
        manifest.complete()
        return manifest


def build_manifest(config: ScenarioConfig, seeds: Iterable[int], kind: str) -> RunManifest:
    return RunManifest(
        config_hash=config_hash(config),
        config=config.to_dict(),
        kind=kind,
        seeds=list(seeds),
        created_at=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    )


# what a stored trajectory entry holds; RunManifest.complete derives the rest
_ENTRY_FIELDS = ("sha256", "collapse_step", "collapsed_branch", "norm_drift_mean")


def trajectory_csv_text(record: TrajectoryRecord) -> str:
    lines = [",".join(record.columns)]
    # repr of a float is its shortest round-trip text
    lines += [",".join(map(repr, row)) for row in record.table.T.tolist()]
    return "\n".join(lines) + "\n"


def _write_trajectory_array(f, records: list[TrajectoryRecord]) -> list[str]:
    """Write ``records`` to ``f`` as the ensemble array, one row at a time,
    and return the sha256 of each row's bytes."""
    n_rec = records[0].table.shape[1]
    dtype = np.dtype([(name, "<f8", (n_rec,)) for name in records[0].columns])
    np.lib.format.write_array_header_1_0(f, {
        "descr": np.lib.format.dtype_to_descr(dtype),
        "fortran_order": False,
        "shape": (len(records),),
    })
    row_hashes = []
    for rec in records:
        row = rec.table.tobytes()
        row_hashes.append(_sha256(row))
        f.write(row)
    return row_hashes


def ensemble_json_dict(stats: EnsembleStats, plan: dict) -> dict:
    return {
        "schema_version": 1,
        "n_traj": stats.n_traj,
        "base_seed": stats.base_seed,
        "plan": plan,
        "t": stats.times.tolist(),
        "observable_mean": _jsonify(stats.observable_mean),
        "observable_stderr": _jsonify(stats.observable_stderr),
        "branch_weight_mean": _jsonify(stats.branch_weight_mean),
        "branch_weight_stderr": _jsonify(stats.branch_weight_stderr),
        "entropy_mean": _jsonify(stats.entropy_mean),
        "outcome_counts": dict(stats.outcome_counts),
        "norm_drift_mean": stats.norm_drift_mean,
        "norm_drift_stderr": stats.norm_drift_stderr,
    }


def _json_bytes(payload: dict) -> bytes:
    # no indent: an indented dump bypasses the C encoder; persisting a
    # 2000-trajectory ensemble took 0.15 s with it and 0.08 s without
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


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


class _HashingFile:
    """Binary file wrapper that hashes everything written through it."""

    def __init__(self, f):
        self._f = f
        self._hash = hashlib.sha256()

    def write(self, data) -> int:
        self._hash.update(data)
        return self._f.write(data)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _identity_difference(old: RunManifest, new: RunManifest) -> str:
    """The identity fields in which ``old`` and ``new`` differ, as text;
    for the artifacts, the names whose hashes differ."""
    a, b = old.identity(), new.identity()
    parts = []
    for key in a:
        if a[key] == b[key]:
            continue
        if key == "artifacts":
            names = sorted(n for n in a[key].keys() | b[key].keys()
                           if a[key].get(n) != b[key].get(n))
            parts.append(f"artifacts {', '.join(names)}")
        elif key == "config_hash":
            parts.append(f"config_hash {a[key][:12]} vs {b[key][:12]}")
        elif key == "seeds":
            parts.append(f"seeds {_brief(a[key])} vs {_brief(b[key])}")
        else:
            parts.append(f"{key} {a[key]!r} vs {b[key]!r}")
    return "differs in " + "; ".join(parts)


def _brief(seeds: list[int]) -> str:
    if len(seeds) <= 3:
        return repr(seeds)
    return f"[{seeds[0]}, ..., {seeds[-1]}] ({len(seeds)} seeds)"


def persist_run(
    records: list[TrajectoryRecord],
    manifest: RunManifest,
    out_dir,
    *,
    stats: EnsembleStats | None = None,
) -> dict[str, str]:
    """Write run artifacts under ``out_dir`` and return the file map.

    A trajectory run stores each record as a CSV; an ensemble, given
    ``stats``, stores ``ensemble.json`` and its records as the rows of
    :data:`ENSEMBLE_ARRAY`.  The manifest records each file's sha256, and
    each record's entry the hash of its CSV or row, its collapse and its
    norm drift; completing it refuses records that are not the manifest's
    seeds in order.  Artifacts are staged in temporary files and moved
    into place, manifest last.  A re-run of the same run is a no-op when
    the files on disk still match their hashes and rewrites them
    otherwise; a conflicting manifest at the same path raises
    :class:`PersistError` instead of overwriting anything.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / MANIFEST_NAME
    existing = load_manifest(out) if manifest_path.exists() else None

    staged: dict[str, Path] = {}
    hashes: dict[str, str] = {}

    def stage(name: str, write: Callable):
        """Write an artifact through ``write(file)`` to a new temporary file
        in ``out`` and hash it; returns what ``write`` returned."""
        fd, tmp = tempfile.mkstemp(dir=out, prefix=f".{name}.", suffix=".tmp")
        staged[name] = Path(tmp)
        with os.fdopen(fd, "wb") as f:
            sink = _HashingFile(f)
            result = write(sink)
        hashes[name] = sink.hexdigest()
        return result

    try:
        if records and manifest.kind == "ensemble":
            row_hashes = stage(ENSEMBLE_ARRAY,
                               lambda f: _write_trajectory_array(f, records))
            manifest.columns = list(records[0].columns)
        else:
            for rec in records:
                data = trajectory_csv_text(rec).encode("utf-8")
                stage(f"trajectory_seed{rec.seed}.csv", lambda f: f.write(data))
            row_hashes = [hashes[f"trajectory_seed{rec.seed}.csv"] for rec in records]
        if stats is not None:
            plan = {**manifest.config["plan"], "seed": stats.base_seed}
            stage("ensemble.json",
                  lambda f: f.write(_json_bytes(ensemble_json_dict(stats, plan))))
        manifest.trajectories = [
            {"seed": rec.seed, "sha256": digest, "collapse_step": rec.collapse_step,
             "collapsed_branch": rec.collapsed_branch,
             "norm_drift_mean": rec.norm_drift_mean}
            for rec, digest in zip(records, row_hashes)
        ]
        manifest.artifacts = dict(hashes)
        manifest.complete()
        paths = {name: str(out / name) for name in [*hashes, MANIFEST_NAME]}

        if existing is not None:
            if existing.identity() != manifest.identity():
                raise PersistError(
                    f"{manifest_path} already holds a different run "
                    f"({_identity_difference(existing, manifest)}); "
                    "refusing to overwrite"
                )
            if all(_file_sha256(out / name) == h for name, h in hashes.items()):
                return paths
        for name in list(staged):
            os.replace(staged.pop(name), out / name)
        stage(MANIFEST_NAME, lambda f: f.write(_json_bytes(manifest.to_dict())))
        os.replace(staged.pop(MANIFEST_NAME), manifest_path)
        return paths
    finally:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)


def load_trajectory_csv(path, meta: dict) -> TrajectoryRecord:
    """Rebuild a stored trajectory from its table plus manifest metadata.

    ``meta`` is an entry that :func:`load_manifest` has checked.  ``path``
    is a trajectory CSV, or the ensemble array when ``meta`` names a
    ``row``, of which only the npy prefix, header and row are read; any
    other artifact is refused.  Only bytes are checked against ``meta``:
    the hash, the npy magic and header, the columns, the row's range and
    truncation.  The record checks its shape, ``t``/``norm_pre`` and the
    branch partition, and takes its seed, collapse and norm drift (0.0 if
    a schema-3 entry has none) from ``meta``; it has no final state.  Each
    failure is a :class:`PersistError`; the times are the audit's to check.
    """
    if "row" in meta:
        names, table = _read_array_row(path, meta)
    elif os.path.splitext(path)[1] == ".csv":
        names, table = _read_csv(path, meta)
    else:
        raise PersistError(
            f"{path}: not a trajectory CSV or ensemble array; audits need one"
        )
    try:
        return TrajectoryRecord(
            columns=names,
            table=table,
            final_state=None,
            seed=meta["seed"],
            collapsed_branch=meta.get("collapsed_branch"),
            collapse_step=meta.get("collapse_step"),
            norm_drift_mean=meta.get("norm_drift_mean", 0.0),
        )
    except (DimensionError, NumericalError) as exc:
        raise PersistError(f"{path}: {exc}") from None


def _read_csv(path, meta: dict) -> tuple[tuple[str, ...], np.ndarray]:
    """(names, (n_columns, n_records) series) of a trajectory CSV."""
    with open(path, "rb") as f:
        raw = f.read()
    if _sha256(raw) != meta["sha256"]:
        raise PersistError(f"{path}: content does not match the manifest hash")
    lines = raw.decode("utf-8").strip().split("\n")
    if not lines or not lines[0].startswith("t,norm_pre"):
        raise PersistError(f"{path}: not a trajectory CSV")
    header = tuple(lines[0].split(","))
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        raise PersistError(f"{path}: {exc}") from None
    if any(len(row) != len(header) for row in rows):
        raise PersistError(f"{path}: column count mismatch")
    return header, np.array(rows).reshape(len(rows), len(header)).T


_NPY_MAGIC = np.lib.format.magic(1, 0)
_NPY_PREFIX = 10  # magic string, version, and the length of a 1.0 header


def _read_array_row(path, meta: dict) -> tuple[tuple[str, ...], np.ndarray]:
    """(names, (n_columns, n_records) series) of row ``meta["row"]`` of an
    ensemble array.  The file is read unbuffered: the prefix, the header
    and the row, nothing else."""
    with open(path, "rb", buffering=0) as f:
        prefix = f.read(_NPY_PREFIX)
        if len(prefix) != _NPY_PREFIX or prefix[:-2] != _NPY_MAGIC:
            raise PersistError(f"{path}: not a version 1.0 .npy file")
        header = f.read(int.from_bytes(prefix[-2:], "little"))
        try:
            n_rows, names, n_values = _array_layout(header)
        except ValueError as exc:
            raise PersistError(f"{path}: {exc}") from None
        if list(names) != meta.get("columns"):
            raise PersistError(f"{path}: fields {names} are not the manifest's columns")
        row = meta["row"]
        if not (type(row) is int and 0 <= row < n_rows):
            raise PersistError(f"{path}: row {row!r} is not among its {n_rows} rows")
        size = 8 * len(names) * n_values
        f.seek(_NPY_PREFIX + len(header) + row * size)
        data = bytearray(size)
        # a raw read of a regular file comes up short only at its end
        if f.readinto(data) != size:
            raise PersistError(f"{path}: truncated in row {row}")
    if _sha256(data) != meta["sha256"]:
        raise PersistError(f"{path}: row {row} does not match the manifest hash")
    return names, np.frombuffer(data, "<f8").reshape(len(names), n_values)


@functools.lru_cache(maxsize=16)
def _array_layout(header: bytes) -> tuple[int, tuple[str, ...], int]:
    """(rows, field names, values per field) of an ensemble array, from the
    text of its .npy 1.0 header.  Raises ValueError unless the array is a
    1-D table whose fields are float64 series of one length.  Cached: every
    row of an ensemble is read through the same header."""
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(
        io.BytesIO(len(header).to_bytes(2, "little") + header)
    )
    names = dtype.names or ()
    n_values = dtype.itemsize // (8 * len(names)) if names else 0
    if fortran_order or len(shape) != 1 or not names or dtype != np.dtype(
        [(name, "<f8", (n_values,)) for name in names]
    ):
        raise ValueError("not a table of float64 trajectory series")
    return shape[0], names, n_values
