import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields as dataclass_fields
from pathlib import Path

import numpy as np
import pytest

import collapse_lab as cl
from collapse_lab import persist
from collapse_lab.cli import cli_run
from collapse_lab.config import dict_hash, from_dict
from collapse_lab.errors import DimensionError, PersistError
from collapse_lab.integrator import IntegrationPlan, _column_roles, run_trajectory
from collapse_lab.persist import (
    build_manifest,
    load_manifest,
    load_trajectory_csv,
    persist_run,
    trajectory_csv_text,
)
from collapse_lab.scenarios import builtin_names, builtin_scenario, realize


def small_qnd_config():
    d = builtin_scenario("qnd-two-level").to_dict()
    d["plan"]["n_steps"] = 400
    d["plan"]["record_every"] = 50
    return from_dict(d)


class TestPersist:
    def test_round_trip_series(self, tmp_path):
        cfg = small_qnd_config()
        sc = realize(cfg)
        rec = run_trajectory(sc, seed=9)
        manifest = build_manifest(cfg, [9], "trajectory")
        paths = persist_run([rec], manifest, tmp_path / "run")
        stored = load_trajectory_csv(
            paths["trajectory_seed9.csv"], manifest.trajectories[0]
        )
        assert np.allclose(stored.times, rec.times)
        assert np.allclose(stored.observables["sz"], rec.observables["sz"])
        assert np.allclose(stored.branch_weights["up"], rec.branch_weights["up"])
        assert np.allclose(stored.entropy_series["spin"], rec.entropy_series["spin"])
        assert stored.collapsed_branch == rec.collapsed_branch

    def test_idempotent_rewrite(self, tmp_path):
        cfg = small_qnd_config()
        sc = realize(cfg)
        rec = run_trajectory(sc, seed=9)
        out = tmp_path / "run"
        m1 = build_manifest(cfg, [9], "trajectory")
        persist_run([rec], m1, out)
        mtime = (out / "manifest.json").stat().st_mtime_ns
        m2 = build_manifest(cfg, [9], "trajectory")
        persist_run([rec], m2, out)  # no-op
        assert (out / "manifest.json").stat().st_mtime_ns == mtime

    def test_conflicting_manifest_refused(self, tmp_path):
        cfg = small_qnd_config()
        sc = realize(cfg)
        rec = run_trajectory(sc, seed=9)
        out = tmp_path / "run"
        persist_run([rec], build_manifest(cfg, [9], "trajectory"), out)
        rec2 = run_trajectory(sc, seed=10)
        with pytest.raises(PersistError):
            persist_run([rec2], build_manifest(cfg, [10], "trajectory"), out)

    @pytest.mark.parametrize("name", builtin_names())
    def test_plan_dict_is_asdict(self, name):
        # ensemble.json stores the config's plan dict: it holds every field
        cfg = builtin_scenario(name)
        assert cfg.plan == asdict(realize(cfg).plan)

    def test_refusal_names_what_differs(self, tmp_path):
        cfg = small_qnd_config()
        sc = realize(cfg)
        rec = run_trajectory(sc, seed=9)
        out = tmp_path / "run"
        persist_run([rec], build_manifest(cfg, [9], "trajectory"), out)
        raw = json.loads((out / "manifest.json").read_text())
        raw["artifacts"]["notes.json"] = "0" * 64
        (out / "manifest.json").write_text(json.dumps(raw))
        with pytest.raises(PersistError,
                           match=r"\(differs in artifacts notes\.json\); refusing"):
            persist_run([rec], build_manifest(cfg, [9], "trajectory"), out)
        rec2 = run_trajectory(sc, seed=10)
        with pytest.raises(PersistError, match=(
                r"differs in seeds \[9\] vs \[10\]; artifacts notes\.json, "
                r"trajectory_seed10\.csv, trajectory_seed9\.csv\)")):
            persist_run([rec2], build_manifest(cfg, [10], "trajectory"), out)

    def test_corrupt_manifest_not_overwritten(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "manifest.json").write_text("{broken")
        cfg = small_qnd_config()
        rec = run_trajectory(realize(cfg), seed=9)
        with pytest.raises(PersistError):
            persist_run([rec], build_manifest(cfg, [9], "trajectory"), out)

    def test_manifest_that_is_not_utf8_is_corrupt(self, tmp_path, capsys):
        # a byte that is not UTF-8 makes the manifest corrupt: audit and a
        # rerun into the directory exit 2 with one error line
        cfg_path = tmp_path / "qnd.json"
        cfg_path.write_text(cl.serialize(small_qnd_config()))
        out = tmp_path / "run"
        run = ["run", "--config", str(cfg_path), "--seed", "9", "--out-dir", str(out),
               "--quiet"]
        assert cli_run(run) == 0
        manifest = out / "manifest.json"
        manifest.write_bytes(manifest.read_bytes().replace(b'"kind"', b'"k\xffnd"', 1))
        with pytest.raises(PersistError, match="^corrupt manifest at .*utf-8"):
            load_manifest(out)
        capsys.readouterr()
        for command in (["audit", "--run-dir", str(out), "--quiet"], run):
            assert cli_run(command) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: corrupt manifest at ") and err.count("\n") == 1
        assert not (out / "audit.json").exists()

    def test_manifest_round_trip(self, tmp_path):
        cfg = small_qnd_config()
        rec = run_trajectory(realize(cfg), seed=9)
        out = tmp_path / "run"
        persist_run([rec], build_manifest(cfg, [9], "trajectory"), out)
        manifest = load_manifest(out)
        assert manifest.config_hash == cl.config_hash(cfg)
        rebuilt = from_dict(manifest.config)
        assert cl.config_hash(rebuilt) == manifest.config_hash


class TestCli:
    def write_config(self, tmp_path) -> Path:
        cfg = small_qnd_config()
        path = tmp_path / "qnd.json"
        path.write_text(cl.serialize(cfg))
        return path

    def test_run_byte_identical(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        code1 = cli_run(["run", "--config", str(cfg_path), "--seed", "7",
                         "--out-dir", str(tmp_path / "a"), "--quiet"])
        code2 = cli_run(["run", "--config", str(cfg_path), "--seed", "7",
                         "--out-dir", str(tmp_path / "b"), "--quiet"])
        assert code1 == 0 and code2 == 0
        b1 = (tmp_path / "a" / "trajectory_seed7.csv").read_bytes()
        b2 = (tmp_path / "b" / "trajectory_seed7.csv").read_bytes()
        assert b1 == b2

    def test_run_builtin_by_name(self, tmp_path):
        code = cli_run(["run", "--config", "beamsplitter",
                        "--out-dir", str(tmp_path / "bs"), "--quiet"])
        assert code == 0
        assert (tmp_path / "bs" / "manifest.json").exists()

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        payload = json.loads(self.write_config(tmp_path).read_text())
        payload["space"]["subsystems"][0]["massess"] = 1.0
        bad.write_text(json.dumps(payload))
        code = cli_run(["run", "--config", str(bad), "--quiet"])
        assert code == 1

    def test_unknown_flag_exit_code(self):
        assert cli_run(["run", "--nonsense"]) == 1

    @pytest.mark.parametrize("command", [
        ["run", "--seed", "-1"], ["ensemble", "--n-traj", "4", "--seed", "-2"]])
    def test_negative_seed_is_a_validation_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        code = cli_run([*command, "--config", "qnd-two-level", "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and err == f"error: --seed must be >= 0, got {command[-1]}\n"
        assert not out.exists()

    def test_numerical_error_exit_code(self, tmp_path):
        d = builtin_scenario("qnd-two-level").to_dict()
        d["plan"].update({"dt": 1.0, "n_steps": 10, "record_every": 1})
        path = tmp_path / "unstable.json"
        path.write_text(cl.serialize(from_dict(d)))
        code = cli_run(["run", "--config", str(path),
                        "--out-dir", str(tmp_path / "u"), "--quiet"])
        assert code == 2

    def test_entropy_subcommand(self, capsys):
        assert cli_run(["entropy", "--delta", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "0.03148" in out and "0.03149" in out

    def test_analyze_subcommand(self, capsys):
        code = cli_run(["analyze", "--a", "1", "--t", "1", "--x-f", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["point"]["closed"]["re"] == pytest.approx(0.2)
        assert payload["point"]["closed"]["im"] == pytest.approx(0.4)
        assert payload["point"]["relative_deviation"] < 1e-3

    @pytest.mark.parametrize("args", [
        ["--a", "0", "--t", "1"], ["--a", "1", "--t", "-1"],
        ["--a", "1", "--t", "1", "--m", "0"], ["--a", "1", "--t", "1", "--hbar", "-1"],
        ["--a", "1", "--t", "1", "--epsilon", "0"],
        ["--a", "1", "--t", "1", "--sweep-xf", "0", "1", "-1"],
        ["--a", "1", "--t", "1", "--sweep-xf", "0", "3", "2.5"]])
    def test_analyze_refuses_bad_arguments_in_one_line(self, tmp_path, capsys, args):
        code = cli_run(["analyze", *args, "--out-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_analyze_sweep_csv(self, tmp_path):
        code = cli_run(["analyze", "--a", "1", "--t", "1",
                        "--sweep-xf", "0.5", "2.0", "4",
                        "--out-dir", str(tmp_path), "--quiet"])
        assert code == 0
        lines = (tmp_path / "momentum_sweep.csv").read_text().strip().split("\n")
        assert lines[0].startswith("x_f,closed_re")
        assert len(lines) == 5

    def test_analyze_at_a_zero_closed_form_reports_the_absolute_deviation(self, capsys):
        # the closed form at x_f = 0 is exactly 0; the quadrature misses it by ~1e-13
        assert cli_run(["analyze", "--a", "1", "--t", "1", "--x-f", "0"]) == 0
        point = json.loads(capsys.readouterr().out)["point"]
        assert point["closed"] == {"re": 0.0, "im": 0.0}
        assert point["relative_deviation"] < 1e-6
        assert cli_run(["analyze", "--a", "1", "--t", "1", "--sweep-xf", "0", "3", "31"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert len(rows) == 31 and float(rows[0].split(",")[-1]) < 1e-6

    def test_scenario_list(self, capsys):
        assert cli_run(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "qnd-two-level" in out and "beamsplitter" in out

    def test_scenario_show_round_trips(self, capsys, tmp_path):
        assert cli_run(["scenario", "show", "qnd-two-level"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "shown.json"
        path.write_text(text)
        cfg = cl.load_config(path)
        assert cfg.name == "qnd-two-level"

    def test_ensemble_and_audit_flow(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        out = tmp_path / "ens"
        code = cli_run(["ensemble", "--config", str(cfg_path), "--n-traj", "20",
                        "--seed", "50", "--out-dir", str(out),
                        "--keep-trajectories", "--quiet"])
        assert code == 0
        assert (out / "ensemble.json").exists()
        code = cli_run(["audit", "--run-dir", str(out)])
        assert code == 0
        report = json.loads((out / "audit.json").read_text())
        assert report["passed"] is True

    def test_kept_and_unkept_ensembles_write_the_same_plan(self, tmp_path):
        # the plan of ensemble.json carries the base seed, whether or not
        # the trajectories are kept; the config's plan seed is 1
        cfg_path = self.write_config(tmp_path)
        plans = []
        for name, extra in (("ens", []), ("kept", ["--keep-trajectories"])):
            out = tmp_path / name
            assert cli_run(["ensemble", "--config", str(cfg_path), "--n-traj", "6",
                            "--seed", "40", "--out-dir", str(out), "--quiet",
                            *extra]) == 0
            plans.append(json.loads((out / "ensemble.json").read_text())["plan"])
        assert plans[0] == plans[1]
        assert plans[0]["seed"] == 40

    def test_observable_named_like_a_column_exits_1(self, tmp_path, capsys):
        # an observable named t used to integrate the whole ensemble and
        # then die writing trajectories.npy: "field 't' occurs more than once"
        payload = json.loads(self.write_config(tmp_path).read_text())
        payload["observables"].append({"name": "t", "kind": "spin_z",
                                       "subsystem": "spin"})
        path = tmp_path / "t.json"
        path.write_text(json.dumps(payload))
        for command in (["run"], ["ensemble", "--n-traj", "4", "--keep-trajectories"]):
            code = cli_run([*command, "--config", str(path),
                            "--out-dir", str(tmp_path / "t"), "--quiet"])
            err = capsys.readouterr().err
            assert code == 1
            assert "error:" in err and "'t' is reserved" in err
            assert "Traceback" not in err
        assert not (tmp_path / "t").exists()

    def test_momentum_observable_named_branch_runs(self, tmp_path):
        # a momentum series is real: one column named branch, which reads
        # back as an observable, not as a branch weight
        d = builtin_scenario("free-packet").to_dict()
        d["plan"].update({"n_steps": 20, "record_every": 10})
        d["observables"].append({"name": "branch", "kind": "momentum",
                                 "subsystem": "particle"})
        cfg = from_dict(d)
        path = tmp_path / "p.json"
        path.write_text(cl.serialize(cfg))
        out = tmp_path / "run"
        assert cli_run(["run", "--config", str(path), "--seed", "3",
                        "--out-dir", str(out), "--quiet"]) == 0
        meta = load_manifest(out).trajectories[0]
        stored = load_trajectory_csv(out / meta["file"], meta)
        assert "branch" in stored.columns and not stored.branch_weights
        rec = run_trajectory(realize(cfg), seed=3)
        assert np.array_equal(stored.observables["branch"], rec.observables["branch"])

    def test_artifacts_of_each_command(self, tmp_path, capsys):
        # every fact of a run is stored once: its table in the CSV or the
        # array, its statistics in ensemble.json, the rest in the manifest
        cfg_path = self.write_config(tmp_path)
        listing = {}
        for name, extra in (("run", ["run", "--seed", "4"]),
                            ("ens", ["ensemble", "--n-traj", "6"]),
                            ("kept", ["ensemble", "--n-traj", "6", "--keep-trajectories"])):
            out = tmp_path / name
            assert cli_run([*extra, "--config", str(cfg_path), "--out-dir", str(out),
                            "--quiet"]) == 0
            listing[name] = sorted(p.name for p in out.iterdir())
            assert set(load_manifest(out).artifacts) == set(listing[name]) - {
                "manifest.json"}
        assert listing == {
            "run": ["manifest.json", "trajectory_seed4.csv"],
            "ens": ["ensemble.json", "manifest.json"],
            "kept": ["ensemble.json", "manifest.json", "trajectories.npy"],
        }
        capsys.readouterr()
        assert cli_run(["audit", "--run-dir", str(tmp_path / "ens"), "--quiet"]) == 2
        assert "no stored trajectories" in capsys.readouterr().err

    @pytest.mark.parametrize("command, artifact", [
        (["ensemble", "--n-traj", "4", "--keep-trajectories"], "trajectories.npy"),
        (["run", "--seed", "2"], "trajectory_seed2.csv"),
    ])
    def test_missing_artifact_exits_two_naming_it(self, tmp_path, capsys, command,
                                                   artifact):
        cfg_path = self.write_config(tmp_path)
        out = tmp_path / "stored"
        assert cli_run([*command, "--config", str(cfg_path), "--out-dir", str(out),
                        "--quiet"]) == 0
        (out / artifact).unlink()
        capsys.readouterr()
        assert cli_run(["audit", "--run-dir", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert str(out / artifact) in err and not (out / "audit.json").exists()

    def test_truncated_csv_refused(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        out = tmp_path / "ens"
        assert cli_run(["ensemble", "--config", str(cfg_path), "--n-traj", "4",
                        "--seed", "50", "--out-dir", str(out),
                        "--keep-trajectories", "--quiet"]) == 0
        meta = load_manifest(out).trajectories[1]
        array = out / meta["file"]
        assert array.name == "trajectories.npy" and meta["row"] == 1
        data = array.read_bytes()
        row_bytes = (len(data) - _header_length(array)) // 4
        # the last 3 whole rows dropped, and the file cut off halfway
        for cut in (data[:len(data) - 3 * row_bytes], data[:len(data) // 2]):
            array.write_bytes(cut)
            with pytest.raises(PersistError):
                load_trajectory_csv(array, meta)
            assert cli_run(["audit", "--run-dir", str(out), "--quiet"]) == 2

    def test_json_run_audit_refused(self, tmp_path):
        # a manifest entry that points at an artifact other than a table
        cfg_path = self.write_config(tmp_path)
        out = tmp_path / "jsonrun"
        assert cli_run(["run", "--config", str(cfg_path), "--seed", "3",
                        "--out-dir", str(out), "--quiet"]) == 0
        meta = {**load_manifest(out).trajectories[0], "file": "notes.json"}
        (out / "notes.json").write_text("{}\n")
        meta["sha256"] = _sha256(out / "notes.json")
        with pytest.raises(PersistError, match="not a trajectory CSV"):
            load_trajectory_csv(out / meta["file"], meta)
        raw = json.loads((out / "manifest.json").read_text())
        raw["artifacts"]["notes.json"] = meta["sha256"]
        raw["trajectories"][0].update(file="notes.json", sha256=meta["sha256"])
        (out / "manifest.json").write_text(json.dumps(raw))
        assert cli_run(["audit", "--run-dir", str(out), "--quiet"]) == 2

    def test_audit_refusal_exit_three(self, tmp_path):
        d = builtin_scenario("qnd-two-level").to_dict()
        d["plan"]["n_steps"] = 200
        d["plan"]["record_every"] = 50
        d["operators"]["terms"].append(
            {"type": "external_potential", "subsystem": "pointer",
             "samples": [0.0, 0.1]}
        )
        cfg = from_dict(d)
        path = tmp_path / "ext.json"
        path.write_text(cl.serialize(cfg))
        out = tmp_path / "extrun"
        assert cli_run(["run", "--config", str(path), "--out-dir", str(out),
                        "--quiet"]) == 0
        assert cli_run(["audit", "--run-dir", str(out), "--quiet"]) == 3

    @pytest.mark.parametrize("name", [
        "qnd-two-level", "beamsplitter", "two-particle-collision",
        "stern-gerlach", "free-packet",
    ])
    def test_every_builtin_runs_default_plan_to_manifest(self, tmp_path, name):
        out = tmp_path / name
        code = cli_run(["run", "--config", name, "--out-dir", str(out), "--quiet"])
        assert code == 0
        manifest = load_manifest(out)
        assert manifest.kind == "trajectory"
        stored = load_trajectory_csv(
            out / manifest.trajectories[0]["file"], manifest.trajectories[0]
        )
        assert len(stored.times) >= 2


def _sha256(path) -> str:
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _header_length(npy_path) -> int:
    """Bytes before the first row of a stored ensemble array."""
    with open(npy_path, "rb") as f:
        np.lib.format.read_magic(f)
        np.lib.format.read_array_header_1_0(f)
        return f.tell()


class TestContentHashes:
    def test_manifest_records_hashes(self, tmp_path):
        cfg = small_qnd_config()
        rec = run_trajectory(realize(cfg), seed=9)
        out = tmp_path / "run"
        persist_run([rec], build_manifest(cfg, [9], "trajectory"), out)
        manifest = load_manifest(out)
        assert manifest.schema_version == 4
        assert set(manifest.artifacts) == {"trajectory_seed9.csv"}
        for name, digest in manifest.artifacts.items():
            assert digest == _sha256(out / name)
        assert manifest.trajectories[0]["sha256"] == _sha256(out / "trajectory_seed9.csv")
        # an entry stores only what no other part of the run holds
        raw = json.loads((out / "manifest.json").read_text())
        assert raw["trajectories"] == [{
            "sha256": _sha256(out / "trajectory_seed9.csv"),
            "collapse_step": rec.collapse_step,
            "collapsed_branch": rec.collapsed_branch,
            "norm_drift_mean": rec.norm_drift_mean,
        }]
        assert raw["columns"] is None  # a run has no ensemble array

    def test_rerun_rewrites_damaged_artifact(self, tmp_path):
        cfg = small_qnd_config()
        rec = run_trajectory(realize(cfg), seed=9)
        out = tmp_path / "run"
        persist_run([rec], build_manifest(cfg, [9], "trajectory"), out)
        csv = out / "trajectory_seed9.csv"
        original = csv.read_bytes()
        csv.write_bytes(original[:-20])
        persist_run([rec], build_manifest(cfg, [9], "trajectory"), out)
        assert csv.read_bytes() == original

    def test_edited_csv_refused_by_audit(self, tmp_path):
        d = builtin_scenario("two-particle-collision").to_dict()
        d["plan"].update({"n_steps": 100, "record_every": 50})
        cfg = from_dict(d)
        out = tmp_path / "collision"
        rec = run_trajectory(realize(cfg), seed=0)
        persist_run([rec], build_manifest(cfg, [0], "trajectory"), out)
        assert cli_run(["audit", "--run-dir", str(out), "--quiet"]) == 0
        csv = out / "trajectory_seed0.csv"
        lines = csv.read_text(encoding="utf-8").splitlines()
        col = lines[0].split(",").index("x1")
        row = lines[-1].split(",")
        row[col] = repr(float(row[col]) + 0.5)
        lines[-1] = ",".join(row)
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert cli_run(["audit", "--run-dir", str(out), "--quiet"]) == 2

    def test_branch_partition_checked_on_load(self, tmp_path):
        cfg = small_qnd_config()
        rec = run_trajectory(realize(cfg), seed=9)
        out = tmp_path / "run"
        persist_run([rec], build_manifest(cfg, [9], "trajectory"), out)
        meta = dict(load_manifest(out).trajectories[0])
        csv = out / meta["file"]
        lines = csv.read_text(encoding="utf-8").splitlines()
        col = lines[0].split(",").index("branch_up")
        row = lines[2].split(",")
        row[col] = repr(float(row[col]) + 0.01)
        lines[2] = ",".join(row)
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(PersistError, match="hash"):
            load_trajectory_csv(csv, meta)
        meta["sha256"] = _sha256(csv)  # a manifest that agrees with the edit
        with pytest.raises(PersistError, match="branch weights"):
            load_trajectory_csv(csv, meta)
        raw = json.loads((out / "manifest.json").read_text())
        del raw["trajectories"][0]["sha256"]
        (out / "manifest.json").write_text(json.dumps(raw))
        with pytest.raises(PersistError,
                           match=r"trajectories\[0\] sha256 None is not a content hash"):
            load_manifest(out)


def small_ensemble(tmp_path):
    """A persisted 5-trajectory qnd ensemble: (config, records, run directory)."""
    cfg = small_qnd_config()
    stats, recs = cl.run_ensemble(realize(cfg), 5, 40, keep_records=True)
    out = tmp_path / "ens"
    persist_run(recs, build_manifest(cfg, [r.seed for r in recs], "ensemble"), out,
                stats=stats)
    return cfg, recs, out


def test_ensemble_stats_fields_are_the_ensemble_json_keys(tmp_path):
    # every statistic an ensemble reduces is stored, and only those: a
    # field that no artifact holds would be read by tests alone
    _, _, out = small_ensemble(tmp_path)
    stored = json.loads((out / "ensemble.json").read_text())
    fields = {"t" if f.name == "times" else f.name
              for f in dataclass_fields(cl.EnsembleStats)}
    assert fields == stored.keys() - {"schema_version", "plan"}


def _series(rec) -> dict:
    out = {"t": rec.times, "norm_pre": rec.norms_pre_renorm}
    for group, prefix in ((rec.observables, ""), (rec.branch_weights, "branch_"),
                          (rec.entropy_series, "entropy_"), (rec.qv_series, "qv_")):
        out.update({prefix + k: v for k, v in group.items()})
    return out


class TestEnsembleArray:
    def test_one_array_round_trips_every_row(self, tmp_path):
        cfg, recs, out = small_ensemble(tmp_path)
        manifest = load_manifest(out)
        assert sorted(p.name for p in out.iterdir()) == [
            "ensemble.json", "manifest.json", "trajectories.npy"]
        # the statistics' plan is the config's, with the base seed
        stored = json.loads((out / "ensemble.json").read_text())
        assert stored["plan"] == {**cfg.plan, "seed": 40}
        assert manifest.artifacts["trajectories.npy"] == _sha256(out / "trajectories.npy")
        array = np.load(out / "trajectories.npy")
        assert array.shape == (5,)
        for row, (rec, meta) in enumerate(zip(recs, manifest.trajectories)):
            assert (meta["file"], meta["row"], meta["seed"]) == ("trajectories.npy", row,
                                                                rec.seed)
            assert list(array.dtype.names) == meta["columns"]
            assert meta["sha256"] == hashlib.sha256(array[row].tobytes()).hexdigest()
            assert array[row].tobytes() == rec.table.tobytes()
            stored = load_trajectory_csv(out / meta["file"], meta)
            assert stored.collapse_step == rec.collapse_step
            expected, got = _series(rec), _series(stored)
            assert expected.keys() == got.keys()
            for k in expected:
                assert np.array_equal(expected[k], got[k]), k

    def test_damaged_array_refused(self, tmp_path):
        _, _, out = small_ensemble(tmp_path)
        metas = load_manifest(out).trajectories
        path = out / "trajectories.npy"
        original = path.read_bytes()
        start = _header_length(path)
        row_bytes = (len(original) - start) // len(metas)

        # one edited byte in row 2: rows other than 2 still load
        edited = bytearray(original)
        edited[start + 2 * row_bytes + 11] ^= 0x01
        path.write_bytes(bytes(edited))
        for meta in metas:
            if meta["row"] == 2:
                with pytest.raises(PersistError, match="hash"):
                    load_trajectory_csv(path, meta)
            else:
                load_trajectory_csv(path, meta)

        # a truncated file
        path.write_bytes(original[:-1])
        with pytest.raises(PersistError, match="truncated"):
            load_trajectory_csv(path, metas[-1])

        # a row past the shape
        path.write_bytes(original)
        with pytest.raises(PersistError, match="not among"):
            load_trajectory_csv(path, {**metas[-1], "row": len(metas)})

        # field names that differ from the manifest's columns, rows intact
        assert original.count(b"'sz'") == 1
        path.write_bytes(original.replace(b"'sz'", b"'sx'"))
        load_trajectory_csv(path, {**metas[0], "columns": [
            "sx" if c == "sz" else c for c in metas[0]["columns"]]})
        with pytest.raises(PersistError, match="columns"):
            load_trajectory_csv(path, metas[0])

    def test_bad_magic_or_version_refused(self, tmp_path):
        _, _, out = small_ensemble(tmp_path)
        meta = load_manifest(out).trajectories[0]
        path = out / "trajectories.npy"
        original = path.read_bytes()
        for damaged in (b"\x93NUMPX" + original[6:], b"\x93NUMPY\x02\x00" + original[8:],
                        original[:9]):
            path.write_bytes(damaged)
            with pytest.raises(PersistError, match="not a version 1.0 .npy file"):
                load_trajectory_csv(path, meta)

    @pytest.mark.parametrize("old, new", [
        (b"'fortran_order': False", b"'fortran_order': True "),
        (b"('t', '<f8'", b"('t', '>f8'"),
        (b"('t', '<f8'", b"('t', '<f4'"),
    ])
    def test_header_not_a_float64_table_refused(self, tmp_path, old, new):
        _, _, out = small_ensemble(tmp_path)
        meta = load_manifest(out).trajectories[0]
        path = out / "trajectories.npy"
        original = path.read_bytes()
        assert original.count(old) == 1
        path.write_bytes(original.replace(old, new))
        with pytest.raises(PersistError, match="not a table of float64 trajectory series"):
            load_trajectory_csv(path, meta)

    def test_columns_without_t_refused(self, tmp_path):
        _, _, out = small_ensemble(tmp_path)
        meta = load_manifest(out).trajectories[0]
        path = out / "trajectories.npy"
        original = path.read_bytes()
        assert original.count(b"('t', '<f8'") == 1
        path.write_bytes(original.replace(b"('t', '<f8'", b"('u', '<f8'"))
        columns = ["u", *meta["columns"][1:]]
        with pytest.raises(PersistError, match="trajectories.npy: no t column"):
            load_trajectory_csv(path, {**meta, "columns": columns})

    def test_table_unlike_its_columns_refused(self, tmp_path, monkeypatch):
        _, _, out = small_ensemble(tmp_path)
        meta = load_manifest(out).trajectories[0]
        read = persist._read_array_row

        def one_row_short(*args):
            names, table = read(*args)
            return names, table[1:]

        monkeypatch.setattr(persist, "_read_array_row", one_row_short)
        with pytest.raises(PersistError, match="trajectories.npy: a table of shape"):
            load_trajectory_csv(out / meta["file"], meta)

    def test_record_count_must_be_the_plans(self, tmp_path, capsys):
        # rows of 9 records under a plan of 17: the rows load, the audit refuses
        _, _, out = small_ensemble(tmp_path)
        raw = json.loads((out / "manifest.json").read_text())
        raw["config"]["plan"]["n_steps"] *= 2
        raw["config_hash"] = dict_hash(raw["config"])
        (out / "manifest.json").write_text(json.dumps(raw))
        capsys.readouterr()
        assert cli_run(["audit", "--run-dir", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "error: trajectory seed 40 has a t column of 9 records from 0.0 to 0.4, "
            "not the scenario plan's 17 record times from 0.0 to 0.8\n")
        assert not (out / "audit.json").exists()

    def test_row_must_be_an_int_in_range(self, tmp_path):
        _, _, out = small_ensemble(tmp_path)
        metas = load_manifest(out).trajectories
        # True would read row 1, whose hash is the one in metas[1]
        for meta, row in ((metas[1], True), (metas[0], -1), (metas[2], "2"),
                          (metas[2], 2.0)):
            with pytest.raises(PersistError, match=f"row {row!r} is not among its 5 rows"):
                load_trajectory_csv(out / meta["file"], {**meta, "row": row})

    def test_complex_and_qv_columns_round_trip(self, tmp_path):
        d = builtin_scenario("two-particle-collision").to_dict()
        d["plan"].update({"n_steps": 40, "record_every": 10})
        cfg = from_dict(d)
        stats, recs = cl.run_ensemble(realize(cfg), 3, 0, keep_records=True)
        out = tmp_path / "collision"
        persist_run(recs, build_manifest(cfg, [r.seed for r in recs], "ensemble"), out,
                    stats=stats)
        metas = load_manifest(out).trajectories
        assert {"tshift_re", "tshift_im", "qv_energy"} <= set(metas[0]["columns"])
        for rec, meta in zip(recs, metas):
            stored = load_trajectory_csv(out / meta["file"], meta)
            assert np.iscomplexobj(stored.observables["tshift"])
            expected, got = _series(rec), _series(stored)
            assert expected.keys() == got.keys()
            for k in expected:
                assert np.array_equal(expected[k], got[k]), k

    def test_partition_listed_twice_is_one_column(self, tmp_path):
        d = small_qnd_config().to_dict()
        once = from_dict(d)
        d["bipartitions"] = [["spin"], ["spin"]]
        twice = from_dict(d)
        stats, recs = cl.run_ensemble(realize(twice), 3, 0, keep_records=True)
        assert recs[0].columns.count("entropy_spin") == 1
        persist_run(recs, build_manifest(twice, [r.seed for r in recs], "ensemble"),
                    tmp_path / "ens", stats=stats)
        assert cli_run(["audit", "--run-dir", str(tmp_path / "ens"), "--quiet"]) == 0
        assert (trajectory_csv_text(run_trajectory(realize(twice), seed=2))
                == trajectory_csv_text(run_trajectory(realize(once), seed=2)))

    def test_column_roles_of_ambiguous_names(self):
        roles = _column_roles((
            "t", "norm_pre", "a_re", "a_im", "b_im", "c_re", "branch_up", "x",
            "x_re", "x_im", "entropy_s", "qv_e", "branch_down"))
        assert (roles.t, roles.norm_pre) == (0, 1)
        # a lone _re or _im column is a real observable; a pair overrides
        # an earlier real column of its base name, in that column's place
        assert roles.observables == (("a", 2, 3), ("b_im", 4, None), ("c_re", 5, None),
                                     ("x", 8, 9))
        assert roles.branches == (("up", 6), ("down", 12))
        assert (roles.entropies, roles.qvs) == ((("s", 10),), (("e", 11),))
        # a repeated name stands for its last column
        assert _column_roles(("t", "norm_pre", "t")).t == 2
        with pytest.raises(DimensionError, match="no norm_pre column"):
            _column_roles(("t", "x"))

    def test_schema_2_csv_directory_still_audits(self, tmp_path):
        # the layout written before the ensemble array: one CSV per trajectory
        cfg = small_qnd_config()
        _, recs = cl.run_ensemble(realize(cfg), 20, 50, keep_records=True)
        out = tmp_path / "schema2"
        out.mkdir()
        manifest = build_manifest(cfg, [r.seed for r in recs], "ensemble")
        manifest.schema_version = 2
        for rec in recs:
            name = f"trajectory_seed{rec.seed}.csv"
            (out / name).write_text(trajectory_csv_text(rec), encoding="utf-8")
            manifest.artifacts[name] = _sha256(out / name)
            manifest.trajectories.append({
                "seed": rec.seed, "file": name, "sha256": manifest.artifacts[name],
                "collapsed_branch": rec.collapsed_branch,
                "collapse_step": rec.collapse_step, "plan": {**cfg.plan, "seed": rec.seed},
            })
        raw = {**manifest.to_dict(), "trajectories": manifest.trajectories}
        (out / "manifest.json").write_text(json.dumps(raw))
        assert cli_run(["audit", "--run-dir", str(out), "--quiet"]) == 0
        assert json.loads((out / "audit.json").read_text())["passed"] is True

    def test_failed_write_leaves_no_artifact(self, tmp_path, monkeypatch):
        cfg = small_qnd_config()
        stats, recs = cl.run_ensemble(realize(cfg), 20, 60, keep_records=True)
        out = tmp_path / "ens"

        def fail(payload):  # the first JSON artifact comes after the array
            raise OSError("disk full")

        monkeypatch.setattr(persist, "_json_bytes", fail)
        with pytest.raises(OSError, match="disk full"):
            persist_run(recs, build_manifest(cfg, [r.seed for r in recs], "ensemble"),
                        out, stats=stats)
        assert list(out.iterdir()) == []
        monkeypatch.undo()
        persist_run(recs, build_manifest(cfg, [r.seed for r in recs], "ensemble"), out,
                    stats=stats)
        assert sorted(p.name for p in out.iterdir()) == [
            "ensemble.json", "manifest.json", "trajectories.npy"]
        assert cli_run(["audit", "--run-dir", str(out), "--quiet"]) == 0


@pytest.mark.parametrize("field, value", [
    ("plan", {"dt": 0.001}), ("plan", "str"), ("plan", None),
    ("seed", "abc"), ("seed", 2.5), ("seed", True), ("seed", -1), ("seed", None),
    ("collapse_step", "5"), ("collapse_step", -1), ("collapse_step", 401),
    ("collapse_step", 3.0), ("collapsed_branch", 5), ("norm_drift_mean", "0"),
    ("seed", 41), ("file", "trajectory_seed40.csv"), ("row", 1),
    ("columns", ["t", "norm_pre"]), ("collapsed_branch", "sideways"),
    ("collapse_step", 10 ** 6),
])
def test_malformed_manifest_entry_refused(tmp_path, capsys, field, value):
    # every entry is checked once, by load_manifest, before any row is read
    _, _, out = small_ensemble(tmp_path)
    raw = json.loads((out / "manifest.json").read_text())
    raw["trajectories"][0][field] = value
    (out / "manifest.json").write_text(json.dumps(raw))
    refusal = f"manifest trajectories[0] {field} {value!r} is not "
    if field in ("plan", "seed", "file", "row", "columns"):  # derived: may only be repeated
        refusal += "the run's "
    with pytest.raises(PersistError) as raised:
        load_manifest(out)
    assert str(raised.value).startswith(refusal)
    capsys.readouterr()
    assert cli_run(["audit", "--run-dir", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {refusal}") and err.count("\n") == 1
    assert not (out / "audit.json").exists()


@pytest.mark.parametrize("plan", [
    {"dt": 0.001}, "str", None, [1], {"dt": [0.001], "n_steps": 10},
    {"dt": 0.001, "n_steps": 10, "extra": 1}, {"dt": -1.0, "n_steps": 10},
    {"dt": 0.001, "n_steps": 10, "noise_kind": "pink"},
])
def test_manifest_plan_refusal_is_the_plans_own(plan):
    # the refusal carries the message of IntegrationPlan(**plan), each time
    with pytest.raises((TypeError, ValueError)) as plain:
        IntegrationPlan(**plan)
    manifest = build_manifest(small_qnd_config(), [0], "trajectory")
    manifest.config["plan"] = plan
    manifest.config_hash = dict_hash(manifest.config)
    for _ in range(2):
        with pytest.raises(PersistError) as refusal:
            persist.RunManifest.from_dict(manifest.to_dict())
        assert str(refusal.value) == f"manifest plan is not a plan ({plain.value})"


@pytest.mark.parametrize("step, branch", [(5, None), (None, "up")])
def test_collapse_step_and_branch_set_together(tmp_path, capsys, step, branch):
    # the kernel writes a collapse's step and branch together, or neither
    _, _, out = small_ensemble(tmp_path)
    raw = json.loads((out / "manifest.json").read_text())
    raw["trajectories"][0].update(collapse_step=step, collapsed_branch=branch)
    (out / "manifest.json").write_text(json.dumps(raw))
    refusal = (f"manifest trajectories[0] collapse_step {step!r} and collapsed_branch "
               f"{branch!r} are not both set or both null")
    with pytest.raises(PersistError, match=re.escape(refusal)):
        load_manifest(out)
    capsys.readouterr()
    assert cli_run(["audit", "--run-dir", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {refusal}\n"
    assert not (out / "audit.json").exists()


@pytest.mark.parametrize("kept", [10, 0])
def test_csv_of_another_record_count_refused(tmp_path, capsys, kept):
    # a run CSV cut to ``kept`` of its 51 records, under a manifest whose
    # hashes agree with the cut: the audit (or, with no record, the load)
    # refuses it with one error line
    out = tmp_path / "run"
    assert cli_run(["run", "--config", "qnd-two-level", "--seed", "3",
                    "--out-dir", str(out), "--quiet"]) == 0
    csv = out / "trajectory_seed3.csv"
    lines = csv.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 52
    csv.write_text("\n".join(lines[:1 + kept]) + "\n", encoding="utf-8")
    raw = json.loads((out / "manifest.json").read_text())
    raw["artifacts"][csv.name] = raw["trajectories"][0]["sha256"] = _sha256(csv)
    (out / "manifest.json").write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli_run(["audit", "--run-dir", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("trajectory seed 3 has a t column of 10 records" in err
            and "the scenario plan's 51 record times" in err) if kept else \
        "a table of shape (8, 0) for 8 columns and at least one record" in err
    assert not (out / "audit.json").exists()


def _drop_array(raw):
    del raw["artifacts"]["trajectories.npy"]


@pytest.mark.parametrize("edit, message", [
    (_drop_array, "file 'trajectory_seed40.csv' is not one of the run's artifacts"),
    (lambda raw: raw["trajectories"].__setitem__(0, 5), "is 5, not an object"),
    (lambda raw: raw["trajectories"][0].update(file=5),
     "file 5 is not the run's 'trajectories.npy'"),
], ids=["array-not-an-artifact", "not-an-object", "file-not-a-string"])
def test_manifest_entry_without_a_file_name_refused(tmp_path, capsys, edit, message):
    # an entry stores no file: it is the array when that is an artifact,
    # otherwise the seed's CSV, and it must be one of the run's artifacts
    _, _, out = small_ensemble(tmp_path)
    raw = json.loads((out / "manifest.json").read_text())
    edit(raw)
    (out / "manifest.json").write_text(json.dumps(raw))
    with pytest.raises(PersistError) as refusal:
        load_manifest(out)
    assert str(refusal.value) == f"manifest trajectories[0] {message}"
    capsys.readouterr()
    assert cli_run(["audit", "--run-dir", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: manifest trajectories[0] {message}\n"
    assert not (out / "audit.json").exists()


def test_entry_outside_the_run_refused(tmp_path, capsys):
    # the CSV moved out of the run directory, its entry pointed after it
    out = tmp_path / "run"
    assert cli_run(["run", "--config", "qnd-two-level", "--seed", "3",
                    "--out-dir", str(out), "--quiet"]) == 0
    (tmp_path / "elsewhere").mkdir()
    (out / "trajectory_seed3.csv").rename(tmp_path / "elsewhere" / "trajectory_seed3.csv")
    raw = json.loads((out / "manifest.json").read_text())
    raw["trajectories"][0]["file"] = "../elsewhere/trajectory_seed3.csv"
    (out / "manifest.json").write_text(json.dumps(raw))
    message = ("manifest trajectories[0] file '../elsewhere/trajectory_seed3.csv' "
               "is not the run's 'trajectory_seed3.csv'")
    with pytest.raises(PersistError) as refusal:
        load_manifest(out)
    assert str(refusal.value) == message
    capsys.readouterr()
    assert cli_run(["audit", "--run-dir", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "audit.json").exists()


def _stating_seeds(entries):
    return [{**entry, "seed": seed} for seed, entry in zip(range(40, 45), entries)]


def _swapped(entries):
    return [entries[1], entries[0], *entries[2:]]


@pytest.mark.parametrize("edit, message", [
    (lambda entries: entries[:2], "manifest trajectories[2]: 2 entries for 5 seeds; "
                                  "a run lists one entry per seed"),
    (lambda entries: entries[:1] + entries[2:],
     "manifest trajectories[4]: 4 entries for 5 seeds; a run lists one entry per seed"),
    # entry i is row i: a swap is caught by the row hashes
    (_swapped, "trajectories.npy: row 0 does not match the manifest hash"),
    (lambda entries: entries + entries[:1], "manifest trajectories[5]: 6 entries for "
                                            "5 seeds; a run lists one entry per seed"),
    (lambda entries: _swapped(_stating_seeds(entries)),
     "manifest trajectories[0] seed 41 is not the run's 40"),
], ids=["dropped-tail", "dropped-middle", "swapped", "repeated", "swapped-stating-seeds"])
def test_entries_must_be_the_runs_seeds_in_order(tmp_path, capsys, edit, message):
    _, _, out = small_ensemble(tmp_path)
    raw = json.loads((out / "manifest.json").read_text())
    assert raw["seeds"] == [40, 41, 42, 43, 44]
    raw["trajectories"] = edit(raw["trajectories"])
    (out / "manifest.json").write_text(json.dumps(raw))
    if message.startswith("manifest "):
        with pytest.raises(PersistError) as refusal:
            load_manifest(out)
        assert str(refusal.value) == message
    else:
        message = f"{out / message}"
    capsys.readouterr()
    assert cli_run(["audit", "--run-dir", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "audit.json").exists()


def test_config_that_does_not_hash_to_config_hash_refused(tmp_path, capsys):
    cfg, _, out = small_ensemble(tmp_path)
    raw = json.loads((out / "manifest.json").read_text())
    # the stored dict hashes as the config it came from
    assert dict_hash(raw["config"]) == raw["config_hash"] == cl.config_hash(
        from_dict(raw["config"])) == cl.config_hash(cfg)
    assert raw["config"]["collapse"]["c_scale"] == 1.0
    raw["config"]["collapse"]["c_scale"] = 3.0  # a valid config, another V
    (out / "manifest.json").write_text(json.dumps(raw))
    with pytest.raises(PersistError, match="does not hash to its config_hash"):
        load_manifest(out)
    capsys.readouterr()
    assert cli_run(["audit", "--run-dir", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: manifest config does not hash to its config_hash ")
    assert "Traceback" not in err and not (out / "audit.json").exists()


def _as_schema_3(out):
    """Rewrite the manifest at ``out`` in the layout of schema 3: every entry
    states its seed, plan, file, row and columns, and none its drift."""
    manifest = load_manifest(out)
    plan = manifest.config["plan"]
    raw = {**manifest.to_dict(), "schema_version": 3, "trajectories": [
        {**{k: v for k, v in entry.items() if k != "norm_drift_mean"},
         "plan": {**plan, "seed": entry["seed"]}}
        for entry in manifest.trajectories]}
    del raw["columns"]
    (out / "manifest.json").write_text(json.dumps(raw))
    return raw


def test_schema_3_directory_audits_as_written(tmp_path, capsys):
    cfg, recs, out = small_ensemble(tmp_path)
    assert cli_run(["audit", "--run-dir", str(out), "--quiet"]) == 0
    old = tmp_path / "schema3"
    old.mkdir()
    for name in ("ensemble.json", "trajectories.npy"):
        (old / name).write_bytes((out / name).read_bytes())
    (old / "manifest.json").write_bytes((out / "manifest.json").read_bytes())
    raw = _as_schema_3(old)
    assert set(raw["trajectories"][1]) == {"seed", "plan", "file", "row", "columns",
                                           "sha256", "collapse_step", "collapsed_branch"}
    assert cli_run(["audit", "--run-dir", str(old), "--quiet"]) == 0
    assert (old / "audit.json").read_bytes() == (out / "audit.json").read_bytes()
    meta = load_manifest(old).trajectories[1]
    assert load_trajectory_csv(old / meta["file"], meta).norm_drift_mean == 0.0

    # rerunning into it is another run: its schema differs
    stats, _ = cl.run_ensemble(realize(cfg), 5, 40, keep_records=False)
    with pytest.raises(PersistError, match=r"differs in schema_version 3 vs 4\)"):
        persist_run(recs, build_manifest(cfg, [r.seed for r in recs], "ensemble"), old,
                    stats=stats)

    # an entry whose plan is not the config's is refused, not integrated
    (old / "audit.json").unlink()
    raw["trajectories"][0]["plan"]["dt"] *= 10
    (old / "manifest.json").write_text(json.dumps(raw))
    capsys.readouterr()
    assert cli_run(["audit", "--run-dir", str(old), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: manifest trajectories[0] plan ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (old / "audit.json").exists()


@pytest.mark.parametrize("kind", ["trajectory", "ensemble"])
def test_loaded_record_keeps_its_norm_drift(tmp_path, kind):
    cfg = small_qnd_config()
    if kind == "trajectory":
        stats, recs = None, [run_trajectory(realize(cfg), seed=9)]
    else:
        stats, recs = cl.run_ensemble(realize(cfg), 3, 40, keep_records=True)
    out = tmp_path / kind
    persist_run(recs, build_manifest(cfg, [r.seed for r in recs], kind), out, stats=stats)
    for rec, meta in zip(recs, load_manifest(out).trajectories):
        assert rec.norm_drift_mean != 0.0
        stored = load_trajectory_csv(out / meta["file"], meta)
        assert stored.norm_drift_mean == rec.norm_drift_mean


def test_audit_of_a_config_without_audits_exits_1(tmp_path, capsys):
    d = small_qnd_config().to_dict()
    d["audits"] = []
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(d))
    out = tmp_path / "plain"
    assert cli_run(["ensemble", "--config", str(path), "--n-traj", "4",
                    "--keep-trajectories", "--out-dir", str(out), "--quiet"]) == 0
    capsys.readouterr()
    assert cli_run(["audit", "--run-dir", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: config declares no audits; nothing to certify\n"
    assert not (out / "audit.json").exists()


def test_module_entry_point_prints_the_version():
    env = {**os.environ, "PYTHONPATH": str(Path(cl.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "collapse_lab", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0 and done.stdout == f"{cl.__version__}\n"


def test_import_loads_no_scipy_module_beyond_sparse():
    """``import collapse_lab`` adds no ``scipy.*`` module to those that
    ``import numpy, scipy.sparse`` loads: ``scipy.integrate`` and
    ``scipy.special`` load in the functions that call them.  A fresh
    interpreter, since this test session has imported scipy.integrate."""
    code = ("import sys\n"
            "import numpy, scipy.sparse\n"
            "before = set(sys.modules)\n"
            "import collapse_lab\n"
            "print(sorted(m for m in set(sys.modules) - before"
            " if m.split('.')[0] == 'scipy'))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cl.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
