import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import collapse_lab as cl
from collapse_lab import persist
from collapse_lab.cli import cli_run
from collapse_lab.config import from_dict
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

    def test_refusal_names_what_differs(self, tmp_path):
        cfg = small_qnd_config()
        sc = realize(cfg)
        rec = run_trajectory(sc, seed=9)
        out = tmp_path / "run"
        persist_run([rec], build_manifest(cfg, [9], "trajectory"), out)
        raw = json.loads((out / "manifest.json").read_text())
        raw["artifacts"]["summary.json"] = "0" * 64
        (out / "manifest.json").write_text(json.dumps(raw))
        with pytest.raises(PersistError,
                           match=r"\(differs in artifacts summary\.json\); refusing"):
            persist_run([rec], build_manifest(cfg, [9], "trajectory"), out)
        rec2 = run_trajectory(sc, seed=10)
        with pytest.raises(PersistError, match=(
                r"differs in seeds \[9\] vs \[10\]; artifacts summary\.json, "
                r"trajectory_seed10\.csv, trajectory_seed9\.csv\)")):
            persist_run([rec2], build_manifest(cfg, [10], "trajectory"), out)

    @pytest.mark.parametrize("name", builtin_names())
    def test_plan_dict_is_asdict(self, name):
        plan = realize(builtin_scenario(name)).plan
        assert persist._plan_dict(plan) == asdict(plan)

    def test_corrupt_manifest_not_overwritten(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "manifest.json").write_text("{broken")
        cfg = small_qnd_config()
        rec = run_trajectory(realize(cfg), seed=9)
        with pytest.raises(PersistError):
            persist_run([rec], build_manifest(cfg, [9], "trajectory"), out)

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
        ["--a", "1", "--t", "1", "--sweep-xf", "0", "1", "-1"]])
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

    def test_artifacts_of_each_command(self, tmp_path, capsys):
        # an ensemble's statistics are ensemble.json: it writes no
        # summary.json; a run does, with its collapse and terminal values
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
            "run": ["manifest.json", "summary.json", "trajectory_seed4.csv"],
            "ens": ["ensemble.json", "manifest.json"],
            "kept": ["ensemble.json", "manifest.json", "trajectories.npy"],
        }
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert [r["seed"] for r in summary["runs"]] == [4]
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
        raw = json.loads((out / "manifest.json").read_text())
        meta = raw["trajectories"][0]
        meta.update(file="summary.json", sha256=raw["artifacts"]["summary.json"])
        (out / "manifest.json").write_text(json.dumps(raw))
        with pytest.raises(PersistError, match="not a trajectory CSV"):
            load_trajectory_csv(out / meta["file"], meta)
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
        assert manifest.schema_version == 3
        assert set(manifest.artifacts) == {"trajectory_seed9.csv", "summary.json"}
        for name, digest in manifest.artifacts.items():
            assert digest == _sha256(out / name)
        assert manifest.trajectories[0]["sha256"] == _sha256(out / "trajectory_seed9.csv")

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
        del meta["sha256"]
        with pytest.raises(PersistError, match="no content hash"):
            load_trajectory_csv(csv, meta)


def small_ensemble(tmp_path):
    """A persisted 5-trajectory qnd ensemble: (config, records, run directory)."""
    cfg = small_qnd_config()
    stats, recs = cl.run_ensemble(realize(cfg), 5, 40, keep_records=True)
    out = tmp_path / "ens"
    persist_run(recs, build_manifest(cfg, [r.seed for r in recs], "ensemble"), out,
                stats=stats)
    return cfg, recs, out


def _series(rec) -> dict:
    out = {"t": rec.times, "norm_pre": rec.norms_pre_renorm}
    for group, prefix in ((rec.observables, ""), (rec.branch_weights, "branch_"),
                          (rec.entropy_series, "entropy_"), (rec.qv_series, "qv_")):
        out.update({prefix + k: v for k, v in group.items()})
    return out


class TestEnsembleArray:
    def test_one_array_round_trips_every_row(self, tmp_path):
        _, recs, out = small_ensemble(tmp_path)
        manifest = load_manifest(out)
        assert sorted(p.name for p in out.iterdir()) == [
            "ensemble.json", "manifest.json", "trajectories.npy"]
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

    def test_record_count_must_be_the_plans(self, tmp_path):
        _, _, out = small_ensemble(tmp_path)
        meta = load_manifest(out).trajectories[0]
        plan = {**meta["plan"], "n_steps": 2 * meta["plan"]["n_steps"]}
        with pytest.raises(PersistError, match="9 records, but the plan records 17"):
            load_trajectory_csv(out / meta["file"], {**meta, "plan": plan})

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
                "collapse_step": rec.collapse_step, "plan": asdict(rec.plan),
            })
        (out / "manifest.json").write_text(json.dumps(manifest.to_dict()))
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
    ("collapse_step", 3.0), ("collapsed_branch", 5),
])
def test_malformed_manifest_entry_refused(tmp_path, capsys, field, value):
    _, _, out = small_ensemble(tmp_path)
    raw = json.loads((out / "manifest.json").read_text())
    raw["trajectories"][0][field] = value
    (out / "manifest.json").write_text(json.dumps(raw))
    meta = load_manifest(out).trajectories[0]
    with pytest.raises(PersistError, match=f"trajectories.npy: manifest {field} "):
        load_trajectory_csv(out / "trajectories.npy", meta)
    capsys.readouterr()
    assert cli_run(["audit", "--run-dir", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'trajectories.npy'}: manifest {field} ")
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
    for _ in range(2):
        with pytest.raises(PersistError) as refusal:
            persist._entry_plan("x.npy", {"seed": 0, "plan": plan})
        assert str(refusal.value) == f"x.npy: manifest plan is not a plan ({plain.value})"


def _drop_file(entry):
    del entry["file"]
    return entry


@pytest.mark.parametrize("bad_entry, message", [
    (_drop_file, "file None is not a file name"),
    (lambda entry: 5, "is 5, not an object"),
    (lambda entry: {**entry, "file": 5}, "file 5 is not a file name"),
], ids=["no-file", "not-an-object", "file-not-a-string"])
def test_manifest_entry_without_a_file_name_refused(tmp_path, capsys, bad_entry, message):
    _, _, out = small_ensemble(tmp_path)
    raw = json.loads((out / "manifest.json").read_text())
    raw["trajectories"][0] = bad_entry(raw["trajectories"][0])
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
               "is not one of the run's artifacts")
    with pytest.raises(PersistError) as refusal:
        load_manifest(out)
    assert str(refusal.value) == message
    capsys.readouterr()
    assert cli_run(["audit", "--run-dir", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "audit.json").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda entries: entries[:2], "trajectories[2]: 2 entries for 5 seeds; a run "
                                  "lists one entry per seed"),
    (lambda entries: entries[:1] + entries[2:], "trajectories[1] seed 42 is not "
                                                "seeds[1] of [40, ..., 44] (5 seeds)"),
    (lambda entries: [entries[1], entries[0], *entries[2:]],
     "trajectories[0] seed 41 is not seeds[0] of [40, ..., 44] (5 seeds)"),
    (lambda entries: entries + entries[:1], "trajectories[5] seed 40 is not "
                                            "seeds[5] of [40, ..., 44] (5 seeds)"),
], ids=["dropped-tail", "dropped-middle", "swapped", "repeated"])
def test_entries_must_be_the_runs_seeds_in_order(tmp_path, capsys, edit, message):
    _, _, out = small_ensemble(tmp_path)
    raw = json.loads((out / "manifest.json").read_text())
    assert raw["seeds"] == [40, 41, 42, 43, 44]
    raw["trajectories"] = edit(raw["trajectories"])
    (out / "manifest.json").write_text(json.dumps(raw))
    with pytest.raises(PersistError) as refusal:
        load_manifest(out)
    assert str(refusal.value) == f"manifest {message}"
    capsys.readouterr()
    assert cli_run(["audit", "--run-dir", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: manifest {message}\n"


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
