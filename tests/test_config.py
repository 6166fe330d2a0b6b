import copy
import json
import warnings

import pytest

from collapse_lab.cli import cli_run
from collapse_lab.config import config_hash, from_dict, load_config, serialize
from collapse_lab.errors import CollapseLabError, ConfigError
from collapse_lab.scenarios import builtin_names, builtin_scenario, realize


def minimal_qnd_dict():
    return {
        "name": "minimal",
        "space": {
            "subsystems": [
                {"label": "spin", "kind": "spin", "dim": 2},
                {"label": "pointer", "kind": "lattice1d", "dim": 2,
                 "grid_spacing": 1.0},
            ]
        },
        "operators": {
            "terms": [
                {"type": "spin_coupling", "spin_subsystem": "spin",
                 "pointer_subsystem": "pointer", "strength": 2.0}
            ]
        },
        "collapse": {"enabled": True, "c_scale": 1.0, "tau0": 1.0},
        "initial_state": {
            "kind": "product",
            "factors": {"spin": [1.0, 1.0], "pointer": [0.0, 1.0]},
        },
        "plan": {"dt": 0.001, "n_steps": 100, "seed": 0, "record_every": 10},
    }


def test_minimal_config_valid():
    cfg = from_dict(minimal_qnd_dict())
    assert cfg.name == "minimal"
    assert cfg.collapse_enabled
    assert [s["label"] for s in cfg.space["subsystems"]] == ["spin", "pointer"]


def test_unknown_key_named_in_error():
    d = minimal_qnd_dict()
    d["space"]["subsystems"][0]["massess"] = 2.0
    with pytest.raises(ConfigError) as err:
        from_dict(d)
    assert any("massess" in msg for msg in err.value.errors)


def test_all_errors_collected():
    d = minimal_qnd_dict()
    d["space"]["subsystems"][0]["massess"] = 2.0
    d["plan"]["dt"] = -1.0
    d["observables"] = [{"name": "x", "kind": "nope"}]
    with pytest.raises(ConfigError) as err:
        from_dict(d)
    text = "\n".join(err.value.errors)
    assert "massess" in text
    assert "dt" in text
    assert "nope" in text


def test_round_trip_hash_stable(tmp_path):
    cfg = builtin_scenario("qnd-two-level")
    text = serialize(cfg)
    path = tmp_path / "qnd.json"
    path.write_text(text)
    cfg2 = load_config(path)
    assert config_hash(cfg) == config_hash(cfg2)
    # key order must not matter
    shuffled = json.loads(text)
    shuffled = dict(reversed(list(shuffled.items())))
    cfg3 = from_dict(shuffled)
    assert config_hash(cfg) == config_hash(cfg3)


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"space": [,]}')
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert any("line 1" in msg for msg in err.value.errors)


def test_config_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    # a Latin-1 byte is a parse error at its offset, not a traceback
    data = serialize(builtin_scenario("qnd-two-level")).encode("utf-8")
    data = data.replace(b'"qnd-two-level"', b'"qnd-\xe9t\xe9"')
    path = tmp_path / "latin1.json"
    path.write_bytes(data)
    at = data.index(b"\xe9")
    message = f"parse error at byte {at}: the file is not UTF-8 (invalid continuation byte)"
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.errors == [message]
    for command in (["run"], ["ensemble", "--n-traj", "4"]):
        code = cli_run([*command, "--config", str(path),
                        "--out-dir", str(tmp_path / "out"), "--quiet"])
        assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_unknown_subsystem_in_term():
    d = minimal_qnd_dict()
    d["operators"]["terms"][0]["spin_subsystem"] = "ghost"
    with pytest.raises(ConfigError) as err:
        from_dict(d)
    assert any("ghost" in msg for msg in err.value.errors)


def test_interaction_needs_distinct_subsystems():
    d = minimal_qnd_dict()
    d["space"]["subsystems"].append(
        {"label": "p2", "kind": "lattice1d", "dim": 4, "grid_spacing": 1.0}
    )
    d["operators"]["terms"] = [
        {"type": "interaction", "subsystem_i": "p2", "subsystem_j": "p2",
         "potential": {"family": "gaussian_well", "depth": 1.0, "width": 1.0}}
    ]
    with pytest.raises(ConfigError) as err:
        from_dict(d)
    assert any("distinct" in msg for msg in err.value.errors)


def test_branches_must_partition():
    d = minimal_qnd_dict()
    d["branches"] = [{"label": "up", "subsystem": "spin", "sites": [0]}]
    with pytest.raises(ConfigError) as err:
        from_dict(d)
    assert any("partition" in msg for msg in err.value.errors)


def test_factor_length_checked():
    d = minimal_qnd_dict()
    d["initial_state"]["factors"]["spin"] = [1.0, 0.0, 0.0]
    with pytest.raises(ConfigError):
        from_dict(d)


def test_plan_divisibility_checked():
    d = minimal_qnd_dict()
    d["plan"]["record_every"] = 7
    with pytest.raises(ConfigError):
        from_dict(d)


def test_shift_sector_requires_periodic():
    d = minimal_qnd_dict()
    d["initial_state"]["shift_sector"] = 0
    with pytest.raises(ConfigError) as err:
        from_dict(d)
    assert any("periodic" in msg for msg in err.value.errors)


def test_quasimomentum_audit_requires_periodic():
    d = minimal_qnd_dict()
    d["audits"] = [{"name": "tq", "kind": "total_quasimomentum"}]
    with pytest.raises(ConfigError) as err:
        from_dict(d)
    assert any("periodic" in msg for msg in err.value.errors)


# Observable and audit names are columns of the trajectory table, named
# beside t, norm_pre, branch_<label>, entropy_<side>, qv_<name>, the
# <name>_re/<name>_im halves of a complex series and the <audit>.<label>
# marginals of a quasimomentum audit.
RESERVED_SERIES_NAMES = ["t", "norm_pre", "branch_up", "entropy_spin", "qv_e",
                         "x_re", "x_im", "tshift.particle"]


@pytest.mark.parametrize("section", ["observables", "audits"])
@pytest.mark.parametrize("name", RESERVED_SERIES_NAMES)
def test_reserved_series_name_refused(section, name):
    d = minimal_qnd_dict()
    d[section] = [{"name": name, "kind": "spin_z", "subsystem": "spin"}]
    with pytest.raises(ConfigError) as err:
        from_dict(d)
    assert err.value.errors == [
        f"{section}[0].name: {name!r} is reserved: names may not be 't' or "
        "'norm_pre', start with 'branch_', 'entropy_' or 'qv_', end with '_re' "
        "or '_im', or contain '.'"
    ]


@pytest.mark.parametrize("name", ["branch", "entropy", "qv"])
def test_complex_series_named_like_a_column_stem_refused(name):
    # a complex total_shift named branch is recorded as branch_re and
    # branch_im, which read back as two branches
    d = builtin_scenario("two-particle-collision").to_dict()
    d["observables"].append({"name": name, "kind": "total_shift"})
    with pytest.raises(ConfigError) as err:
        from_dict(d)
    assert [e.split(": ")[0] for e in err.value.errors] == [
        f"observables[{len(d['observables']) - 1}].name"]


def test_audit_named_like_an_observable_refused():
    # an energy audit named x1 used to audit the position series x1
    d = builtin_scenario("two-particle-collision").to_dict()
    d["audits"][0]["name"] = "x1"
    with pytest.raises(ConfigError) as err:
        from_dict(d)
    assert err.value.errors == ["audits[0].name: 'x1' is also the name of an observable"]


def test_names_near_the_reserved_ones_accepted():
    d = minimal_qnd_dict()
    names = ["tt", "norm", "my_branch", "entropy", "qv", "x_real", "re", "t_"]
    d["observables"] = [{"name": n, "kind": "spin_z", "subsystem": "spin"}
                        for n in names]
    d["audits"] = [{"name": "sz_audit", "kind": "spin_z", "subsystem": "spin"}]
    cfg = from_dict(d)
    assert [o.name for o in realize(cfg).observables] == [*names, "sz_audit"]



def _renamed(obj, old: str, new: str):
    """``obj`` with every key and string value equal to ``old`` renamed."""
    if isinstance(obj, dict):
        return {new if k == old else k: _renamed(v, old, new) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_renamed(v, old, new) for v in obj]
    return new if obj == old else obj


@pytest.mark.parametrize("breaker", [",", "\n", "\r"])
@pytest.mark.parametrize("path, old", [
    ("space.subsystems[1].label", "pointer"),
    ("branches[0].label", "up"),
    ("observables[0].name", "sz"),
    ("audits[0].name", "sz_audit"),
])
def test_names_that_split_the_run_csv_refused(breaker, path, old):
    # a run CSV joins its header with ',' and its lines with '\n'
    name = f"{old[0]}{breaker}{old[1:]}"
    d = _renamed(builtin_scenario("qnd-two-level").to_dict(), old, name)
    with pytest.raises(ConfigError) as err:
        from_dict(d)
    assert err.value.errors == [
        f"{path}: {name!r} holds ',', a newline or a carriage return, which "
        "would split the columns of the run CSV"
    ]

def test_plus_in_a_subsystem_label_refused():
    # "a+b" would name the entropy column of both {a+b} and {a, b}
    d = {
        "space": {"subsystems": [{"label": label, "kind": "spin", "dim": 2}
                                 for label in ("a", "b", "a+b", "c")]},
        "initial_state": {"kind": "product", "factors": {
            label: [1.0, 0.0] for label in ("a", "b", "a+b", "c")}},
        "plan": {"dt": 0.001, "n_steps": 10},
        "bipartitions": [["a+b"], ["a", "b"]],
    }
    with pytest.raises(ConfigError) as err:
        from_dict(d)
    assert err.value.errors == [
        "space.subsystems[2].label: 'a+b' holds '+', which joins the labels of a "
        "bipartition's entropy column"
    ]
    d["space"]["subsystems"][2]["label"] = "ab"
    d["initial_state"]["factors"]["ab"] = d["initial_state"]["factors"].pop("a+b")
    d["bipartitions"] = [["ab"], ["a", "b"]]
    assert realize(from_dict(d)).bipartitions[1].name() == "a+b"


def test_amplitude_pairs_normalized():
    d = minimal_qnd_dict()
    d["initial_state"]["factors"]["spin"] = [[1.0, 0.5], 0.25]
    cfg = from_dict(d)
    assert cfg.initial_state["factors"]["spin"] == [[1.0, 0.5], [0.25, 0.0]]


def test_external_potential_flag():
    d = minimal_qnd_dict()
    d["operators"]["terms"].append(
        {"type": "external_potential", "subsystem": "pointer",
         "samples": [0.0, 1.0]}
    )
    cfg = from_dict(d)
    assert cfg.has_external_potential


BUILTIN_HASHES = {
    "qnd-two-level": "8f3206d545f596c40741ecb4d289ee76822effe41ef40acf6a2bcff9619c79e5",
    "beamsplitter": "50f5f1f813c6cd786f2c9f8e36b011bc133274b55670135d5f3120a9d27b8e00",
    "two-particle-collision":
        "301352b17a03a895c385b984903bdd3670764eff0592dd902a03b0d218cf2900",
    "stern-gerlach": "0551aa23274ccb5939df48b9af1898d33bf1132e9dcacd9cd9b52defd5112ab6",
    "free-packet": "9f323fe91197785ad2cf2e9f59c7b59ffcee5c470d1bd77bc23ac612fffa9e89",
}


@pytest.mark.parametrize("name", sorted(BUILTIN_HASHES))
def test_builtin_hashes_pinned(name):
    # manifests of stored runs carry these; a moved byte orphans them
    assert config_hash(builtin_scenario(name)) == BUILTIN_HASHES[name]


def set_at(d, path, value):
    for key in path[:-1]:
        d = d[key]
    d[path[-1]] = value


def with_lattice_extras(d):
    d["space"]["subsystems"][1]["periodic"] = True
    d["space"]["subsystems"][1]["x_min"] = 0.0
    d["operators"]["terms"].append(
        {"type": "external_potential", "subsystem": "pointer", "samples": [0.0, 1.0]})
    return d


@pytest.mark.parametrize("path", [
    ("space", "subsystems", 1, "x_min"),
    ("operators", "terms", 1, "samples", 0),
    ("initial_state", "factors", "spin", 0),
    ("operators", "terms", 0, "strength"),
    ("collapse", "c_scale"),
    ("plan", "collapse_threshold"),
])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_numbers_refused(path, bad):
    d = with_lattice_extras(minimal_qnd_dict())
    from_dict(d)  # valid before the edit
    set_at(d, path, [bad, 0.0] if path[-2:] == ("spin", 0) else bad)
    with pytest.raises(ConfigError) as err:
        from_dict(d)
    assert any("finite" in msg for msg in err.value.errors)


def test_load_config_refuses_nan_literal(tmp_path):
    text = json.dumps(with_lattice_extras(minimal_qnd_dict()))
    path = tmp_path / "nan.json"
    path.write_text(text.replace('"x_min": 0.0', '"x_min": NaN'))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert any(msg.startswith("space.subsystems[1].x_min") for msg in err.value.errors)


@pytest.mark.parametrize("path", [
    ("space", "subsystems", 1, "periodic"),
    ("collapse", "enabled"),
])
@pytest.mark.parametrize("bad", ["false", 0, 1, None])
def test_flags_must_be_json_booleans(path, bad):
    d = minimal_qnd_dict()
    set_at(d, path, bad)
    with pytest.raises(ConfigError) as err:
        from_dict(d)
    assert any(path[-1] in msg for msg in err.value.errors)


def test_plan_seed_must_be_nonnegative_integer():
    for bad in (-1, 2.5, True):
        d = minimal_qnd_dict()
        d["plan"]["seed"] = bad
        with pytest.raises(ConfigError) as err:
            from_dict(d)
        assert any(msg.startswith("plan.seed") for msg in err.value.errors)


@pytest.mark.parametrize("section", ["space", "plan", "initial_state", "collapse",
                                     "operators"])
@pytest.mark.parametrize("bad", [None, [], "x"])
def test_section_that_is_not_an_object_refused_by_name(section, bad):
    d = minimal_qnd_dict()
    d[section] = bad
    with pytest.raises(ConfigError) as err:
        from_dict(d)
    assert f"{section}: expected an object" in err.value.errors


def test_shift_sector_requires_one_site_count():
    d = builtin_scenario("two-particle-collision").to_dict()
    d["space"]["subsystems"][1]["dim"] = 32
    d["initial_state"]["shift_sector"] = 0
    with pytest.raises(ConfigError) as err:
        from_dict(d)
    assert any("one site count" in msg for msg in err.value.errors)


def test_collapse_potential_without_collapse_reported_with_other_errors():
    d = minimal_qnd_dict()
    d["collapse"]["enabled"] = False
    d["observables"] = [{"name": "v", "kind": "collapse_potential"}]
    d["plan"]["dt"] = -1.0
    with pytest.raises(ConfigError) as err:
        from_dict(d)
    text = "\n".join(err.value.errors)
    assert "needs collapse enabled" in text
    assert "plan.dt" in text


def test_collapse_section_absent_means_disabled_present_means_enabled():
    d = minimal_qnd_dict()
    del d["collapse"]
    assert from_dict(d).collapse == {"enabled": False, "c_scale": 1.0, "tau0": 1.0}
    d["collapse"] = {}
    assert from_dict(d).collapse == {"enabled": True, "c_scale": 1.0, "tau0": 1.0}


MUTATION_VALUES = [None, True, "x", -1, 0, 2.5, float("nan"), [], {}, ["x"], [[1]],
                   {"a": 1}]


def _value_paths(node, prefix=()):
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _value_paths(child, prefix + (key,))


def _names_a_subsystem(path) -> bool:
    """Whether the value at path is a subsystem label: a subsystem's own
    ``label``, a bipartition item, or a ``subsystem``, ``subsystem_i``,
    ``subsystem_j`` or ``*_subsystem`` field."""
    key = path[-1]
    return ((path[0] == "bipartitions" and len(path) == 3)
            or (path[:2] == ("space", "subsystems") and key == "label")
            or key in ("subsystem", "subsystem_i", "subsystem_j")
            or (isinstance(key, str) and key.endswith("_subsystem")))


def _label_swaps(canonical):
    """Each label-valued field, and each key of the product factors, set in
    turn to each other label the config declares."""
    labels = [s["label"] for s in canonical["space"]["subsystems"]]
    for path in filter(_names_a_subsystem, _value_paths(canonical)):
        d = canonical
        for key in path:
            d = d[key]
        for other in labels:
            if other != d:
                swapped = copy.deepcopy(canonical)
                set_at(swapped, path, other)
                yield path, other, swapped
    for key in canonical["initial_state"].get("factors", {}):
        for other in labels:
            if other != key:
                swapped = copy.deepcopy(canonical)
                factors = swapped["initial_state"]["factors"]
                swapped["initial_state"]["factors"] = {
                    (other if k == key else k): v for k, v in factors.items()}
                yield ("initial_state", "factors", key), other, swapped


def _refused_or_realized(d) -> str | None:
    """None if d gives a ConfigError, or a config that realizes or is refused
    with a CollapseLabError; otherwise where and what else was raised."""
    try:
        cfg = from_dict(d)
    except ConfigError:
        return None
    except Exception as exc:
        return f"from_dict: {exc!r}"
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            realize(cfg)
    except CollapseLabError:
        pass
    except Exception as exc:
        return f"realize: {exc!r}"
    return None


def test_every_single_value_mutation_is_refused_or_realized():
    """Replacing any one value of a built-in by any of MUTATION_VALUES, or
    any one subsystem label by another declared label, must give a
    ConfigError, or a config that realizes or is refused with a
    CollapseLabError: never another exception."""
    escapes = []
    n = 0
    for name in builtin_names():
        canonical = builtin_scenario(name).to_dict()
        for path in _value_paths(canonical):
            for value in MUTATION_VALUES:
                n += 1
                d = copy.deepcopy(canonical)
                set_at(d, path, copy.deepcopy(value))
                if (escape := _refused_or_realized(d)) is not None:
                    escapes.append((name, path, value, escape))
    assert n == 3984
    swaps = 0
    for name in builtin_names():
        for path, other, d in _label_swaps(builtin_scenario(name).to_dict()):
            swaps += 1
            if (escape := _refused_or_realized(d)) is not None:
                escapes.append((name, path, other, escape))
    assert swaps == 42
    assert escapes == []


def _spin3(d):
    """qnd-two-level with a 3-level spin and nothing left that needs dim 2."""
    d["space"]["subsystems"][0]["dim"] = 3
    d["initial_state"]["factors"]["spin"].append([0.0, 0.0])
    d["operators"]["terms"] = []
    d["observables"] = [o for o in d["observables"] if o["kind"] != "spin_z"]
    d["audits"] = []
    d["branches"][1]["sites"] = [1, 2]


def _photon3(d):
    """beamsplitter with a 3-level photon, its branches partitioning it."""
    d["space"]["subsystems"][0]["dim"] = 3
    d["branches"][1]["sites"] = [1, 2]


_SPIN_Z = {"name": "sz", "kind": "spin_z", "subsystem": "spin"}
_SPIN_COUPLING = {"type": "spin_coupling", "spin_subsystem": "spin",
                  "pointer_subsystem": "pointer", "strength": 1.0}

# scenario, the one path refused, edit: each a config whose space, operators
# or state realize could not build.  A refused subsystem fails every field
# that names it without a second message.
REALIZE_REFUSALS = {
    "one-site lattice named by a term, observables and factors": (
        "free-packet", "space.subsystems[0]",
        lambda d: d["space"]["subsystems"][0].update(dim=1)),
    "one-site pointer beside a bipartition of the spin": (
        "qnd-two-level", "space.subsystems[1]",
        lambda d: d["space"]["subsystems"][1].update(dim=1)),
    "subsystem of an unknown kind named by terms and an observable": (
        "two-particle-collision", "space.subsystems[1].kind",
        lambda d: d["space"]["subsystems"][1].update(kind="bogus")),
    "momentum on a hard-wall lattice": (
        "stern-gerlach", "observables[2].subsystem",
        lambda d: d["observables"].append(
            {"name": "p", "kind": "momentum", "subsystem": "pointer"})),
    "total_shift beside a hard-wall lattice": (
        "stern-gerlach", "observables[2]",
        lambda d: d["observables"].append({"name": "ts", "kind": "total_shift"})),
    "spin_z observable on a 3-level spin": (
        "qnd-two-level", "observables[1].subsystem",
        lambda d: (_spin3(d), d["observables"].append(_SPIN_Z))),
    "spin_z audit on a 3-level spin": (
        "qnd-two-level", "audits[0].subsystem",
        lambda d: (_spin3(d), d["audits"].append(_SPIN_Z))),
    "spin_coupling of a 3-level spin": (
        "qnd-two-level", "operators.terms[0].spin_subsystem",
        lambda d: (_spin3(d), d["operators"]["terms"].append(_SPIN_COUPLING))),
    "interaction of periodic lattices on two grids": (
        "two-particle-collision", "operators.terms[2]",
        lambda d: d["space"]["subsystems"][1].update(dim=32)),
    "two-branch state on a 3-level branch subsystem": (
        "beamsplitter", "initial_state.branch_subsystem", _photon3),
    "two-mode mirror of 3 levels": (
        "beamsplitter", "initial_state.mirror_subsystem",
        lambda d: d["space"]["subsystems"][1].update(dim=3)),
    "two-branch mirror on the branch subsystem": (
        "beamsplitter", "initial_state.mirror_subsystem",
        lambda d: d["initial_state"].update(mirror_subsystem="photon")),
}


def test_three_level_spin_realizes():
    d = builtin_scenario("qnd-two-level").to_dict()
    _spin3(d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # _spin3 leaves no interaction: V is zero
        realize(from_dict(d))


@pytest.mark.parametrize("case", sorted(REALIZE_REFUSALS))
def test_series_and_terms_realize_cannot_build_refused(case):
    name, path, edit = REALIZE_REFUSALS[case]
    d = builtin_scenario(name).to_dict()
    edit(d)
    with pytest.raises(ConfigError) as err:
        from_dict(d)
    assert [e.split(": ")[0] for e in err.value.errors] == [path]


def test_two_refusals_reported_together_exit_1(tmp_path, capsys):
    d = builtin_scenario("stern-gerlach").to_dict()
    for case in ("momentum on a hard-wall lattice", "total_shift beside a hard-wall lattice"):
        REALIZE_REFUSALS[case][2](d)
    path = tmp_path / "two.json"
    path.write_text(json.dumps(d))
    code = cli_run(["run", "--config", str(path), "--out-dir", str(tmp_path / "out"),
                    "--quiet"])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    assert [e.split(": ")[1] for e in err.splitlines()] == [
        "observables[2].subsystem", "observables[3]"]
