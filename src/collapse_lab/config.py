"""Declarative scenario configuration: parsing, validation, canonical hashing.

Configs are JSON documents.  Each section is read by a key table that
gives every key a rule and a default (or marks it required or optional);
one walker applies the tables, so this module is the only place that
knows a default or a value rule.  Validation is strict (unknown keys are
rejected by name, numbers must be finite) and exhaustive: all problems
are collected and reported together in a :class:`ConfigError` instead of
stopping at the first.  Loading normalizes the document (defaults
filled, amplitudes as [re, im] pairs), so ``serialize(load(x))`` is
canonical and the content hash is stable across key order.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from collections.abc import Mapping
from typing import Any

from .errors import ConfigError, OperatorError
from .hilbert import SubsystemSpec
from .integrator import DEFAULT_COLLAPSE_THRESHOLD, IntegrationPlan
from .operators import pair_potential_from_config

__all__ = ["ScenarioConfig", "load_config", "from_dict", "serialize", "config_hash"]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated, normalized scenario description.

    Sections are stored as plain normalized dicts/tuples so the config can
    be hashed and serialized untouched; every default is already filled
    in, and keys left out of the canonical form (``x_min``, kinetic
    ``mass``, ``mirror_width``, ``shift_sector``) are absent rather than
    null.  Operator and state construction happens in the scenarios
    module.  Only :func:`from_dict` constructs one.
    """

    schema_version: int
    name: str
    space: dict
    operators: dict
    collapse: dict
    initial_state: dict
    plan: dict
    observables: tuple
    branches: tuple
    bipartitions: tuple
    audits: tuple

    def to_dict(self) -> dict:
        """The sections, in field order, as one JSON document."""
        return _deep_copy(vars(self))

    def integration_plan(self) -> IntegrationPlan:
        return IntegrationPlan(**self.plan)

    @property
    def collapse_enabled(self) -> bool:
        return self.collapse["enabled"]

    @property
    def has_external_potential(self) -> bool:
        return any(t["type"] == "external_potential" for t in self.operators["terms"])


def _deep_copy(obj):
    return json.loads(json.dumps(obj))


def load_config(path) -> ScenarioConfig:
    """Load and validate a JSON config file.

    Parse errors carry line/column; validation reports every problem.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    return from_dict(raw)


def serialize(config: ScenarioConfig) -> str:
    """Canonical JSON text (sorted keys, stable float formatting)."""
    return json.dumps(config.to_dict(), sort_keys=True, indent=2)


def config_hash(config: ScenarioConfig) -> str:
    """Content-derived hash, stable across key order."""
    return dict_hash(config.to_dict())


def dict_hash(raw) -> str:
    """sha256 of ``raw``'s canonical JSON: sorted keys, no spaces."""
    compact = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(compact.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# value rules: each returns the canonical value or raises _Invalid
# --------------------------------------------------------------------------

class _Invalid(Exception):
    """A value broke its key's rule; the message is reported under its path."""


def _number(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise _Invalid(f"expected a number, got {type(v).__name__}")
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise _Invalid(f"expected a finite number, got {v!r}")
    return x


def _positive(v) -> float:
    x = _number(v)
    if not x > 0:
        raise _Invalid("must be > 0")
    return x


def _fraction(v) -> float:
    x = _number(v)
    if not 0.0 <= x <= 1.0:
        raise _Invalid("expected a number in [0, 1]")
    return x


def _integer(low=None):
    def rule(v) -> int:
        x = _number(v)
        if x != int(x):
            raise _Invalid("expected an integer")
        if low is not None and x < low:
            raise _Invalid(f"must be >= {low}")
        return int(v)
    return rule


def _boolean(v) -> bool:
    if not isinstance(v, bool):
        raise _Invalid(f"expected true or false, got {v!r}")
    return v


def _string(v) -> str:
    if not isinstance(v, str):
        raise _Invalid(f"expected a string, got {type(v).__name__}")
    return v


def _name(v) -> str:
    if not (isinstance(v, str) and v):
        raise _Invalid("expected a non-empty string")
    return v


def _enum(*choices):
    def rule(v):
        if isinstance(v, bool) or v not in choices:
            raise _Invalid(f"expected one of {list(choices)}, got {v!r}")
        return v
    return rule


def _mapping(v) -> Mapping:
    if not isinstance(v, Mapping):
        raise _Invalid("expected an object")
    return v


def _numbers(v) -> list[float]:
    if not isinstance(v, list):
        raise _Invalid("expected a list of numbers")
    return [_number(x) for x in v]


def _amplitudes(v) -> list[list[float]]:
    """Numbers or [re, im] pairs, normalized to pairs."""
    if not isinstance(v, list):
        raise _Invalid("expected an amplitude array")
    pairs = [x if isinstance(x, list) and len(x) == 2 else [x, 0.0] for x in v]
    return [[_number(re), _number(im)] for re, im in pairs]


def _sites(v) -> list[int]:
    if not (isinstance(v, list) and v
            and all(isinstance(s, int) and not isinstance(s, bool) for s in v)):
        raise _Invalid("expected a non-empty list of integers")
    return sorted(v)


def _potential(v) -> dict:
    """A pair-potential family and its parameters, checked by building it."""
    if not isinstance(v, Mapping) or not isinstance(v.get("family"), str):
        raise _Invalid("expected an object with a 'family'")
    params = {k: p for k, p in v.items() if k != "family"}
    for p in params.values():
        if isinstance(p, list):
            _numbers(p)
        else:
            _number(p)
    try:
        pair_potential_from_config(v["family"], params)
    except (OperatorError, TypeError) as exc:
        raise _Invalid(str(exc)) from None
    return _deep_copy(dict(v))


@dataclass(frozen=True)
class _Label:
    """Reference to a declared subsystem: of one of ``kinds`` if given, of
    dimension ``dim`` if given, and a periodic lattice if ``periodic``."""

    kinds: tuple[str, ...] = ()
    dim: int | None = None
    periodic: bool = False


@dataclass(frozen=True)
class _Variant:
    """An object whose ``tag`` key selects its key table from ``tables``."""

    tag: str
    tables: dict


@dataclass(frozen=True)
class _Items:
    """A list whose every item follows ``rule``."""

    rule: Any
    nonempty: bool = False


# --------------------------------------------------------------------------
# key tables: key -> (rule, default | REQUIRED | OPTIONAL)
# --------------------------------------------------------------------------
# A nested dict is the key table of a nested object.  A default is a raw
# value and is read through the key's rule like a given one.  OPTIONAL keys
# stay out of the canonical form when unset; their default is the
# signature of the domain type that consumes them.

REQUIRED = object()
OPTIONAL = object()

_SUBSYSTEM = {
    "label": (_name, REQUIRED),
    "dim": (_integer(1), REQUIRED),
    "mass": (_positive, 1.0),
}
_SUBSYSTEMS = {
    "lattice1d": {
        **_SUBSYSTEM,
        "grid_spacing": (_positive, REQUIRED),
        "periodic": (_boolean, False),
        "x_min": (_number, OPTIONAL),
    },
    "spin": _SUBSYSTEM,
    "discrete": _SUBSYSTEM,
}

_SPACE = {"subsystems": (_Items(_Variant("kind", _SUBSYSTEMS), nonempty=True), REQUIRED)}

_TERMS = _Variant("type", {
    "kinetic": {
        "subsystem": (_Label(("lattice1d",)), REQUIRED),
        "mass": (_positive, OPTIONAL),
    },
    "external_potential": {
        "subsystem": (_Label(), REQUIRED),
        "samples": (_numbers, REQUIRED),
    },
    "interaction": {
        "subsystem_i": (_Label(("lattice1d",)), REQUIRED),
        "subsystem_j": (_Label(("lattice1d",)), REQUIRED),
        "potential": (_potential, REQUIRED),
    },
    "spin_coupling": {
        "spin_subsystem": (_Label(("spin",), dim=2), REQUIRED),
        "pointer_subsystem": (_Label(("lattice1d",)), REQUIRED),
        "strength": (_number, REQUIRED),
    },
})

_GAUSSIAN_FACTOR = {
    "gaussian": ({
        "center": (_number, 0.0),
        "width": (_positive, 1.0),
        "momentum": (_number, 0.0),
    }, REQUIRED),
}

_NAMED = {"name": (_name, REQUIRED)}
_ON_SPIN = {**_NAMED, "subsystem": (_Label(("spin",), dim=2), REQUIRED)}
_ON_LATTICE = {**_NAMED, "subsystem": (_Label(("lattice1d",)), REQUIRED)}
_ON_RING = {**_NAMED, "subsystem": (_Label(("lattice1d",), periodic=True), REQUIRED)}

_TOP = {
    "schema_version": (_enum(SCHEMA_VERSION), SCHEMA_VERSION),
    "name": (_string, ""),
    "space": (_mapping, REQUIRED),  # read first, by _SPACE: the labels live there
    "operators": ({"terms": (_Items(_TERMS), [])}, {}),
    # An absent section means disabled; a present one means enabled unless
    # it says otherwise.
    "collapse": ({
        "enabled": (_boolean, True),
        "c_scale": (_positive, 1.0),
        "tau0": (_positive, 1.0),
    }, {"enabled": False}),
    "initial_state": (_Variant("kind", {
        "product": {
            "factors": (_mapping, REQUIRED),
            "shift_sector": (_integer(), OPTIONAL),
        },
        "two_branch": {
            "delta": (_fraction, REQUIRED),
            "model": (_enum("two-mode", "displaced-gaussian"), "two-mode"),
            "branch_subsystem": (_Label(dim=2), REQUIRED),
            "mirror_subsystem": (_Label(), REQUIRED),
            "mirror_width": (_positive, OPTIONAL),
        },
    }), REQUIRED),
    "plan": ({
        "dt": (_positive, REQUIRED),
        "n_steps": (_integer(1), REQUIRED),
        "seed": (_integer(0), 0),
        "noise_kind": (_enum("complex", "real"), "complex"),
        "record_every": (_integer(1), 1),
        "collapse_threshold": (_number, DEFAULT_COLLAPSE_THRESHOLD),
    }, REQUIRED),
    "observables": (_Items(_Variant("kind", {
        "energy": _NAMED,
        "collapse_potential": _NAMED,
        "total_shift": _NAMED,
        "spin_z": _ON_SPIN,
        "position": _ON_LATTICE,
        "width": _ON_LATTICE,
        "momentum": _ON_RING,
    })), []),
    "branches": (_Items({
        "label": (_name, REQUIRED),
        "subsystem": (_Label(), REQUIRED),
        "sites": (_sites, REQUIRED),
    }), []),
    "bipartitions": (_Items(_Items(_Label(), nonempty=True)), []),
    "audits": (_Items(_Variant("kind", {
        "energy": _NAMED,
        "total_quasimomentum": _NAMED,
        "spin_z": _ON_SPIN,
        "custom": {**_NAMED, "terms": (_Items(_TERMS), REQUIRED)},
    })), []),
}


# --------------------------------------------------------------------------
# the walker
# --------------------------------------------------------------------------

class _Check:
    """Reads values by their rules and collects every error with its path.

    An object whose reading reported an error reads as None, so relational
    checks only ever see objects whose every value passed its rule.
    """

    def __init__(self):
        self.errors: list[str] = []
        self.failures = 0
        self.subsystems: dict[str, dict] = {}  # label -> entry, once space is read
        self.refused: set[str] = set()  # labels of subsystems refused for their own fault

    def err(self, path: str, msg: str, *, fails: bool = True):
        self.errors.append(f"{path or 'top level'}: {msg}")
        self.failures += fails

    def value(self, v, path: str, rule):
        """The canonical value, or None if reading it reported an error.

        A list keeps its good items, with None in place of each bad one.
        """
        before = self.failures
        if type(rule) is _Items:
            return self.items(v, path, rule)
        out = None
        if type(rule) is dict:
            out = self.object(v, path, rule)
        elif type(rule) is _Variant:
            out = self.variant(v, path, rule)
        elif type(rule) is _Label:
            out = self.label(v, path, rule)
        else:
            try:
                out = rule(v)
            except _Invalid as exc:
                self.err(path, str(exc))
        return out if self.failures == before else None

    def object(self, raw, path: str, keys: dict, tag: str | None = None) -> dict | None:
        if not isinstance(raw, Mapping):
            self.err(path, "expected an object")
            return None
        for key in raw:
            if key not in keys and key != tag:
                # reported, but the known keys of the object still hold
                self.err(path, f"unknown key {key!r}", fails=False)
        entry = {}
        for key, (rule, default) in keys.items():
            sub = f"{path}.{key}" if path else key
            if key in raw:
                entry[key] = self.value(raw[key], sub, rule)
            elif default is REQUIRED:
                self.err(path, f"missing required key {key!r}")
            elif default is not OPTIONAL:
                entry[key] = self.value(default, sub, rule)
        return entry

    def variant(self, raw, path: str, rule: _Variant) -> dict | None:
        if not isinstance(raw, Mapping):
            self.err(path, "expected an object")
            return None
        kind = raw.get(rule.tag)
        if not (isinstance(kind, str) and kind in rule.tables):
            self.err(f"{path}.{rule.tag}", f"expected one of {sorted(rule.tables)}, "
                     f"got {kind!r}")
            return None
        return {rule.tag: kind, **self.object(raw, path, rule.tables[kind], rule.tag)}

    def items(self, raw, path: str, rule: _Items) -> list | None:
        if not isinstance(raw, list) or (rule.nonempty and not raw):
            self.err(path, "expected a non-empty list" if rule.nonempty else "expected a list")
            return None
        return [self.value(v, f"{path}[{i}]", rule.rule) for i, v in enumerate(raw)]

    def label(self, v, path: str, rule: _Label) -> str | None:
        sub = self.subsystems.get(v) if isinstance(v, str) else None
        if sub is None and isinstance(v, str) and v in self.refused:
            self.failures += 1  # its declaration already reported why
        elif sub is None:
            self.err(path, f"unknown subsystem {v!r}")
        elif rule.kinds and sub["kind"] not in rule.kinds:
            self.err(path, f"subsystem {v!r} has kind {sub['kind']}, "
                     f"expected one of {sorted(rule.kinds)}")
        elif rule.dim is not None and sub["dim"] != rule.dim:
            self.err(path, f"subsystem {v!r} has dim {sub['dim']}, expected {rule.dim}")
        elif rule.periodic and not sub.get("periodic"):
            self.err(path, f"subsystem {v!r} is a hard-wall lattice, expected a periodic one")
        return v


# --------------------------------------------------------------------------
# relational rules
# --------------------------------------------------------------------------

def _check_terms(chk: _Check, terms, path: str) -> None:
    for i, t in enumerate(terms):
        if t is None:
            continue
        if t["type"] == "external_potential":
            dim = chk.subsystems[t["subsystem"]]["dim"]
            if len(t["samples"]) != dim:
                chk.err(f"{path}[{i}].samples", f"expected {dim} samples")
        elif t["type"] == "interaction" and t["subsystem_i"] == t["subsystem_j"]:
            chk.err(f"{path}[{i}]", "interaction needs two distinct subsystems")
        elif t["type"] == "interaction":
            si, sj = (chk.subsystems[t[k]] for k in ("subsystem_i", "subsystem_j"))
            if si["periodic"] and sj["periodic"] and (
                    (si["dim"], si["grid_spacing"]) != (sj["dim"], sj["grid_spacing"])):
                chk.err(f"{path}[{i}]", "an interaction of two periodic lattices needs "
                        "one dim and one grid_spacing")


def _read_factors(chk: _Check, factors: Mapping) -> dict:
    """Per-label factors: an amplitude array, or a Gaussian on a lattice."""
    subs = chk.subsystems
    unknown = sorted(set(factors) - set(subs) - chk.refused)
    missing = sorted(set(subs) - set(factors))
    if unknown:
        chk.err("initial_state.factors", f"unknown subsystem(s) {unknown}")
    if missing:
        chk.err("initial_state.factors", f"missing factors for {missing}")
    out = {}
    for lbl in [lbl for lbl in factors if lbl in subs]:
        path = f"initial_state.factors.{lbl}"
        fac = factors[lbl]
        if not isinstance(fac, Mapping):
            out[lbl] = chk.value(fac, path, _amplitudes)
            if out[lbl] is not None and len(out[lbl]) != subs[lbl]["dim"]:
                chk.err(path, f"expected {subs[lbl]['dim']} amplitudes, got {len(out[lbl])}")
        elif subs[lbl]["kind"] != "lattice1d":
            chk.err(path, "gaussian factors need a lattice subsystem")
        else:
            out[lbl] = chk.value(fac, path, _GAUSSIAN_FACTOR)
    return out


def _check_branches(chk: _Check, branches: list) -> None:
    on = None
    covered: set[int] = set()
    for i, b in enumerate(branches):
        if b is None:
            continue
        path = f"branches[{i}]"
        on = on or b["subsystem"]
        dim = chk.subsystems[on]["dim"]
        bad = [s for s in b["sites"] if not 0 <= s < dim]
        overlap = covered & set(b["sites"])
        if b["subsystem"] != on:
            chk.err(path, "all branches must live on the same subsystem")
        elif bad:
            chk.err(f"{path}.sites", f"site indices {bad} outside [0, {dim})")
        elif overlap:
            chk.err(f"{path}.sites",
                    f"sites {sorted(overlap)} already used by another branch")
        else:
            covered |= set(b["sites"])
    if on is not None and covered != set(range(chk.subsystems[on]["dim"])):
        chk.err("branches", f"branch sites must partition all "
                f"{chk.subsystems[on]['dim']} basis states of {on!r} so weights "
                "sum to 1")
    labels = [b["label"] for b in branches if b is not None]
    if len(set(labels)) != len(labels):
        chk.err("branches", "duplicate branch labels")


def _check_unique_names(chk: _Check, entries: list, section: str) -> None:
    seen: set[str] = set()
    for i, e in enumerate(entries):
        if e is not None and e["name"] in seen:
            chk.err(f"{section}[{i}]", f"duplicate name {e['name']!r}")
        elif e is not None:
            seen.add(e["name"])


# kinds whose series may be complex, recorded as <name>_re and <name>_im
_COMPLEX_KINDS = ("momentum", "total_shift", "total_quasimomentum")


def _check_series_names(chk: _Check, space: dict, observables: list,
                        branches: list, audits: list) -> None:
    """Observables and audits share one name space, that of the recorded
    series: a name is a column of the trajectory table, so it may not be
    ``t`` or ``norm_pre``, start like a branch, entropy or quadratic-
    variation column, end like half of a complex column, or contain the
    ``.`` of the marginals of a quasimomentum audit.  A series that may be
    complex is not named ``branch``, ``entropy`` or ``qv``, whose ``_re``
    and ``_im`` columns would start like those columns.  Subsystem labels
    (through entropy and marginal columns), branch labels and these names
    all head columns of the run CSV, so none may hold its separators
    ``,``, ``\\n`` or ``\\r``.  A subsystem label may not hold the ``+``
    that joins the labels of a bipartition's entropy column either."""
    observed = {o["name"] for o in observables if o is not None}
    for section, entries, key in (
            ("space.subsystems", space.get("subsystems") or [], "label"),
            ("observables", observables, "name"),
            ("branches", branches, "label"),
            ("audits", audits, "name")):
        for i, e in enumerate(entries):
            if e is None:
                continue
            name = e[key]
            path = f"{section}[{i}].{key}"
            if any(c in name for c in ",\n\r"):
                chk.err(path, f"{name!r} holds ',', a newline or a carriage return, "
                        "which would split the columns of the run CSV")
            elif section == "space.subsystems" and "+" in name:
                chk.err(path, f"{name!r} holds '+', which joins the labels of a "
                        "bipartition's entropy column")
            elif key == "name" and (
                    name in ("t", "norm_pre") or "." in name
                    or name.startswith(("branch_", "entropy_", "qv_"))
                    or name.endswith(("_re", "_im"))):
                chk.err(path, f"{name!r} is reserved: names may "
                        "not be 't' or 'norm_pre', start with 'branch_', 'entropy_' "
                        "or 'qv_', end with '_re' or '_im', or contain '.'")
            elif key == "name" and e["kind"] in _COMPLEX_KINDS and name in (
                    "branch", "entropy", "qv"):
                chk.err(path, f"{name!r} names a complex series, whose columns "
                        f"{name}_re and {name}_im would read as {name}_ columns")
            elif section == "audits" and name in observed:
                chk.err(path, f"{name!r} is also the name of an observable")


def from_dict(raw: Mapping[str, Any]) -> ScenarioConfig:
    """Validate a raw mapping and return the normalized config.

    Raises :class:`ConfigError` carrying the complete list of problems.
    """
    if not isinstance(raw, Mapping):
        raise ConfigError(["top level: expected a JSON object"])
    chk = _Check()

    # The space is read first: every other section refers to its labels.
    space = chk.object(raw["space"], "space", _SPACE) if isinstance(
        raw.get("space"), Mapping) else {}
    declared, subsystems = space.get("subsystems") or [], []
    for i, s in enumerate(declared):
        if s is None:
            entry = raw["space"]["subsystems"][i]
            if isinstance(entry, Mapping) and isinstance(entry.get("label"), str):
                chk.refused.add(entry["label"])
            continue
        try:
            SubsystemSpec(**s)
        except ValueError as exc:
            chk.err(f"space.subsystems[{i}]", str(exc))
            chk.refused.add(s["label"])
            continue
        if s["label"] in chk.subsystems:
            chk.err(f"space.subsystems[{i}]", f"duplicate subsystem label {s['label']!r}")
            continue
        chk.subsystems[s["label"]] = s
        subsystems.append(s)
    top = chk.object(raw, "", _TOP)

    terms = (top.get("operators") or {}).get("terms") or []
    _check_terms(chk, terms, "operators.terms")
    for i, a in enumerate(top.get("audits") or []):
        if a is not None and a["kind"] == "custom":
            _check_terms(chk, a["terms"], f"audits[{i}].terms")

    lattices = [s for s in subsystems if s["kind"] == "lattice1d"]
    all_periodic = bool(lattices) and all(s["periodic"] for s in lattices)
    init = top.get("initial_state")
    if init is not None and init["kind"] == "product":
        init["factors"] = _read_factors(chk, init["factors"])
        if "shift_sector" in init and not (
                all_periodic and len({s["dim"] for s in lattices}) == 1):
            chk.err("initial_state.shift_sector", "sector projection needs periodic "
                    "lattice subsystems of one site count")
    if init is not None and init["kind"] == "two_branch":
        mirror = chk.subsystems[init["mirror_subsystem"]]
        if init["mirror_subsystem"] == init["branch_subsystem"]:
            chk.err("initial_state.mirror_subsystem", "the mirror must be another subsystem")
        elif init["model"] == "displaced-gaussian" and mirror["kind"] != "lattice1d":
            chk.err("initial_state.mirror_subsystem",
                    "displaced-gaussian needs a lattice mirror subsystem")
        elif init["model"] == "two-mode" and mirror["dim"] != 2:
            chk.err("initial_state.mirror_subsystem",
                    "two-mode needs a mirror subsystem of dim 2")

    if top.get("plan") is not None:
        try:
            IntegrationPlan(**top["plan"])
        except ValueError as exc:
            chk.err("plan", str(exc))

    observables = top.get("observables") or []
    _check_unique_names(chk, observables, "observables")
    collapse = top.get("collapse")
    for i, o in enumerate(observables):
        if (o is not None and o["kind"] == "collapse_potential"
                and collapse is not None and not collapse["enabled"]):
            chk.err(f"observables[{i}]", f"{o['name']!r} needs collapse enabled")

    _check_branches(chk, top.get("branches") or [])

    for i, side in enumerate(top.get("bipartitions") or []):
        if side is not None and None not in side and len(set(side)) == len(declared):
            chk.err(f"bipartitions[{i}]",
                    "bipartition side must be a strict subset of subsystems")

    audits = top.get("audits") or []
    _check_unique_names(chk, audits, "audits")
    _check_series_names(chk, space, observables, top.get("branches") or [], audits)
    for section, entries in (("observables", observables), ("audits", audits)):
        for i, e in enumerate(entries):
            if (e is not None and e["kind"] in ("total_shift", "total_quasimomentum")
                    and not all_periodic):
                chk.err(f"{section}[{i}]", f"{e['kind']} needs all-periodic lattice "
                        "subsystems")

    if chk.errors:
        raise ConfigError(chk.errors)
    return ScenarioConfig(
        schema_version=SCHEMA_VERSION,
        name=top["name"],
        space={"subsystems": subsystems},
        operators=top["operators"],
        collapse=collapse,
        initial_state=init,
        plan=top["plan"],
        observables=tuple(observables),
        branches=tuple(top["branches"]),
        bipartitions=tuple(tuple(sorted(set(side))) for side in top["bipartitions"]),
        audits=tuple(audits),
    )
