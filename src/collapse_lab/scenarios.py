"""Scenario library and config realization.

:func:`realize` is the one way from a validated config to the
:class:`~collapse_lab.integrator.RealizedScenario` the integrator runs, and
:func:`_series_operator` picks every observable and audit operator.  The
module also ships a small library of ready-made scenarios:

qnd-two-level
    A two-level system coupled to a frozen one-site pointer, so the
    collapse operator acts as kappa * sigma_z on the system: branch
    weights are martingales and terminal outcomes follow the initial
    weights.
beamsplitter
    Static two-branch state (photon x mirror) with mirror overlap
    1 - delta; exercises the entanglement closed forms.
two-particle-collision
    Light particle scattering off a heavy one through a Gaussian well on
    a shared periodic lattice; the workhorse for momentum-sector and
    entanglement-growth checks.  The 100:1 mass ratio stands in for the
    much larger system/apparatus asymmetry at desk scale.
stern-gerlach
    Spin-1/2 coupled to a heavy pointer lattice through sigma_z * x; the
    pointer displacement records the spin and spin-z is the audited
    quantity.
free-packet
    Single free Gaussian packet; collapse disabled.  Bridges the lattice
    propagator to the closed-form spreading law.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import ScenarioConfig, from_dict
from .conservation import ConservedQuantity, single_shift_generator, total_shift_generator
from .entanglement import Bipartition, build_two_branch_state
from .errors import ConfigError, StateError
from .hilbert import (
    CompositeSpace,
    StateVector,
    SubsystemSpec,
    gaussian_packet,
    make_product_state,
    renormalize,
)
from .integrator import Branch, Observable, RealizedScenario
from .operators import (
    AssembledOperator,
    CollapseParams,
    ExternalPotentialTerm,
    InteractionTerm,
    KineticTerm,
    OperatorSpec,
    SpinCouplingTerm,
    assemble_hamiltonian,
    collapse_operator,
    diagonal_operator,
    embed_diagonal,
    momentum_operator,
    pair_potential_from_config,
    scaled_interaction_sum,
    spin_z_matrix,
)

__all__ = [
    "realize",
    "realize_audits",
    "builtin_scenario",
    "builtin_names",
    "BUILTIN_DESCRIPTIONS",
]


def build_space(config: ScenarioConfig) -> CompositeSpace:
    return CompositeSpace(SubsystemSpec(**s) for s in config.space["subsystems"])


_TERM_TYPES = {
    "kinetic": KineticTerm,
    "external_potential": ExternalPotentialTerm,
    "interaction": InteractionTerm,
    "spin_coupling": SpinCouplingTerm,
}


def build_operator_spec(terms: list[dict]) -> OperatorSpec:
    out = []
    for t in terms:
        args = {k: v for k, v in t.items() if k != "type"}
        if t["type"] == "interaction":
            params = dict(args["potential"])
            args["potential"] = pair_potential_from_config(params.pop("family"), params)
        out.append(_TERM_TYPES[t["type"]](**args))
    return OperatorSpec(out)


def _factor_array(space: CompositeSpace, label: str, fac) -> np.ndarray:
    if isinstance(fac, dict):
        return gaussian_packet(space, label, **fac["gaussian"])
    return np.asarray([complex(re, im) for re, im in fac], dtype=np.complex128)


def project_shift_sector(psi: StateVector, sector: int) -> StateVector:
    """Project onto the eigenspace of the simultaneous one-site shift.

    The shift eigenvalue of sector k is exp(-2 pi i k / d); all periodic
    lattice subsystems must share the site count d.  In the discrete
    Fourier basis of the lattice axes the shift is diagonal, with
    eigenvalue exp(-2 pi i (k_1 + ... + k_n) / d), so the projection keeps
    the components with k_1 + ... + k_n = sector (mod d).
    """
    space = psi.space
    lattice_axes = [i for i, s in enumerate(space.subsystems) if s.is_lattice]
    if not lattice_axes:
        raise StateError("sector projection needs lattice subsystems")
    dims = space.dims
    d = dims[lattice_axes[0]]
    if any(dims[ax] != d for ax in lattice_axes):
        raise StateError("sector projection needs equal lattice dimensions")
    spectrum = np.fft.fftn(psi.reshaped(), axes=lattice_axes)
    ksum = sum(
        np.arange(d).reshape([d if ax == i else 1 for i in range(len(dims))])
        for ax in lattice_axes
    )
    spectrum *= (ksum - sector) % d == 0
    flat = np.fft.ifftn(spectrum, axes=lattice_axes).reshape(-1)
    if np.linalg.norm(flat) < 1e-12:
        raise StateError(f"initial state has no weight in shift sector {sector}")
    return renormalize(flat, space)


def build_initial_state(config: ScenarioConfig, space: CompositeSpace) -> StateVector:
    init = config.initial_state
    if init["kind"] == "two_branch":
        optional = {"mirror_width": init["mirror_width"]} if "mirror_width" in init else {}
        return build_two_branch_state(
            init["delta"],
            init["model"],
            space=space,
            branch_label=init["branch_subsystem"],
            mirror_label=init["mirror_subsystem"],
            **optional,
        )
    factors = {lbl: _factor_array(space, lbl, fac) for lbl, fac in init["factors"].items()}
    psi = make_product_state(space, factors)
    if "shift_sector" in init:
        psi = project_shift_sector(psi, init["shift_sector"])
    return psi


_OPERATOR_BUILDERS = {
    "spin_z": lambda space, label: diagonal_operator(
        space, label, np.diag(spin_z_matrix(space.subsystem(label).dim))),
    "position": lambda space, label: diagonal_operator(
        space, label, space.subsystem(label).positions()),
    "momentum": momentum_operator,
    "total_shift": lambda space, label: total_shift_generator(space),
}


def _operator_cache(space: CompositeSpace):
    """Builds each observable and audit operator of ``space`` once, on first use."""
    return functools.cache(lambda kind, label: _OPERATOR_BUILDERS[kind](space, label))


def _series_operator(spec: dict, space: CompositeSpace, operators, hamiltonian,
                     vhat) -> AssembledOperator:
    """The operator of the recorded series ``spec``, an observable or an audit."""
    kind = spec["kind"]
    if kind == "energy":
        return hamiltonian
    if kind == "collapse_potential":
        return vhat
    if kind == "custom":
        return assemble_hamiltonian(build_operator_spec(spec["terms"]), space)
    if kind in ("total_shift", "total_quasimomentum"):
        return operators("total_shift", None)
    return operators("position" if kind == "width" else kind, spec["subsystem"])


def _audits(config: ScenarioConfig, space: CompositeSpace, hamiltonian,
            operators) -> list[ConservedQuantity]:
    return [
        ConservedQuantity(a["name"], _series_operator(a, space, operators, hamiltonian, None),
                          a["kind"])
        for a in config.audits
    ]


def realize_audits(
    config: ScenarioConfig,
    space: CompositeSpace,
    hamiltonian: AssembledOperator,
) -> list[ConservedQuantity]:
    """Build the conserved-quantity operators declared in the config."""
    return _audits(config, space, hamiltonian, _operator_cache(space))


def realize(config: ScenarioConfig) -> RealizedScenario:
    """Assemble a config into integrator-ready operators and state.

    Audit quantities are recorded automatically: each audit contributes an
    observable series under its own name (plus per-lattice shift marginals
    for quasimomentum audits), and energy audits with collapse enabled
    track the realized quadratic variation used by audit bounds.  The
    quantities themselves are kept on the result for the audit.
    """
    space = build_space(config)
    op_spec = build_operator_spec(config.operators["terms"])
    hamiltonian = assemble_hamiltonian(op_spec, space)

    vhat = None
    if config.collapse_enabled:
        params = CollapseParams(config.collapse["c_scale"], config.collapse["tau0"])
        vhat = collapse_operator(scaled_interaction_sum(op_spec, space), params)

    psi0 = build_initial_state(config, space)
    plan = config.integration_plan()

    operators = _operator_cache(space)
    observables = [
        Observable(o["name"], _series_operator(o, space, operators, hamiltonian, vhat),
                   "width" if o["kind"] == "width" else "expectation")
        for o in config.observables
    ]

    # the config keeps audit names apart from observable names, and '.'
    # out of both, so these series names are all new
    qv_tracks: list[str] = []
    quantities = _audits(config, space, hamiltonian, operators)
    for q in quantities:
        observables.append(Observable(q.name, q.operator))
        if q.kind == "total_quasimomentum":
            observables += [
                Observable(f"{q.name}.{sub.label}", single_shift_generator(space, sub.label))
                for sub in space.subsystems if sub.is_lattice
            ]
        if q.kind == "energy" and vhat is not None:
            qv_tracks.append(q.name)

    branches = tuple(
        Branch(b["label"], _branch_indices(space, b["subsystem"], b["sites"]))
        for b in config.branches
    )
    bipartitions = tuple(
        Bipartition.of(space, side) for side in config.bipartitions
    )

    if vhat is not None and vhat.matrix.nnz == 0:
        vhat = None

    return RealizedScenario(
        space=space,
        hamiltonian=hamiltonian if hamiltonian.matrix.nnz else None,
        collapse_op=vhat,
        psi0=psi0,
        plan=plan,
        observables=tuple(observables),
        branches=branches,
        bipartitions=bipartitions,
        qv_tracks=tuple(qv_tracks),
        quantities=tuple(quantities),
        config=config,
    )


def _branch_indices(space: CompositeSpace, label: str, sites) -> np.ndarray:
    """Basis indices at which subsystem ``label`` sits on one of ``sites``."""
    indicator = np.zeros(space.subsystem(label).dim, dtype=bool)
    indicator[list(sites)] = True
    return np.flatnonzero(embed_diagonal(space, [label], indicator))


# --------------------------------------------------------------------------
# built-in scenarios
# --------------------------------------------------------------------------

BUILTIN_DESCRIPTIONS = {
    "qnd-two-level": "two-level system with a frozen pointer; branch martingale",
    "beamsplitter": "static two-branch photon/mirror state, overlap 1 - delta",
    "two-particle-collision": "light/heavy scattering on a periodic lattice",
    "stern-gerlach": "spin-1/2 recorded by a heavy pointer lattice",
    "free-packet": "free Gaussian packet, collapse disabled",
}


def builtin_names() -> list[str]:
    return sorted(BUILTIN_DESCRIPTIONS)


def builtin_scenario(name: str) -> ScenarioConfig:
    """Return one of the documented built-in configurations by name."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ConfigError(
            [f"unknown scenario {name!r}; options: {builtin_names()}"]
        ) from None
    return from_dict(factory())


def _qnd_two_level() -> dict:
    w0 = math.sqrt(0.3)
    w1 = math.sqrt(0.7)
    return {
        "name": "qnd-two-level",
        "space": {
            "subsystems": [
                {"label": "spin", "kind": "spin", "dim": 2, "mass": 1.0},
                {"label": "pointer", "kind": "lattice1d", "dim": 2,
                 "grid_spacing": 1.0, "mass": 1.0},
            ]
        },
        # pointer held in its upper site (x = +0.5): the coupling acts as
        # kappa * sigma_z on the spin with kappa = strength * 0.5 / 2
        "operators": {
            "terms": [
                {"type": "spin_coupling", "spin_subsystem": "spin",
                 "pointer_subsystem": "pointer", "strength": 8.0},
            ]
        },
        "collapse": {"enabled": True, "c_scale": 1.0, "tau0": 1.0},
        "initial_state": {
            "kind": "product",
            "factors": {"spin": [w0, w1], "pointer": [0.0, 1.0]},
        },
        "plan": {"dt": 1e-3, "n_steps": 5000, "seed": 1, "record_every": 100},
        "observables": [
            {"name": "sz", "kind": "spin_z", "subsystem": "spin"},
            {"name": "vhat", "kind": "collapse_potential"},
        ],
        "branches": [
            {"label": "up", "subsystem": "spin", "sites": [0]},
            {"label": "down", "subsystem": "spin", "sites": [1]},
        ],
        "bipartitions": [["spin"]],
        "audits": [{"name": "sz_audit", "kind": "spin_z", "subsystem": "spin"}],
    }


def _beamsplitter() -> dict:
    return {
        "name": "beamsplitter",
        "space": {
            "subsystems": [
                {"label": "photon", "kind": "discrete", "dim": 2, "mass": 1.0},
                {"label": "mirror", "kind": "discrete", "dim": 2, "mass": 1e6},
            ]
        },
        "operators": {"terms": []},
        "collapse": {"enabled": False},
        "initial_state": {
            "kind": "two_branch",
            "delta": 0.01,
            "model": "two-mode",
            "branch_subsystem": "photon",
            "mirror_subsystem": "mirror",
        },
        "plan": {"dt": 1e-3, "n_steps": 10, "seed": 3, "record_every": 5},
        "observables": [],
        "branches": [
            {"label": "reflected", "subsystem": "photon", "sites": [0]},
            {"label": "transmitted", "subsystem": "photon", "sites": [1]},
        ],
        "bipartitions": [["photon"]],
        "audits": [],
    }


def _two_particle_collision() -> dict:
    return {
        "name": "two-particle-collision",
        "space": {
            "subsystems": [
                {"label": "particle", "kind": "lattice1d", "dim": 64,
                 "grid_spacing": 0.25, "mass": 1.0, "periodic": True},
                {"label": "apparatus", "kind": "lattice1d", "dim": 64,
                 "grid_spacing": 0.25, "mass": 100.0, "periodic": True},
            ]
        },
        "operators": {
            "terms": [
                {"type": "kinetic", "subsystem": "particle"},
                {"type": "kinetic", "subsystem": "apparatus"},
                {"type": "interaction", "subsystem_i": "particle",
                 "subsystem_j": "apparatus",
                 "potential": {"family": "gaussian_well", "depth": 2.0, "width": 0.7}},
            ]
        },
        "collapse": {"enabled": True, "c_scale": 0.1, "tau0": 1.0},
        "initial_state": {
            "kind": "product",
            "factors": {
                "particle": {"gaussian": {"center": -3.0, "width": 0.8,
                                          "momentum": 1.2}},
                "apparatus": {"gaussian": {"center": 1.0, "width": 0.8,
                                           "momentum": 0.0}},
            },
        },
        "plan": {"dt": 1e-3, "n_steps": 10000, "seed": 5, "record_every": 250},
        "observables": [
            {"name": "x1", "kind": "position", "subsystem": "particle"},
            {"name": "x2", "kind": "position", "subsystem": "apparatus"},
        ],
        "branches": [],
        "bipartitions": [["particle"]],
        "audits": [
            {"name": "energy", "kind": "energy"},
            {"name": "tshift", "kind": "total_quasimomentum"},
        ],
    }


def _stern_gerlach() -> dict:
    return {
        "name": "stern-gerlach",
        "space": {
            "subsystems": [
                {"label": "spin", "kind": "spin", "dim": 2, "mass": 1.0},
                {"label": "pointer", "kind": "lattice1d", "dim": 48,
                 "grid_spacing": 0.5, "mass": 100.0},
            ]
        },
        "operators": {
            "terms": [
                {"type": "kinetic", "subsystem": "pointer"},
                {"type": "spin_coupling", "spin_subsystem": "spin",
                 "pointer_subsystem": "pointer", "strength": 0.5},
            ]
        },
        "collapse": {"enabled": True, "c_scale": 0.1, "tau0": 1.0},
        "initial_state": {
            "kind": "product",
            "factors": {
                "spin": [1.0, 1.0],  # x-up, normalized on construction
                "pointer": {"gaussian": {"center": 0.0, "width": 1.5,
                                         "momentum": 0.0}},
            },
        },
        "plan": {"dt": 2e-3, "n_steps": 1500, "seed": 7, "record_every": 50},
        "observables": [
            {"name": "sz", "kind": "spin_z", "subsystem": "spin"},
            {"name": "pointer_x", "kind": "position", "subsystem": "pointer"},
        ],
        "branches": [
            {"label": "up", "subsystem": "spin", "sites": [0]},
            {"label": "down", "subsystem": "spin", "sites": [1]},
        ],
        "bipartitions": [["spin"]],
        "audits": [{"name": "sz_audit", "kind": "spin_z", "subsystem": "spin"}],
    }


def _free_packet() -> dict:
    return {
        "name": "free-packet",
        "space": {
            "subsystems": [
                {"label": "particle", "kind": "lattice1d", "dim": 256,
                 "grid_spacing": 0.125, "mass": 1.0, "periodic": True},
            ]
        },
        "operators": {"terms": [{"type": "kinetic", "subsystem": "particle"}]},
        "collapse": {"enabled": False},
        "initial_state": {
            "kind": "product",
            "factors": {
                "particle": {"gaussian": {"center": 0.0, "width": 1.0,
                                          "momentum": 0.0}},
            },
        },
        "plan": {"dt": 1e-4, "n_steps": 20000, "seed": 11, "record_every": 2000},
        "observables": [
            {"name": "x", "kind": "position", "subsystem": "particle"},
            {"name": "width", "kind": "width", "subsystem": "particle"},
        ],
        "branches": [],
        "bipartitions": [],
        "audits": [],
    }


_BUILTINS = {
    "qnd-two-level": _qnd_two_level,
    "beamsplitter": _beamsplitter,
    "two-particle-collision": _two_particle_collision,
    "stern-gerlach": _stern_gerlach,
    "free-packet": _free_packet,
}
