"""Composite tensor-product state spaces and normalized state vectors.

A :class:`CompositeSpace` is an ordered list of subsystems (1D lattices,
spins, or generic discrete levels).  Amplitudes are stored as a flat dense
complex array in row-major subsystem order, so the flat index of the basis
state ``(j_1, ..., j_n)`` is ``ravel_multi_index((j_1, ..., j_n), dims)``.
Natural units with hbar = 1 are used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DimensionError, GridError, StateError

__all__ = [
    "SubsystemSpec",
    "CompositeSpace",
    "StateVector",
    "lattice",
    "spin",
    "discrete",
    "make_product_state",
    "gaussian_packet",
    "norm",
    "renormalize",
]

KINDS = ("lattice1d", "spin", "discrete")

#: Probability mass allowed in the two edge cells of a hard-wall lattice.
BOUNDARY_LEAK_TOL = 1e-10


@dataclass(frozen=True)
class SubsystemSpec:
    """One tensor factor: a 1D lattice, a spin, or a bare discrete level set.

    ``mass`` is always required (> 0); for spin/discrete subsystems it is the
    mass of the carrier the levels are attached to, which enters the mass
    scaling of interaction-built collapse operators.
    """

    label: str
    kind: str
    dim: int
    mass: float = 1.0
    grid_spacing: float | None = None
    periodic: bool = False
    x_min: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown subsystem kind {self.kind!r}")
        if not self.label:
            raise ValueError("subsystem label must be non-empty")
        if self.dim < 1:
            raise ValueError(f"{self.label}: dim must be positive")
        if not (np.isfinite(self.mass) and self.mass > 0):
            raise ValueError(f"{self.label}: mass must be positive and finite")
        if self.kind == "lattice1d":
            if self.dim < 2:
                raise ValueError(f"{self.label}: lattice needs dim >= 2")
            if self.grid_spacing is None or not (
                np.isfinite(self.grid_spacing) and self.grid_spacing > 0
            ):
                raise ValueError(f"{self.label}: lattice needs grid_spacing > 0")
        else:
            if self.grid_spacing is not None:
                raise ValueError(f"{self.label}: grid_spacing only valid for lattices")
            if self.periodic:
                raise ValueError(f"{self.label}: periodic only valid for lattices")
            if self.x_min is not None:
                raise ValueError(f"{self.label}: x_min only valid for lattices")

    @property
    def is_lattice(self) -> bool:
        return self.kind == "lattice1d"

    def positions(self) -> np.ndarray:
        """Site coordinates x_j = x_min + j * grid_spacing (lattice only).

        Default origin centers the grid: a periodic lattice covers
        [-L/2, L/2) with L = dim * spacing, a hard-wall one is symmetric
        about 0.
        """
        if not self.is_lattice:
            raise GridError(f"{self.label}: positions undefined for kind {self.kind}")
        dx = float(self.grid_spacing)
        if self.x_min is not None:
            x0 = float(self.x_min)
        elif self.periodic:
            x0 = -0.5 * self.dim * dx
        else:
            x0 = -0.5 * (self.dim - 1) * dx
        return x0 + dx * np.arange(self.dim)


def lattice(
    label: str,
    dim: int,
    grid_spacing: float,
    mass: float = 1.0,
    periodic: bool = False,
    x_min: float | None = None,
) -> SubsystemSpec:
    return SubsystemSpec(label, "lattice1d", dim, mass, grid_spacing, periodic, x_min)


def spin(label: str, dim: int = 2, mass: float = 1.0) -> SubsystemSpec:
    return SubsystemSpec(label, "spin", dim, mass)


def discrete(label: str, dim: int, mass: float = 1.0) -> SubsystemSpec:
    return SubsystemSpec(label, "discrete", dim, mass)


@dataclass(frozen=True, eq=False)
class CompositeSpace:
    """Ordered tensor product of subsystems."""

    subsystems: tuple[SubsystemSpec, ...]
    total_dim: int = field(init=False)

    def __init__(self, subsystems: Iterable[SubsystemSpec]):
        subs = tuple(subsystems)
        if not subs:
            raise ValueError("a composite space needs at least one subsystem")
        labels = [s.label for s in subs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate subsystem labels in {labels}")
        object.__setattr__(self, "subsystems", subs)
        object.__setattr__(self, "total_dim", int(np.prod([s.dim for s in subs])))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.subsystems)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.subsystems)

    def axis(self, label: str) -> int:
        for i, s in enumerate(self.subsystems):
            if s.label == label:
                return i
        raise KeyError(f"no subsystem labeled {label!r}")

    def subsystem(self, label: str) -> SubsystemSpec:
        return self.subsystems[self.axis(label)]

    def __eq__(self, other) -> bool:
        return isinstance(other, CompositeSpace) and self.subsystems == other.subsystems

    def __hash__(self):
        return hash(self.subsystems)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitudes over a :class:`CompositeSpace`.

    Immutable after construction: the amplitudes are a private copy
    marked read-only, so a state can be shared without being changed.
    """

    space: CompositeSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.space.total_dim,):
            raise DimensionError(
                f"amplitude length {amps.shape} does not match total_dim "
                f"{self.space.total_dim}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise StateError("amplitudes contain NaN or Inf")
        n = float(np.linalg.norm(amps))
        if abs(n - 1.0) > 1e-6:
            raise StateError(f"state norm {n} too far from 1; renormalize first")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def reshaped(self) -> np.ndarray:
        """Amplitudes as an ndarray of shape ``space.dims`` (read-only view)."""
        return self.amplitudes.reshape(self.space.dims)


def norm(psi: StateVector | np.ndarray) -> float:
    """Euclidean norm of a state vector or raw amplitude array."""
    amps = psi.amplitudes if isinstance(psi, StateVector) else np.asarray(psi)
    return float(np.linalg.norm(amps))


def renormalize(psi: StateVector | np.ndarray, space: CompositeSpace | None = None) -> StateVector:
    """Return psi / ||psi|| as a StateVector.

    Raises :class:`StateError` on zero or non-finite norm.
    """
    if isinstance(psi, StateVector):
        space = psi.space
        amps = psi.amplitudes
    else:
        if space is None:
            raise ValueError("space required when renormalizing a raw array")
        amps = np.asarray(psi, dtype=np.complex128)
    n = float(np.linalg.norm(amps))
    if not np.isfinite(n) or n == 0.0:
        raise StateError(f"cannot renormalize state with norm {n}")
    return StateVector(space, amps * (1.0 / n))


def make_product_state(
    space: CompositeSpace,
    factors: Mapping[str, Sequence[complex]] | Sequence[Sequence[complex]],
) -> StateVector:
    """Normalized tensor product of per-subsystem amplitude arrays.

    ``factors`` is either a mapping from subsystem label to array or a
    sequence in subsystem order.  Each factor must have the subsystem's
    dimension and a nonzero norm.  The result has Schmidt rank 1 across
    every bipartition.

    Numerically the amplitudes are the running product
    ``((f0 ⊗ f1) ⊗ f2) ⊗ ...`` in subsystem order, divided by its computed
    norm.  The same ordered factor arrays therefore give bit-identical
    amplitudes, also when leading factors arrive pre-multiplied in order
    (``np.kron(f0, f1)`` for a merged subsystem).  A pre-multiplied block
    that regroups the products (``f0`` followed by ``np.kron(f1, f2)``) is
    already rounded, so that result agrees with the flat one only to
    rounding: a few units in the last place per amplitude, bounded in
    ``tests/test_hilbert.py::test_tensor_associativity_is_exact``.
    """
    if isinstance(factors, Mapping):
        missing = [s.label for s in space.subsystems if s.label not in factors]
        extra = [k for k in factors if k not in space.labels]
        if missing or extra:
            raise DimensionError(
                f"factor labels do not match space: missing {missing}, extra {extra}"
            )
        ordered = [factors[s.label] for s in space.subsystems]
    else:
        ordered = list(factors)
        if len(ordered) != len(space.subsystems):
            raise DimensionError(
                f"got {len(ordered)} factors for {len(space.subsystems)} subsystems"
            )
    out = np.ones(1, dtype=np.complex128)
    for sub, fac in zip(space.subsystems, ordered):
        arr = np.asarray(fac, dtype=np.complex128).ravel()
        if arr.shape != (sub.dim,):
            raise DimensionError(
                f"factor for {sub.label!r} has length {arr.size}, expected {sub.dim}"
            )
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise StateError(f"factor for {sub.label!r} contains NaN or Inf")
        if np.linalg.norm(arr) == 0.0:
            raise StateError(f"factor for {sub.label!r} has zero norm")
        out = np.kron(out, arr)
    return renormalize(out, space)


def gaussian_packet(
    space: CompositeSpace,
    subsystem: str,
    center: float = 0.0,
    width: float = 1.0,
    momentum: float = 0.0,
) -> np.ndarray:
    """Grid samples of a Gaussian wave packet, normalized on the lattice.

    Samples exp(-(x - center)^2 / (4 width^2) + i momentum x) on the
    subsystem's grid and returns a unit-norm factor array suitable for
    :func:`make_product_state`.  ``width`` is half the packet's full
    initial width, i.e. the position standard deviation at t = 0.

    Raises :class:`GridError` if the packet is unresolvable
    (width < 2 * grid_spacing) or if more than 1e-10 probability mass sits
    in the edge cells of a non-periodic grid.
    """
    sub = space.subsystem(subsystem)
    if not sub.is_lattice:
        raise GridError(f"{subsystem!r} is not a lattice subsystem")
    if not (np.isfinite(width) and width > 0):
        raise GridError("packet width must be positive and finite")
    dx = float(sub.grid_spacing)
    if width < 2.0 * dx:
        raise GridError(
            f"packet width {width} unresolvable on grid with spacing {dx} "
            f"(need width >= {2.0 * dx})"
        )
    x = sub.positions()
    arg = -((x - center) ** 2) / (4.0 * width**2) + 1j * momentum * x
    samples = np.exp(arg)
    n = np.linalg.norm(samples)
    if n == 0.0:
        raise GridError("packet has zero mass on this grid; move the center")
    samples = samples / n
    if not sub.periodic:
        leak = float(abs(samples[0]) ** 2 + abs(samples[-1]) ** 2)
        if leak > BOUNDARY_LEAK_TOL:
            raise GridError(
                f"packet leaks {leak:.3e} probability into the hard-wall "
                f"boundary cells (tolerance {BOUNDARY_LEAK_TOL:.0e})"
            )
    return samples
