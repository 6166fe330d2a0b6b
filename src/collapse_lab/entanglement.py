"""Reduced density matrices, Schmidt decompositions, and entropies.

Entropies are in nats throughout (natural log); :func:`nats_to_bits`
converts for display.  The two-branch helpers cover the equal-amplitude
beam-splitter-style state ``(|r>|B_r> + |t>|B_t>)/sqrt(2)`` whose mirror
states overlap by ``mu = 1 - delta``: its Schmidt weights are
``(1 + mu)/2`` and ``(1 - mu)/2``, and for small ``delta`` the entropy is
approximately ``(delta/2) * (1 - ln(delta/2))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, GridError, NumericalError
from .hilbert import (
    CompositeSpace,
    StateVector,
    discrete,
    gaussian_packet,
    lattice,
    renormalize,
)

__all__ = [
    "Bipartition",
    "SchmidtResult",
    "reduced_density",
    "schmidt",
    "vn_entropy",
    "purity",
    "two_branch_entropy_exact",
    "two_branch_entropy_approx",
    "build_two_branch_state",
    "branch_overlap",
    "nats_to_bits",
]

EIG_CLIP = 1e-10  # eigenvalues above -EIG_CLIP are treated as rounding noise


@dataclass(frozen=True)
class Bipartition:
    """Split of a composite space into two disjoint, exhaustive label sets."""

    side_a: frozenset[str]
    side_b: frozenset[str]

    @classmethod
    def of(cls, space: CompositeSpace, side_a) -> "Bipartition":
        a = frozenset(side_a)
        labels = frozenset(space.labels)
        unknown = a - labels
        if unknown:
            raise DimensionError(f"unknown subsystem labels {sorted(unknown)}")
        b = labels - a
        if not a or not b:
            raise DimensionError("bipartition sides must both be nonempty")
        return cls(a, b)

    def name(self) -> str:
        return "+".join(sorted(self.side_a))

    def axes(self, space: CompositeSpace) -> tuple[tuple[int, ...], int, int]:
        """Subsystem axes with side A leading, and the dims of sides A and B."""
        axes_a = [i for i, s in enumerate(space.subsystems) if s.label in self.side_a]
        axes_b = [i for i, s in enumerate(space.subsystems) if s.label in self.side_b]
        dims = space.dims
        da = int(np.prod([dims[i] for i in axes_a]))
        db = int(np.prod([dims[i] for i in axes_b]))
        return tuple(axes_a + axes_b), da, db

    def entropies(self, space: CompositeSpace, psi: np.ndarray) -> np.ndarray:
        """Entanglement entropy in nats of each row of a (batch, dim) block."""
        perm, da, db = self.axes(space)
        b = psi.shape[0]
        moved = np.transpose(psi.reshape((b,) + space.dims),
                             (0,) + tuple(ax + 1 for ax in perm))
        w2 = np.linalg.svd(moved.reshape(b, da, db), compute_uv=False) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(w2 > 0.0, np.log(w2), 0.0)
        return -np.sum(w2 * logs, axis=1)


@dataclass(frozen=True, eq=False)
class SchmidtResult:
    """Schmidt decomposition across a bipartition.

    ``coefficients`` are nonnegative, descending, and square-sum to 1;
    ``left_vectors[k]`` / ``right_vectors[k]`` are the orthonormal factors
    on side A / side B (amplitudes in the side's own row-major basis).
    """

    coefficients: np.ndarray
    left_vectors: np.ndarray  # shape (rank, dim_a)
    right_vectors: np.ndarray  # shape (rank, dim_b)
    partition: Bipartition


def _split_matrix(psi: StateVector, partition: Bipartition) -> np.ndarray:
    """Amplitudes reshaped to (dim_A, dim_B) with side-A axes leading."""
    perm, da, db = partition.axes(psi.space)
    tensor = psi.amplitudes.reshape(psi.space.dims)
    return np.transpose(tensor, perm).reshape(da, db)


def reduced_density(psi: StateVector, partition: Bipartition) -> np.ndarray:
    """Partial trace over side B: a Hermitian, PSD, trace-1 matrix on side A."""
    m = _split_matrix(psi, partition)
    rho = m @ m.conj().T
    return 0.5 * (rho + rho.conj().T)


def schmidt(psi: StateVector, partition: Bipartition) -> SchmidtResult:
    """SVD of the amplitude matrix reshaped along the bipartition.

    More stable than diagonalizing the reduced density matrix; the squared
    coefficients equal its eigenvalues.
    """
    m = _split_matrix(psi, partition)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return SchmidtResult(
        coefficients=s,
        left_vectors=u.T.copy(),
        right_vectors=vh.copy(),
        partition=partition,
    )


def _entropy_from_weights(weights: np.ndarray) -> float:
    w = np.asarray(weights, dtype=float)
    if np.any(w < -EIG_CLIP):
        raise NumericalError(
            f"negative weight {w.min():.3e} beyond the rounding tolerance"
        )
    w = np.clip(w, 0.0, None)
    nz = w[w > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def vn_entropy(rho_or_schmidt) -> float:
    """Von Neumann entropy -sum(w log w) in nats, with 0 log 0 = 0.

    Accepts a density matrix (2D array), a :class:`SchmidtResult`, or a 1D
    array of eigenvalues/weights.
    """
    if isinstance(rho_or_schmidt, SchmidtResult):
        return _entropy_from_weights(rho_or_schmidt.coefficients**2)
    arr = np.asarray(rho_or_schmidt)
    if arr.ndim == 1:
        return _entropy_from_weights(arr.real)
    if arr.ndim == 2:
        return _entropy_from_weights(np.linalg.eigvalsh(arr))
    raise DimensionError("expected a density matrix, weights, or a SchmidtResult")


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2); ranges from 1/dim (maximally mixed) to 1 (pure)."""
    rho = np.asarray(rho)
    return float(np.real(np.trace(rho @ rho)))


def nats_to_bits(entropy_nats: float) -> float:
    return entropy_nats / math.log(2.0)


def two_branch_entropy_exact(mu: float) -> float:
    """Entropy of the equal-amplitude two-branch state with mirror overlap mu.

    The Schmidt weights are (1 + mu)/2 and (1 - mu)/2.
    """
    if not (0.0 <= mu <= 1.0):
        raise ValueError(f"overlap mu must be in [0, 1], got {mu}")
    return _entropy_from_weights(np.array([(1.0 + mu) / 2.0, (1.0 - mu) / 2.0]))


def two_branch_entropy_approx(delta: float) -> float:
    """Small-delta approximation (delta/2) * (1 - ln(delta/2)).

    Accurate to better than 1% relative for delta <= 0.01.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    half = delta / 2.0
    return half * (1.0 - math.log(half))


def branch_overlap(psi: StateVector, branch_subsystem: str) -> float:
    """|<B_r|B_t>| measured from a two-branch state.

    The branch subsystem must be 2-dimensional with the branches on its
    basis states; the overlap of the (normalized) partner states on the
    rest of the space is returned.
    """
    sub = psi.space.subsystem(branch_subsystem)
    if sub.dim != 2:
        raise DimensionError("branch subsystem must be 2-dimensional")
    part = Bipartition.of(psi.space, {branch_subsystem})
    m = _split_matrix(psi, part)  # rows: branch basis states
    n0 = np.linalg.norm(m[0])
    n1 = np.linalg.norm(m[1])
    if n0 == 0.0 or n1 == 0.0:
        raise NumericalError("one branch carries no amplitude")
    return float(abs(np.vdot(m[0], m[1])) / (n0 * n1))


def build_two_branch_state(
    delta: float,
    mirror_model: str = "two-mode",
    *,
    space: CompositeSpace | None = None,
    branch_label: str = "photon",
    mirror_label: str = "mirror",
    mirror_width: float = 1.0,
) -> StateVector:
    """Concrete equal-amplitude two-branch state with overlap 1 - delta.

    ``two-mode`` realizes the mirror states inside a 2-level subsystem with
    the exact inner product; ``displaced-gaussian`` uses two Gaussian
    packets on a mirror lattice whose displacement d solves
    exp(-d^2 / (8 a^2)) = 1 - delta.

    When ``space`` is given it must contain a 2-level branch subsystem and
    a compatible mirror subsystem; otherwise a minimal space is built.
    """
    if not (0.0 <= delta <= 1.0):
        raise ValueError(f"delta must be in [0, 1], got {delta}")
    mu = 1.0 - delta

    if mirror_model == "two-mode":
        if space is None:
            space = CompositeSpace(
                [discrete(branch_label, 2), discrete(mirror_label, 2)]
            )
        mirror_sub = space.subsystem(mirror_label)
        if mirror_sub.dim != 2:
            raise DimensionError("two-mode mirror subsystem must be 2-dimensional")
        b_r = np.array([1.0, 0.0], dtype=np.complex128)
        b_t = np.array([mu, math.sqrt(max(0.0, 1.0 - mu**2))], dtype=np.complex128)
    elif mirror_model == "displaced-gaussian":
        if mu == 0.0:
            raise GridError("displaced-gaussian cannot realize zero overlap")
        if space is None:
            space = CompositeSpace(
                [
                    discrete(branch_label, 2),
                    lattice(mirror_label, 128, grid_spacing=mirror_width / 4.0,
                            periodic=False),
                ]
            )
        mirror_sub = space.subsystem(mirror_label)
        if not mirror_sub.is_lattice:
            raise GridError("displaced-gaussian mirror must be a lattice subsystem")
        d = math.sqrt(-8.0 * mirror_width**2 * math.log(mu)) if mu < 1.0 else 0.0
        half_extent = 0.5 * (mirror_sub.positions()[-1] - mirror_sub.positions()[0])
        if d / 2.0 + 4.0 * mirror_width > half_extent:
            raise GridError(
                f"displacement {d:.3g} for delta={delta} does not fit on the "
                "mirror grid"
            )
        b_r = gaussian_packet(space, mirror_label, center=-d / 2.0, width=mirror_width)
        b_t = gaussian_packet(space, mirror_label, center=+d / 2.0, width=mirror_width)
    else:
        raise ValueError(f"unknown mirror model {mirror_model!r}")

    branch_sub = space.subsystem(branch_label)
    if branch_sub.dim != 2:
        raise DimensionError("branch subsystem must be 2-dimensional")

    dims = space.dims
    ab = space.axis(branch_label)
    am = space.axis(mirror_label)
    tensor = np.zeros(dims, dtype=np.complex128)
    idx_r = [slice(None)] * len(dims)
    idx_t = [slice(None)] * len(dims)
    idx_r[ab], idx_t[ab] = 0, 1
    # other subsystems (if any) sit in their first basis state
    for ax in range(len(dims)):
        if ax not in (ab, am):
            idx_r[ax] = 0
            idx_t[ax] = 0
    tensor[tuple(idx_r)] = b_r / math.sqrt(2.0)
    tensor[tuple(idx_t)] = b_t / math.sqrt(2.0)
    psi = renormalize(tensor.reshape(-1), space)

    measured = branch_overlap(psi, branch_label)
    if abs(measured - mu) > 1e-6:
        raise GridError(
            f"realized branch overlap {measured:.8f} misses target {mu:.8f}; "
            "refine the mirror grid"
        )
    return psi
