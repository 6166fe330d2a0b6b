"""Operator assembly on composite spaces.

Builds Hamiltonians from kinetic, external, pair-interaction, and
spin-pointer terms; the mass-scaled interaction sum
``sum_ij V_ij / (m_i + m_j)``; the dimensionless-noise collapse operator
obtained by dividing that sum by ``c_scale**2 * sqrt(tau0)``; and the
state-dependent deviation operator applied by :func:`beta_apply`.

Pair potentials depend only on the separation ``x_i - x_j``.  On periodic
grids, separations use the minimum-image convention computed from integer
site offsets, which makes the simultaneous one-site shift of all lattice
subsystems commute with every interaction term exactly (not just to
rounding).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, OperatorError
from .hilbert import CompositeSpace, StateVector, SubsystemSpec

__all__ = [
    "PairPotential",
    "gaussian_well",
    "soft_coulomb",
    "square_barrier",
    "tabulated",
    "KineticTerm",
    "ExternalPotentialTerm",
    "InteractionTerm",
    "SpinCouplingTerm",
    "OperatorSpec",
    "AssembledOperator",
    "CollapseParams",
    "assemble_hamiltonian",
    "scaled_interaction_sum",
    "collapse_operator",
    "beta_apply",
    "embed_operator",
    "embed_diagonal",
    "diagonal_operator",
    "kinetic_matrix",
    "spin_z_matrix",
    "momentum_operator",
    "pair_potential_from_config",
]

HERMITICITY_TOL = 1e-12


# --------------------------------------------------------------------------
# pair potential families
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PairPotential:
    """Distance-dependent pair potential ``V(x_i - x_j)``.

    ``family`` and ``params`` identify the functional form for config
    round-trips; ``func`` is the vectorized evaluation.
    """

    family: str
    params: tuple[tuple[str, object], ...]
    func: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)

    def __call__(self, separation) -> np.ndarray:
        return self.func(np.asarray(separation, dtype=float))


def gaussian_well(depth: float, width: float) -> PairPotential:
    """Attractive well -depth * exp(-d^2 / (2 width^2))."""
    if not (depth > 0 and width > 0):
        raise OperatorError("gaussian_well needs depth > 0 and width > 0")
    return PairPotential(
        "gaussian_well",
        (("depth", float(depth)), ("width", float(width))),
        lambda d: -depth * np.exp(-(d**2) / (2.0 * width**2)),
    )


def soft_coulomb(strength: float, softening: float) -> PairPotential:
    """strength / sqrt(d^2 + softening^2); repulsive for strength > 0."""
    if softening <= 0:
        raise OperatorError("soft_coulomb needs softening > 0")
    return PairPotential(
        "soft_coulomb",
        (("strength", float(strength)), ("softening", float(softening))),
        lambda d: strength / np.sqrt(d**2 + softening**2),
    )


def square_barrier(height: float, half_width: float) -> PairPotential:
    """height inside |d| <= half_width, zero outside."""
    if half_width <= 0:
        raise OperatorError("square_barrier needs half_width > 0")
    return PairPotential(
        "square_barrier",
        (("height", float(height)), ("half_width", float(half_width))),
        lambda d: np.where(np.abs(d) <= half_width, float(height), 0.0),
    )


def tabulated(separations: Sequence[float], values: Sequence[float]) -> PairPotential:
    """Linear interpolation of sampled values; zero outside the table."""
    xs = np.asarray(separations, dtype=float)
    vs = np.asarray(values, dtype=float)
    if xs.ndim != 1 or xs.shape != vs.shape or xs.size < 2:
        raise OperatorError("tabulated potential needs matching 1D tables, >= 2 points")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
        raise OperatorError("tabulated potential contains non-finite samples")
    order = np.argsort(xs)
    xs, vs = xs[order], vs[order]
    return PairPotential(
        "tabulated",
        (("separations", tuple(xs.tolist())), ("values", tuple(vs.tolist()))),
        lambda d: np.interp(d, xs, vs, left=0.0, right=0.0),
    )


_FAMILIES = {
    "gaussian_well": gaussian_well,
    "soft_coulomb": soft_coulomb,
    "square_barrier": square_barrier,
    "tabulated": tabulated,
}


def pair_potential_from_config(family: str, params: Mapping[str, object]) -> PairPotential:
    if family not in _FAMILIES:
        raise OperatorError(
            f"unknown pair potential family {family!r}; options: {sorted(_FAMILIES)}"
        )
    return _FAMILIES[family](**params)


# --------------------------------------------------------------------------
# operator specification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class KineticTerm:
    """Three-point-stencil kinetic energy on one lattice subsystem.

    ``mass`` overrides the subsystem mass when given (test convenience).
    """

    subsystem: str
    mass: float | None = None


@dataclass(frozen=True)
class ExternalPotentialTerm:
    """Diagonal one-subsystem potential from explicit samples.

    Test-only: external potentials break the closed-system premise, so
    they are excluded from the collapse operator and conservation audits
    refuse configurations containing them.
    """

    subsystem: str
    samples: tuple[float, ...]

    def __init__(self, subsystem: str, samples: Sequence[float]):
        object.__setattr__(self, "subsystem", subsystem)
        object.__setattr__(self, "samples", tuple(float(v) for v in samples))


@dataclass(frozen=True)
class InteractionTerm:
    """Pair potential V(x_i - x_j) between two lattice subsystems."""

    subsystem_i: str
    subsystem_j: str
    potential: PairPotential


@dataclass(frozen=True)
class SpinCouplingTerm:
    """Spin-pointer coupling g * sigma_z(spin) (x) x_hat(pointer).

    Position-coupling model of an inhomogeneous-field spin analyzer; the
    pointer is a lattice subsystem whose displacement records the spin.
    Counts as an interaction for collapse-operator purposes, with mass
    scaling 1 / (m_spin + m_pointer).
    """

    spin_subsystem: str
    pointer_subsystem: str
    strength: float


Term = KineticTerm | ExternalPotentialTerm | InteractionTerm | SpinCouplingTerm


@dataclass(frozen=True)
class OperatorSpec:
    terms: tuple[Term, ...]

    def __init__(self, terms: Sequence[Term]):
        object.__setattr__(self, "terms", tuple(terms))

    @property
    def interaction_terms(self) -> tuple[Term, ...]:
        return tuple(
            t for t in self.terms if isinstance(t, (InteractionTerm, SpinCouplingTerm))
        )


@dataclass(frozen=True, eq=False)
class AssembledOperator:
    """Concrete matrix over a composite space, held as complex CSR, with
    structure flags.

    ``matrix`` may be given as an array or in any sparse format.
    ``hermitian`` is validated at construction (max-norm deviation from
    the adjoint below 1e-12).  ``unitary`` marks symmetry generators such
    as the total lattice shift; those are deliberately not Hermitian.
    :meth:`apply` maps a state ``(d,)`` or a block of states ``(b, d)``.
    """

    space: CompositeSpace
    matrix: sp.csr_array
    hermitian: bool = True
    unitary: bool = False

    def __post_init__(self):
        m = sp.csr_array(self.matrix, dtype=np.complex128)
        n = self.space.total_dim
        if m.shape != (n, n):
            raise DimensionError(f"operator shape {m.shape} does not match dim {n}")
        object.__setattr__(self, "matrix", m)
        if self.hermitian:
            diag = self._diagonal
            dev = _max_abs(m - m.conj().T) if diag is None \
                else 2.0 * float(np.abs(diag.imag).max())
            if dev > HERMITICITY_TOL:
                raise OperatorError(
                    f"operator flagged hermitian but max |M - M^dag| = {dev:.3e}"
                )

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    @cached_property
    def _diagonal(self) -> np.ndarray | None:
        """:func:`_diagonal_of` the matrix, tested once."""
        return _diagonal_of(self.matrix)

    @cached_property
    def _applier(self) -> Callable[[np.ndarray], np.ndarray]:
        """Applied form, prepared once: an elementwise product for a
        diagonal, CSR for every other operator.  A (b, d) block comes back
        C-contiguous, so that its rows have float64 views.  For a real
        diagonal the elementwise product equals the CSR sum exactly."""
        diag = self._diagonal
        if diag is not None:
            return lambda psi: diag * psi
        m = self.matrix
        return lambda psi: np.ascontiguousarray((m @ psi.T).T)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """``M psi`` for a state, or for each row of a (batch, d) block."""
        return self._applier(psi)

    def max_abs(self) -> float:
        return _max_abs(self.matrix)

    def scaled(self, factor: float) -> "AssembledOperator":
        return AssembledOperator(
            self.space, self.matrix * factor, self.hermitian, self.unitary
        )


def _max_abs(m: sp.csr_array) -> float:
    return float(np.abs(m.data).max(initial=0.0))


def _csr(op) -> sp.csr_array:
    """The CSR matrix of an operator, or of a dense or sparse array."""
    if isinstance(op, AssembledOperator):
        return op.matrix
    return sp.csr_array(op, dtype=np.complex128)


def _rows(m: sp.csr_array) -> np.ndarray:
    """The row of each stored entry of a CSR matrix."""
    return np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))


def _diagonal_of(op) -> np.ndarray | None:
    """The diagonal of an operator or array when every stored entry lies
    on it, else None; an operator's is tested once."""
    if isinstance(op, AssembledOperator):
        return op._diagonal
    m = op if isinstance(op, sp.csr_array) else _csr(op)
    return m.diagonal() if np.array_equal(m.indices, _rows(m)) else None


def _collapse_diagonal(vhat) -> np.ndarray:
    """The diagonal v of a collapse operator V = diag(v), given as an
    operator or an array: the master equation's V terms are masks built
    from it.  OperatorError if V has an off-diagonal entry."""
    diag = _diagonal_of(vhat)
    if diag is None:
        raise OperatorError("the collapse operator has off-diagonal entries; the "
                            "master-equation oracle and the audit need a diagonal V")
    return diag


def _diagonal_csr(diag: np.ndarray) -> sp.csr_array:
    """Diagonal matrix as CSR, one stored entry per row, zeros included."""
    n = diag.size
    ptr = np.arange(n + 1, dtype=np.int32)
    return sp.csr_array((diag.astype(np.complex128, copy=False), ptr[:-1], ptr),
                        shape=(n, n))


@dataclass(frozen=True)
class CollapseParams:
    """Scaling constants for the collapse operator.

    ``c_scale`` has velocity units and ``tau0`` time units; together they
    make the stochastic term dimensionless: the collapse operator is the
    mass-scaled interaction sum divided by c_scale^2 * sqrt(tau0), so its
    units are 1/sqrt(time) and multiplying by a Wiener increment of units
    sqrt(time) yields a pure number.
    """

    c_scale: float
    tau0: float

    def __post_init__(self):
        if not (np.isfinite(self.c_scale) and self.c_scale > 0):
            raise OperatorError("c_scale must be positive and finite")
        if not (np.isfinite(self.tau0) and self.tau0 > 0):
            raise OperatorError("tau0 must be positive and finite")


# --------------------------------------------------------------------------
# elementary building blocks
# --------------------------------------------------------------------------

def kinetic_matrix(sub: SubsystemSpec, mass: float | None = None) -> sp.csr_array:
    """-1/(2m) * (psi_{j+1} - 2 psi_j + psi_{j-1}) / dx^2 as a matrix.

    Periodic lattices wrap the stencil; hard-wall lattices drop it at the
    edges (Dirichlet).
    """
    if not sub.is_lattice:
        raise OperatorError(f"kinetic term needs a lattice subsystem, got {sub.kind}")
    m = float(sub.mass if mass is None else mass)
    if not (np.isfinite(m) and m > 0):
        raise OperatorError("kinetic mass must be positive and finite")
    d = sub.dim
    coeff = 1.0 / (2.0 * m * float(sub.grid_spacing) ** 2)
    diag = np.full(d, 2.0 * coeff)
    off = np.full(d - 1, -coeff)
    mat = sp.diags_array([off, diag, off], offsets=[-1, 0, 1], format="lil")
    if sub.periodic:
        mat[0, d - 1] = -coeff
        mat[d - 1, 0] = -coeff
    return sp.csr_array(mat, dtype=np.complex128)


def spin_z_matrix(dim: int = 2) -> np.ndarray:
    if dim != 2:
        raise OperatorError("spin_z is only defined for two-level subsystems here")
    return np.diag([1.0 + 0j, -1.0 + 0j])


def momentum_operator(space: CompositeSpace, label: str) -> AssembledOperator:
    """Hermitian lattice momentum, diagonal in the discrete Fourier basis.

    Reporting aid for periodic lattices; exact momentum-sector bookkeeping
    goes through the unitary total-shift generator instead.
    """
    sub = space.subsystem(label)
    if not (sub.is_lattice and sub.periodic):
        raise OperatorError("momentum_operator needs a periodic lattice subsystem")
    d = sub.dim
    k = 2.0 * np.pi * np.fft.fftfreq(d, d=float(sub.grid_spacing))
    f = np.fft.ifft(np.eye(d), axis=0, norm="ortho")  # columns: plane waves
    mat = (f * k) @ f.conj().T
    mat = 0.5 * (mat + mat.conj().T)
    return AssembledOperator(space, embed_operator(space, {label: mat}), hermitian=True)


def embed_operator(space: CompositeSpace, ops: Mapping[str, object]) -> sp.csr_array:
    """Kronecker-embed per-subsystem matrices (arrays or sparse) with
    identities elsewhere."""
    out = None
    for sub in space.subsystems:
        if sub.label in ops:
            block = sp.csr_array(ops[sub.label], dtype=np.complex128)
            if block.shape != (sub.dim, sub.dim):
                raise DimensionError(
                    f"operator for {sub.label!r} has shape {block.shape}, "
                    f"expected ({sub.dim}, {sub.dim})"
                )
        else:
            block = sp.eye_array(sub.dim, dtype=np.complex128, format="csr")
        out = block if out is None else sp.kron(out, block, format="csr")
    unknown = set(ops) - set(space.labels)
    if unknown:
        raise OperatorError(f"unknown subsystem labels {sorted(unknown)}")
    return sp.csr_array(out)


def embed_diagonal(space: CompositeSpace, labels: Sequence[str], table) -> np.ndarray:
    """Full-space diagonal whose entry at basis state ``(j_1, ..., j_n)`` is
    ``table`` indexed by the sites of the subsystems ``labels``: the table
    has one axis per label, in the order of ``labels``, and is broadcast
    over every other subsystem."""
    table = np.asarray(table)
    axes = [space.axis(label) for label in labels]
    dims = space.dims
    if len(set(axes)) != len(axes):
        raise OperatorError(f"repeated subsystem labels {list(labels)}")
    if table.shape != tuple(dims[a] for a in axes):
        raise DimensionError(
            f"diagonal table for {list(labels)} has shape {table.shape}, "
            f"expected {tuple(dims[a] for a in axes)}"
        )
    shape = [dims[a] if a in axes else 1 for a in range(len(dims))]
    view = np.transpose(table, np.argsort(axes)).reshape(shape)
    return np.broadcast_to(view, dims).flatten()


def diagonal_operator(space: CompositeSpace, label: str, values) -> AssembledOperator:
    """Hermitian operator diagonal in the basis: ``values`` on subsystem
    ``label``, identity elsewhere."""
    diag = embed_diagonal(space, [label], values)
    return AssembledOperator(space, _diagonal_csr(diag), hermitian=True)


def separation_table(space: CompositeSpace, label_i: str, label_j: str) -> np.ndarray:
    """(dim_i, dim_j) table of separations x_i - x_j.

    If both lattices are periodic they must share dim and spacing, and the
    separation is minimum-imaged from the integer site offset; this keeps
    simultaneous-shift invariance exact.
    """
    si = space.subsystem(label_i)
    sj = space.subsystem(label_j)
    if not (si.is_lattice and sj.is_lattice):
        raise OperatorError("pair interaction needs two lattice subsystems")
    if si.periodic and sj.periodic:
        if si.dim != sj.dim or si.grid_spacing != sj.grid_spacing:
            raise OperatorError(
                "periodic pair interaction needs matching grid (dim, spacing) "
                f"for {label_i!r} and {label_j!r}"
            )
        d = si.dim
        offsets = np.arange(d)[:, None] - np.arange(d)[None, :]
        offsets = (offsets + d // 2) % d - d // 2  # integer minimum image
        return offsets * float(si.grid_spacing)
    xi = si.positions()
    xj = sj.positions()
    return xi[:, None] - xj[None, :]


# --------------------------------------------------------------------------
# assembly
# --------------------------------------------------------------------------

def _zero(space: CompositeSpace) -> sp.csr_array:
    n = space.total_dim
    return sp.csr_array((n, n), dtype=np.complex128)


def _interaction_diagonal(space: CompositeSpace, term: Term) -> tuple[np.ndarray, float]:
    """The full-space diagonal of an interaction or spin-coupling term, and
    the pair's combined mass."""
    if isinstance(term, InteractionTerm):
        labels = [term.subsystem_i, term.subsystem_j]
        table = term.potential(separation_table(space, *labels))
        if not np.all(np.isfinite(table)):
            raise OperatorError(
                f"pair potential {term.potential.family!r} produced non-finite values"
            )
    elif isinstance(term, SpinCouplingTerm):
        labels = [term.spin_subsystem, term.pointer_subsystem]
        spin_sub, pointer_sub = (space.subsystem(label) for label in labels)
        if spin_sub.kind != "spin":
            raise OperatorError(
                f"spin_coupling needs a spin subsystem, got {spin_sub.kind}"
            )
        if not pointer_sub.is_lattice:
            raise OperatorError("spin_coupling pointer must be a lattice subsystem")
        if not np.isfinite(term.strength):
            raise OperatorError("spin_coupling strength must be finite")
        table = term.strength * np.multiply.outer(
            np.diag(spin_z_matrix(spin_sub.dim)), pointer_sub.positions()
        )
    else:
        raise OperatorError(f"not an interaction term: {term}")
    mass = space.subsystem(labels[0]).mass + space.subsystem(labels[1]).mass
    return embed_diagonal(space, labels, table), mass


def assemble_hamiltonian(spec: OperatorSpec, space: CompositeSpace) -> AssembledOperator:
    """Sum all declared terms into a Hermitian matrix.

    Kinetic terms use the three-point stencil; interaction and
    spin-coupling terms are diagonal in the position basis; external
    potentials are diagonal one-subsystem samples.
    """
    total = _zero(space)
    for term in spec.terms:
        if isinstance(term, KineticTerm):
            sub = space.subsystem(term.subsystem)
            total = total + embed_operator(
                space, {term.subsystem: kinetic_matrix(sub, term.mass)}
            )
        elif isinstance(term, ExternalPotentialTerm):
            sub = space.subsystem(term.subsystem)
            samples = np.asarray(term.samples, dtype=float)
            if samples.size != sub.dim:
                raise DimensionError(
                    f"external potential for {term.subsystem!r} has {samples.size} "
                    f"samples, expected {sub.dim}"
                )
            if not np.all(np.isfinite(samples)):
                raise OperatorError("external potential contains non-finite samples")
            total = total + _diagonal_csr(embed_diagonal(space, [term.subsystem], samples))
        elif isinstance(term, (InteractionTerm, SpinCouplingTerm)):
            total = total + _diagonal_csr(_interaction_diagonal(space, term)[0])
        else:
            raise OperatorError(f"unknown term type {type(term).__name__}")
    return AssembledOperator(space, total, hermitian=True)


def scaled_interaction_sum(spec: OperatorSpec, space: CompositeSpace) -> AssembledOperator:
    """Sum of interaction terms, each divided by the pair's combined mass.

    Kinetic and external terms are excluded.  With no interaction terms at
    all the result is the zero operator and the stochastic dynamics
    degenerates to plain unitary evolution; that case is flagged with a
    warning rather than an error.
    """
    terms = spec.interaction_terms
    if not terms:
        warnings.warn(
            "no interaction terms: mass-scaled interaction sum is zero, so the "
            "stochastic term vanishes",
            stacklevel=2,
        )
    total = _zero(space)
    for term in terms:
        diag, mass = _interaction_diagonal(space, term)
        total = total + _diagonal_csr(diag) * (1.0 / mass)
    return AssembledOperator(space, total, hermitian=True)


def collapse_operator(vprime: AssembledOperator, params: CollapseParams) -> AssembledOperator:
    """Scale the mass-scaled interaction sum to units of 1/sqrt(time)."""
    if not vprime.hermitian:
        raise OperatorError("collapse operator must come from a Hermitian input")
    factor = 1.0 / (params.c_scale**2 * np.sqrt(params.tau0))
    return vprime.scaled(factor)


def beta_apply(
    vhat: AssembledOperator, psi: StateVector | np.ndarray
) -> tuple[np.ndarray, float]:
    """Apply the deviation operator: returns (vhat psi - <vhat> psi, <vhat>).

    The returned vector is orthogonal to psi; that orthogonality is what
    makes the squared-norm increment of the stochastic step mean-zero.
    """
    if not vhat.hermitian:
        raise OperatorError("beta_apply requires a Hermitian operator")
    amps = psi.amplitudes if isinstance(psi, StateVector) else np.asarray(psi)
    if amps.shape != (vhat.space.total_dim,):
        raise DimensionError("state and operator dimensions differ")
    mpsi = vhat.apply(amps)
    v_mean = np.vdot(amps, mpsi)
    if abs(v_mean.imag) > 1e-10:
        raise OperatorError(
            f"expectation has imaginary part {v_mean.imag:.3e}; operator not Hermitian?"
        )
    return mpsi - v_mean.real * amps, float(v_mean.real)
