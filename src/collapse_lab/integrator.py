"""Euler-Maruyama integration of the norm-preserving stochastic collapse
equation, trajectory/ensemble drivers, and the density-matrix oracle.

One step evolves the state by

    psi' = normalize( psi - i H psi dt - (1/2) b(b psi) dt + (b psi) dxi )

where ``b psi = V psi - <V> psi`` is evaluated at the pre-step state and
``dxi`` is a Wiener increment with E[dxi] = 0 and E[|dxi|^2] = dt
(complex by default: (dW1 + i dW2)/sqrt(2); optionally real).  Because
``<psi|b psi> = 0`` the pre-renormalization squared norm is a martingale;
the per-step renormalization removes the residual O(dt) fluctuation and
its size is recorded for convergence checks.

Ensemble averages of the projector must reproduce the linear master
equation  d rho/dt = -i[H, rho] + V rho V - (1/2){V^2, rho}, which
:func:`lindblad_oracle` integrates with RK4 as the validation target.
The collapse operator is diagonal, V = diag(v), so the oracle applies
its dissipator as the mask -(1/2)(v_x - v_y)^2 rho_xy and H in CSR.
"""

from __future__ import annotations

import functools
import itertools
import math
import mmap
import multiprocessing
import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .entanglement import Bipartition
from .errors import DimensionError, NumericalError, StabilityError
from .hilbert import CompositeSpace, StateVector
from .operators import AssembledOperator, _collapse_diagonal, _csr

if TYPE_CHECKING:
    from .config import ScenarioConfig
    from .conservation import ConservedQuantity

__all__ = [
    "IntegrationPlan",
    "Observable",
    "Branch",
    "RealizedScenario",
    "TrajectoryRecord",
    "EnsembleStats",
    "ito_step",
    "run_trajectory",
    "run_ensemble",
    "ensemble_seeds",
    "lindblad_oracle",
    "check_stability",
]

STABILITY_LIMIT = 0.1
DEFAULT_COLLAPSE_THRESHOLD = 1.0 - 1e-6


@dataclass(frozen=True)
class IntegrationPlan:
    """Time grid, RNG seed, and noise/recording policy for one trajectory.

    The RNG is NumPy's default PCG64 generator seeded with ``seed``; a
    given (plan, scenario) pair reproduces the identical trajectory on one
    platform and identical statistics across platforms.
    """

    dt: float
    n_steps: int
    seed: int = 0
    noise_kind: str = "complex"
    record_every: int = 1
    collapse_threshold: float = DEFAULT_COLLAPSE_THRESHOLD

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")
        if self.n_steps < 1:
            raise ValueError("n_steps must be positive")
        if self.noise_kind not in ("complex", "real"):
            raise ValueError("noise_kind must be 'complex' or 'real'")
        if not (1 <= self.record_every <= self.n_steps):
            raise ValueError("record_every must be in [1, n_steps]")
        if self.n_steps % self.record_every != 0:
            raise ValueError("n_steps must be a multiple of record_every")
        if not (0.0 < self.collapse_threshold < 1.0):
            raise ValueError("collapse_threshold must be in (0, 1)")

    @property
    def n_records(self) -> int:
        return 1 + self.n_steps // self.record_every


def check_stability(plan: IntegrationPlan, vhat: AssembledOperator | None) -> None:
    """Explicit-scheme guard: dt * max|V|^2 must not exceed 0.1."""
    if vhat is None:
        return
    vmax = vhat.max_abs()
    if plan.dt * vmax**2 > STABILITY_LIMIT:
        raise StabilityError(
            f"dt * max|V|^2 = {plan.dt * vmax ** 2:.3g} exceeds the stability "
            f"limit {STABILITY_LIMIT}; reduce dt or the collapse rate"
        )


@dataclass(frozen=True, eq=False)
class Observable:
    """Recorded quantity: the expectation ``<psi| op |psi>``, complex if and
    only if ``op`` is not Hermitian; with ``kind="width"``, the spread
    ``sqrt(<op^2> - <op>^2)`` of a Hermitian ``op``."""

    name: str
    op: AssembledOperator
    kind: str = "expectation"

    def __post_init__(self):
        if self.kind not in ("expectation", "width"):
            raise ValueError(f"unknown observable kind {self.kind!r}")
        if self.kind == "width" and not self.op.hermitian:
            raise ValueError("a width needs a Hermitian operator")

    def evaluate(self, psi: np.ndarray) -> np.ndarray:
        """One value per row of a (batch, d) block of states."""
        opsi = self.op.apply(psi)
        if self.is_complex:
            return np.vecdot(psi, opsi)
        mean = _re_vecdot(psi, opsi)
        if self.kind == "expectation":
            return mean
        return np.sqrt(np.maximum(_re_vecdot(opsi, opsi) - mean**2, 0.0))

    @property
    def is_complex(self) -> bool:
        return not self.op.hermitian


def _re_vecdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a|b> for each row of two C-contiguous complex blocks: one real
    dot product over their float64 views."""
    return np.vecdot(a.view(np.float64), b.view(np.float64))


@dataclass(frozen=True, eq=False)
class Branch:
    """Named diagonal projector, stored as the basis indices it keeps."""

    label: str
    indices: np.ndarray


def _branch_indicator(branches: tuple[Branch, ...], d: int) -> np.ndarray:
    """(2d, n_branches) 0/1 matrix: ``(f * f) @ indicator``, with f the
    float64 view of a (b, d) block, gives every branch weight of each row."""
    ind = np.zeros((d, 2, len(branches)))
    for k, br in enumerate(branches):
        ind[br.indices, :, k] = 1.0
    return ind.reshape(2 * d, len(branches))


@dataclass(eq=False)
class RealizedScenario:
    """Everything the integrator needs, with operators already assembled."""

    space: CompositeSpace
    hamiltonian: AssembledOperator | None
    collapse_op: AssembledOperator | None
    psi0: StateVector
    plan: IntegrationPlan
    observables: tuple[Observable, ...] = ()
    branches: tuple[Branch, ...] = ()
    bipartitions: tuple[Bipartition, ...] = ()
    qv_tracks: tuple[str, ...] = ()  # names recording the QV of <H>
    quantities: tuple["ConservedQuantity", ...] = ()  # the config's audits
    config: "ScenarioConfig | None" = None


def _column_names(observables, branches, entropies, qvs) -> tuple[str, ...]:
    """The columns of a trajectory table, in order: ``t``, ``norm_pre``,
    each observable, given as a (name, is_complex) pair (``name_re`` and
    ``name_im`` if complex), ``branch_<label>`` of each branch,
    ``entropy_<partition>`` of each partition and ``qv_<name>`` of each
    tracked quadratic variation."""
    names = ["t", "norm_pre"]
    for name, is_complex in observables:
        names += [f"{name}_re", f"{name}_im"] if is_complex else [name]
    names += [f"branch_{label}" for label in branches]
    names += [f"entropy_{name}" for name in entropies]
    names += [f"qv_{name}" for name in qvs]
    return tuple(names)


class _ColumnRoles(NamedTuple):
    """Column index of each series of a trajectory table: the groups hold
    (key, index) pairs, an observable (name, re, im) with ``im`` None for a
    real one."""

    t: int
    norm_pre: int
    observables: tuple[tuple[str, int, int | None], ...]
    branches: tuple[tuple[str, int], ...]
    entropies: tuple[tuple[str, int], ...]
    qvs: tuple[tuple[str, int], ...]

    def series(self, table: np.ndarray) -> tuple[dict, dict, dict, dict]:
        """The observables, branch weights, entropies and quadratic
        variations of a ([b,] n_columns, n_records) table, each keyed by
        name with shape ([b,] n_records).  Views of the table, except a
        complex observable, which is ``re + 1j * im``."""
        col = table.swapaxes(0, -2)  # col[i]: column i, a view
        return ({name: col[re] if im is None else col[re] + 1j * col[im]
                 for name, re, im in self.observables},
                *({key: col[i] for key, i in pairs}
                  for pairs in (self.branches, self.entropies, self.qvs)))


@functools.lru_cache(maxsize=16)
def _column_roles(names: tuple[str, ...]) -> _ColumnRoles:
    """The roles of the columns ``names`` of a trajectory table, the
    inverse of :func:`_column_names`.  A repeated name stands for its last
    column; ``x_re`` and ``x_im`` make the complex observable ``x``.
    Raises DimensionError without a ``t`` or ``norm_pre`` column.
    Cached: every row of an ensemble has the same columns."""
    index = dict(zip(names, range(len(names))))
    missing = [n for n in ("t", "norm_pre") if n not in index]
    if missing:
        raise DimensionError(f"no {' or '.join(missing)} column")
    observables: dict[str, tuple[int, int | None]] = {}
    consumed = {"t", "norm_pre"}
    for name in index:
        if name in consumed or name.startswith(("branch_", "entropy_", "qv_")):
            continue
        if name.endswith("_re") and name[:-3] + "_im" in index:
            base = name[:-3]
            observables[base] = (index[name], index[base + "_im"])
            consumed |= {name, base + "_im"}
        elif name.endswith("_im") and name[:-3] + "_re" in index:
            continue
        else:
            observables[name] = (index[name], None)

    def group(prefix):
        return tuple((n[len(prefix):], i) for n, i in index.items() if n.startswith(prefix))

    return _ColumnRoles(
        t=index["t"],
        norm_pre=index["norm_pre"],
        observables=tuple((name, *where) for name, where in observables.items()),
        branches=group("branch_"),
        entropies=group("entropy_"),
        qvs=group("qv_"),
    )


@dataclass(eq=False)
class TrajectoryRecord:
    """One trajectory: its float64 (n_columns, n_records) ``table``, whose
    rows are the series named by ``columns`` (:func:`_column_names`), its
    seed, plan and collapse, and its states when they are at hand.

    The table is the persisted layout: a CSV holds its transpose and a row
    of the ensemble array its bytes.  ``times``, ``norms_pre_renorm`` and
    the dicts ``observables``, ``branch_weights``, ``entropy_series`` and
    ``qv_series`` are decoded from it, as views of its rows except the
    complex observables.  Branch weights at each recorded time sum to 1.
    ``norms_pre_renorm`` holds the norm of the raw update that produced the
    recorded state (1.0 at t = 0); ``norm_drift_mean`` averages (norm - 1)
    over every step, recorded or not.  ``qv_series`` accumulates the
    realized quadratic variation of tracked expectations, used by audit
    bounds.
    """

    columns: tuple[str, ...]
    table: np.ndarray
    final_state: StateVector | None  # None when reloaded from disk
    seed: int
    plan: IntegrationPlan
    collapsed_branch: str | None = None
    collapse_step: int | None = None
    norm_drift_mean: float = 0.0
    states: np.ndarray | None = None  # (n_records, dim) when requested
    times: np.ndarray = field(init=False)
    norms_pre_renorm: np.ndarray = field(init=False)
    observables: dict[str, np.ndarray] = field(init=False)
    branch_weights: dict[str, np.ndarray] = field(init=False)
    entropy_series: dict[str, np.ndarray] = field(init=False)
    qv_series: dict[str, np.ndarray] = field(init=False)

    def __post_init__(self):
        roles = _column_roles(tuple(self.columns))
        if self.table.ndim != 2 or len(self.table) != len(self.columns):
            raise DimensionError(
                f"a table of shape {self.table.shape} for {len(self.columns)} columns"
            )
        self.times = self.table[roles.t]
        self.norms_pre_renorm = self.table[roles.norm_pre]
        (self.observables, self.branch_weights, self.entropy_series,
         self.qv_series) = roles.series(self.table)
        if self.branch_weights:
            # in-place adds in branch order: the same sum as np.sum(axis=0)
            weights = iter(self.branch_weights.values())
            sums = np.array(next(weights), dtype=float)
            for w in weights:
                sums += w
            sums -= 1.0
            deviation = np.abs(sums, out=sums).max()
            if deviation > 1e-9:
                raise NumericalError(
                    "branch weights do not partition probability "
                    f"(max deviation {deviation:.3e})"
                )

    @property
    def collapse_time(self) -> float | None:
        if self.collapse_step is None:
            return None
        return self.collapse_step * self.plan.dt


def _step(psi: np.ndarray, h: AssembledOperator | None,
          v: AssembledOperator | None, dt: float, dxi: np.ndarray | None):
    """One renormalized Euler-Maruyama step of a (batch, d) block of states.

    ``dxi`` holds one noise increment per row.  Returns the new block, the
    pre-renormalization norms, the deviation ``beta = V psi - <V> psi``
    and the unscaled ``H psi``, both at the pre-step state (None without V
    or H).  The arithmetic is in place: temporaries of the state size cost
    measurable time at large dims.
    """
    hpsi = None if h is None else h.apply(psi)
    beta = None
    if v is not None:
        beta = v.apply(psi)
        vmean = _re_vecdot(psi, beta)[:, None]
        beta -= vmean * psi
        new = v.apply(beta)
        new -= vmean * beta
        new *= -0.5 * dt
        new += dxi[:, None] * beta
        if hpsi is not None:
            new += hpsi * (-1j * dt)
        new += psi
    elif hpsi is not None:
        new = hpsi * (-1j * dt)
        new += psi
    else:
        new = psi.copy()
    nrm = np.sqrt(_re_vecdot(new, new))
    if not (np.isfinite(nrm).all() and nrm.all()):
        raise NumericalError("state norm became non-finite during integration")
    new *= (1.0 / nrm)[:, None]
    return new, nrm, beta, hpsi


def ito_step(
    psi: StateVector,
    hamiltonian: AssembledOperator | None,
    vhat: AssembledOperator | None,
    dt: float,
    noise: complex,
) -> StateVector:
    """One renormalized Euler-Maruyama step with an externally drawn increment.

    The deviation operator is evaluated at the pre-step state; the supplied
    ``noise`` must satisfy E[noise] = 0, E[|noise|^2] = dt.  The plan
    refuses a ``dt`` that is not positive and finite (ValueError).
    """
    check_stability(IntegrationPlan(dt=dt, n_steps=1), vhat)
    new, _, _, _ = _step(psi.amplitudes[None, :], hamiltonian, vhat, dt,
                         np.array([complex(noise)]))
    return StateVector(psi.space, new[0])


def run_trajectory(
    scenario: "RealizedScenario | ScenarioConfig",
    seed: int | None = None,
    *,
    record_states: bool = False,
) -> TrajectoryRecord:
    """Integrate one trajectory; deterministic given the seed.

    Accepts a declarative config (realized on the fly) or an already
    realized scenario.  ``seed`` overrides the plan seed when given;
    ``record_states`` additionally stores the state at each recorded time.
    """
    sc = _ensure_realized(scenario)
    seed = sc.plan.seed if seed is None else seed
    check_stability(sc.plan, sc.collapse_op)
    out = _chunk_block(sc, 1, record_states)
    _run_chunk_batched(sc, [seed], out)
    return _records(sc, [seed], out)[0]


@dataclass(eq=False)
class EnsembleStats:
    """Per-time-point statistics over independent trajectories.

    Column reductions of each chunk's (b, n_records) blocks: means,
    two-pass variances over n - 1 (merged across chunks) and standard
    errors sqrt(var / n).
    Outcome counts tally the collapse flag ('uncollapsed' for trajectories
    that never crossed the threshold).  ``mean_density`` is the averaged
    projector at each recorded time when density recording was requested.
    """

    times: np.ndarray
    n_traj: int
    observable_mean: dict[str, np.ndarray]
    observable_var: dict[str, np.ndarray]
    observable_stderr: dict[str, np.ndarray]
    branch_weight_mean: dict[str, np.ndarray]
    branch_weight_stderr: dict[str, np.ndarray]
    entropy_mean: dict[str, np.ndarray]
    outcome_counts: dict[str, int]
    norm_drift_mean: float
    norm_drift_stderr: float
    mean_density: np.ndarray | None = None
    base_seed: int = 0


def _ensure_realized(scenario) -> RealizedScenario:
    if isinstance(scenario, RealizedScenario):
        return scenario
    from .scenarios import realize  # deferred: scenarios builds on this module's types

    return realize(scenario)


def ensemble_seeds(base_seed: int, n_traj: int) -> list[int]:
    """Seeds of an ensemble's trajectories, in the order they are reduced."""
    return [base_seed + i for i in range(n_traj)]


def run_ensemble(
    scenario: "RealizedScenario | ScenarioConfig",
    n_traj: int,
    base_seed: int = 0,
    *,
    record_density: bool = False,
    keep_records: bool = False,
) -> tuple[EnsembleStats, list[TrajectoryRecord]]:
    """Run ``n_traj`` trajectories with seeds base_seed + index.

    Trajectories run in lock-step chunks of balanced sizes that depend on
    ``n_traj`` and the dimension only (:func:`_chunk_sizes`).  With two
    chunks or more, two usable CPUs or more and ``fork``, forked workers
    run chunks beside this process, which runs its share too; each chunk
    writes its rows in place into one ensemble block in shared memory.
    The chunks' blocks are summed column by column in seed order and
    folded in chunk order, so results do not depend on the number of
    processes; several chunks differ from one only by the reassociation of
    the sums and the merge of the chunks' variances (:func:`_fold`).
    Returns (stats, records); ``records`` is empty, and no record is built,
    unless ``keep_records``: then each record's table is a view of the
    block's row.  Without it the block holds only the chunks in flight.
    No worker outlives the call, on success or on error.
    """
    if n_traj < 2:
        raise ValueError("an ensemble needs n_traj >= 2")
    sc = _ensure_realized(scenario)
    d = sc.space.total_dim
    if record_density and d > 64:
        raise DimensionError(
            "density recording is limited to total_dim <= 64; average "
            "projectors of larger systems are not materialized"
        )
    check_stability(sc.plan, sc.collapse_op)

    seeds = ensemble_seeds(base_seed, n_traj)
    sizes = _chunk_sizes(n_traj, d)
    starts = list(itertools.accumulate(sizes, initial=0))
    n_proc = _processes(len(sizes))
    # kept records are views of one n_traj-row block; otherwise the chunks
    # of one process share rows, one chunk per process in flight
    block = _chunk_block(sc, n_traj if keep_records else n_proc * sizes[0],
                         record_density)

    def rows(i: int) -> _Chunk:
        lo = starts[i] if keep_records else i % n_proc * sizes[0]
        return block.rows(lo, lo + sizes[i])

    def run(i: int) -> None:
        _run_chunk_batched(sc, seeds[starts[i]:starts[i + 1]], rows(i))

    # column totals of the series and their centered sums of squares, from
    # 0.0 as a row-by-row sum: a column of -0.0 totals +0.0
    obs_sum, obs_m2, w_sum, w_m2, ent_sum = (defaultdict(float) for _ in range(5))
    labels = [*(br.label for br in sc.branches), "uncollapsed"]  # [-1]: none
    outcomes: Counter[str] = Counter()
    drift, records = np.empty(n_traj), []
    density = np.zeros((sc.plan.n_records, d, d), complex) if record_density else None
    with _ChunkRunner(run, len(sizes), n_proc, reuse=not keep_records) as runner:
        for i, (start, stop) in enumerate(zip(starts, starts[1:])):
            runner.ready(i)
            chunk = rows(i)
            roles = _column_roles(chunk.columns)
            observables, weights, entropies, _ = roles.series(chunk.table)
            _fold(obs_sum, obs_m2, observables, start)
            _fold(w_sum, w_m2, weights, start)
            for k, part in entropies.items():
                ent_sum[k] += part.sum(axis=0)
            outcomes.update(labels[j] for j in chunk.collapse_branch.tolist())
            drift[start:stop] = chunk.drift_mean
            if density is not None:
                density += np.einsum("bti,btj->tij", chunk.states, chunk.states.conj())
            if keep_records:
                records.extend(_records(sc, seeds[start:stop], chunk))
            runner.release(i)

    obs_mean, obs_var, obs_se = _moments(obs_sum, obs_m2, n_traj)
    w_mean, _, w_se = _moments(w_sum, w_m2, n_traj)
    return EnsembleStats(
        times=chunk.table[0, 0].copy(),  # column t: the same in every row
        n_traj=n_traj,
        observable_mean=obs_mean,
        observable_var=obs_var,
        observable_stderr=obs_se,
        branch_weight_mean=w_mean,
        branch_weight_stderr=w_se,
        entropy_mean={k: s / n_traj for k, s in ent_sum.items()},
        outcome_counts=dict(sorted(outcomes.items())),
        norm_drift_mean=float(drift.mean()),
        norm_drift_stderr=float(np.std(drift, ddof=1) / np.sqrt(n_traj)),
        mean_density=None if density is None else density / n_traj,
        base_seed=base_seed,
    ), records


def _fold(sums: dict, m2: dict, blocks: dict[str, np.ndarray], n_done: int) -> None:
    """Add a chunk's (b, n_records) blocks to the column totals ``sums`` and
    the centered sums of squares ``m2`` of the ``n_done`` rows before it:
    two passes over the chunk about its own mean, merged as by Chan,
    Golub & LeVeque (1979), m2 += m2_chunk + |mean_chunk - mean_before|^2
    n_done b / (n_done + b).  A one-pass sum_sq / n - mean^2 cancels."""
    for k, block in blocks.items():
        b = len(block)
        total = block.sum(axis=0)
        mean = total / b
        m2[k] += (np.abs(block - mean) ** 2).sum(axis=0)
        if n_done:
            m2[k] += np.abs(mean - sums[k] / n_done) ** 2 * (n_done * b / (n_done + b))
        sums[k] += total


def _moments(sums: dict, m2: dict, n: int) -> tuple[dict, dict, dict]:
    """Mean, variance (over n - 1) and standard error of each series from
    its column totals and centered sums of squares over ``n`` trajectories."""
    var = {k: m / (n - 1) for k, m in m2.items()}
    return ({k: s / n for k, s in sums.items()}, var,
            {k: np.sqrt(v / n) for k, v in var.items()})


# Blocks of states larger than this many amplitudes drop out of the CPU
# caches; at d = 4096 a 512-trajectory chunk ran 1.75x slower per
# trajectory-step than one trajectory at a time.
BATCH_AMPLITUDES = 1 << 15
# At small d a step costs per row, and past this many rows the block and
# its temporaries leave the L2 cache: at d = 4 a step cost 125 ns per row
# at 2048 rows and 228 ns at 8192.  The cap also gives an ensemble of
# 2000 trajectories at d = 4 two chunks, which two cores run side by side.
BATCH_ROWS = 1 << 10
# Noise increments drawn at once per chunk (4 MB of complex128); drawing
# a whole qnd-two-level run at once took 41 MB for 512 trajectories.
NOISE_INCREMENTS = 1 << 18


def _chunk_sizes(n_traj: int, d: int) -> list[int]:
    """The sizes of an ensemble's chunks, which depend on ``n_traj`` and
    the dimension ``d`` only: as few chunks as keep each within
    ``BATCH_AMPLITUDES`` amplitudes and ``BATCH_ROWS`` rows, balanced to
    differ by at most one row, the larger first."""
    cap = max(1, min(BATCH_ROWS, BATCH_AMPLITUDES // d))
    n_chunks = -(-n_traj // cap)
    size, extra = divmod(n_traj, n_chunks)
    return [size + 1] * extra + [size] * (n_chunks - extra)


def _processes(n_chunks: int) -> int:
    """How many processes run ``n_chunks`` chunks: one per usable CPU, at
    most one per chunk, and only the caller's without ``fork``."""
    if (n_chunks < 2 or not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return min(n_chunks, len(os.sched_getaffinity(0)))


class _Chunk(NamedTuple):
    """The arrays of trajectories integrated together: the ``columns`` of
    their tables and the (b, n_columns, n_records) ``table``, whose row i
    is trajectory i's :class:`TrajectoryRecord` table, and per row the
    final state, the collapse step and branch index (-1 if none), the mean
    of (norm - 1) over every step and, if recorded, the (n_records, d)
    states."""

    columns: tuple[str, ...]
    table: np.ndarray
    psi: np.ndarray
    collapse_step: np.ndarray
    collapse_branch: np.ndarray
    drift_mean: np.ndarray
    states: np.ndarray | None

    def rows(self, lo: int, hi: int) -> "_Chunk":
        """Rows ``lo:hi`` of every array, as views."""
        return _Chunk(self.columns, *(None if a is None else a[lo:hi] for a in self[1:]))


def _partitions(sc: RealizedScenario) -> list[Bipartition]:
    """The scenario's bipartitions, one per entropy column: a config may
    list one twice."""
    return list({part.name(): part for part in sc.bipartitions}.values())


def _chunk_block(sc: RealizedScenario, rows: int, record_states: bool) -> _Chunk:
    """Arrays for ``rows`` trajectories of ``sc``, to be written by
    :func:`_run_chunk_batched`, in one anonymous shared mapping: processes
    forked after it write into the same memory."""
    columns = _column_names(
        [(o.name, o.is_complex) for o in sc.observables],
        [br.label for br in sc.branches],
        [part.name() for part in _partitions(sc)],
        sc.qv_tracks,
    )
    n_rec, d = sc.plan.n_records, sc.space.total_dim
    layout = [(np.float64, (rows, len(columns), n_rec)), (np.complex128, (rows, d)),
              (np.int64, (rows,)), (np.int64, (rows,)), (np.float64, (rows,))]
    if record_states:
        layout.append((np.complex128, (rows, n_rec, d)))
    offsets = [0]
    for dtype, shape in layout:  # each array starts on a 64-byte line
        size = np.dtype(dtype).itemsize * math.prod(shape)
        offsets.append(offsets[-1] + -(-size // 64) * 64)
    buf = mmap.mmap(-1, offsets[-1])
    arrays = [np.ndarray(shape, dtype, buffer=buf, offset=offset)
              for (dtype, shape), offset in zip(layout, offsets)]
    return _Chunk(columns, *arrays[:5], arrays[5] if record_states else None)


class _ChunkRunner:
    """Runs an ensemble's ``n_chunks`` chunks, ``run(i)`` each, on
    ``n_proc`` processes.  The caller's process runs the chunks i with
    i % n_proc == 0; worker p, forked on entry, runs those with
    i % n_proc == p and reports each on its pipe, or the error it raised.
    When ``reuse``, a worker's chunks share rows, so it writes the next
    only after the caller has released the last.  On exit every worker is
    joined, and on error killed first: none outlives the ensemble."""

    def __init__(self, run, n_chunks: int, n_proc: int, reuse: bool):
        self.run, self.n_chunks, self.n_proc, self.reuse = run, n_chunks, n_proc, reuse
        self.workers = []

    def __enter__(self) -> "_ChunkRunner":
        context = multiprocessing.get_context("fork")
        try:
            for p in range(1, self.n_proc):
                conn, child_conn = context.Pipe()
                worker = context.Process(target=self._work, args=(child_conn, p))
                worker.start()
                child_conn.close()  # so that a dead worker reads as EOF
                self.workers.append((worker, conn))
        except BaseException:
            self.__exit__(True, None, None)
            raise
        return self

    def _work(self, conn, p: int) -> None:
        """A worker's loop, in the forked process."""
        try:
            for j, i in enumerate(range(p, self.n_chunks, self.n_proc)):
                if j and self.reuse:
                    conn.recv()
                self.run(i)
                conn.send(i)
        except Exception as exc:
            conn.send(exc)

    def ready(self, i: int) -> None:
        """Return once chunk i is written: run it here, or wait for its
        worker and raise the error the worker sent."""
        p = i % self.n_proc
        if not p:
            self.run(i)
            return
        worker, conn = self.workers[p - 1]
        try:
            message = conn.recv()
        except EOFError:
            worker.join()
            raise ChildProcessError(f"an ensemble worker exited with code "
                                    f"{worker.exitcode} before chunk {i}") from None
        if isinstance(message, BaseException):
            raise message

    def release(self, i: int) -> None:
        """Let the worker of chunk i write its next chunk over it."""
        p = i % self.n_proc
        if p and self.reuse and i + self.n_proc < self.n_chunks:
            self.workers[p - 1][1].send(None)

    def __exit__(self, exc_type, exc, tb) -> None:
        for worker, conn in self.workers:
            if exc_type is not None:
                worker.kill()
            worker.join()
            conn.close()


def _records(sc: RealizedScenario, seeds: list[int],
             chunk: _Chunk) -> list[TrajectoryRecord]:
    """One :class:`TrajectoryRecord` per row of the chunk run for
    ``seeds``.  Its table is a view of the chunk's row, so that an
    ensemble of thousands of trajectories is not held twice."""
    labels = [*(br.label for br in sc.branches), None]  # [-1]: none
    steps = [None if s < 0 else s for s in chunk.collapse_step.tolist()]
    return [
        TrajectoryRecord(
            columns=chunk.columns,
            table=chunk.table[i],
            final_state=StateVector(sc.space, chunk.psi[i]),
            seed=seed,
            plan=replace(sc.plan, seed=seed),
            collapsed_branch=labels[chunk.collapse_branch[i]],
            collapse_step=steps[i],
            norm_drift_mean=float(chunk.drift_mean[i]),
            states=None if chunk.states is None else chunk.states[i],
        )
        for i, seed in enumerate(seeds)
    ]


def _run_chunk_batched(sc: RealizedScenario, seeds: list[int], out: _Chunk) -> None:
    """Integrate a block of trajectories in lock-step, writing row i of
    every array of ``out`` (rows of a :func:`_chunk_block`) for ``seeds[i]``;
    the states only if ``out`` has them.

    Each trajectory consumes its own generator stream, seeded by its seed,
    so a trajectory does not depend on the batch it runs in beyond
    rounding.  A single trajectory is a batch of one.  Increments are drawn
    ``NOISE_INCREMENTS // len(seeds)`` steps at a time; blocks of one
    stream give the same values as one long draw.  The caller checks the
    plan's stability.
    """
    plan = sc.plan
    b = len(seeds)
    dt = plan.dt
    h, v = sc.hamiltonian, sc.collapse_op
    rngs = [np.random.default_rng(s) for s in seeds]
    complex_noise = plan.noise_kind == "complex"
    noise_block = max(1, NOISE_INCREMENTS // b)

    def draw_noise(n: int) -> np.ndarray:
        # a complex increment is (w[2k] + i w[2k+1]) sqrt(dt/2): the
        # interleaved normals of the stream are its float64 view
        w = np.empty((b, 2 * n if complex_noise else n))
        for row, rng in zip(w, rngs):
            rng.standard_normal(out=row)
        w *= np.sqrt(dt / 2.0) if complex_noise else np.sqrt(dt)
        return w.view(np.complex128) if complex_noise else w

    psi = np.tile(sc.psi0.amplitudes, (b, 1))

    parts = _partitions(sc)
    table, states = out.table, out.states
    # integer product first: bit-equal to step * dt at every recorded step
    table[:, 0] = (np.arange(plan.n_records) * plan.record_every) * dt
    qv_accum = np.zeros(b)

    collapse_step, collapse_branch = out.collapse_step, out.collapse_branch
    collapse_step.fill(-1)
    collapse_branch.fill(-1)
    drift_sum = np.zeros(b)
    indicator = _branch_indicator(sc.branches, sc.space.total_dim)

    def branch_weights(block: np.ndarray) -> np.ndarray:
        f = block.view(np.float64)
        return (f * f) @ indicator

    def record(idx: int, pre_norms: np.ndarray):
        # columns 1, 2, ... of record idx, in the order of _column_names
        values = [pre_norms]
        for o in sc.observables:
            value = o.evaluate(psi)
            values += [value.real, value.imag] if o.is_complex else [value]
        if sc.branches:
            values += list(branch_weights(psi).T)
        values += [part.entropies(sc.space, psi) for part in parts]
        values += [qv_accum] * len(sc.qv_tracks)
        for c, value in enumerate(values, 1):
            table[:, c, idx] = value
        if states is not None:
            states[:, idx, :] = psi

    def check_collapse(step: int):
        # collapsed rows are not tested again; no copy while none has.  A
        # row that crosses the threshold in two branches takes the first.
        if not sc.branches:
            return
        rows = np.flatnonzero(collapse_step < 0)
        if rows.size == 0:
            return
        open_psi = psi if rows.size == b else psi[rows]
        hit = branch_weights(open_psi) >= plan.collapse_threshold
        crossed = hit.any(axis=1)
        if crossed.any():
            collapse_step[rows[crossed]] = step
            collapse_branch[rows[crossed]] = hit[crossed].argmax(axis=1)

    record(0, np.ones(b))
    check_collapse(0)

    idx = 1
    for step in range(1, plan.n_steps + 1):
        dxi = None
        if v is not None:
            if (step - 1) % noise_block == 0:
                noise = draw_noise(min(noise_block, plan.n_steps - step + 1))
            dxi = noise[:, (step - 1) % noise_block]
        new, nrm, beta, hpsi = _step(psi, h, v, dt, dxi)
        if sc.qv_tracks and beta is not None and hpsi is not None:
            # quadratic variation of <H>, from the pre-step H psi and beta
            c = np.vecdot(hpsi, beta)
            if plan.noise_kind == "complex":
                qv_accum += 2.0 * np.abs(c) ** 2 * dt
            else:
                qv_accum += 4.0 * c.real**2 * dt
        psi = new
        drift_sum += nrm - 1.0
        check_collapse(step)
        if step % plan.record_every == 0:
            record(idx, nrm)
            idx += 1

    out.psi[:] = psi
    out.drift_mean[:] = drift_sum / plan.n_steps


# --------------------------------------------------------------------------
# density-matrix oracle
# --------------------------------------------------------------------------

def lindblad_oracle(
    hamiltonian: AssembledOperator | np.ndarray | None,
    vhat: AssembledOperator | np.ndarray | None,
    rho0: np.ndarray,
    plan: IntegrationPlan,
) -> np.ndarray:
    """RK4 integration of d rho/dt = -i[H, rho] + V rho V - (1/2){V^2, rho}:
    rho at the plan's ``n_records`` checkpoints, shape (n_records, d, d).

    The reference that ensembles are judged by, kept apart from their
    kernel.  H and V are operators or arrays, None if absent.  V = diag(v)
    (OperatorError otherwise) makes the dissipator the mask -(1/2) Gamma o
    rho, Gamma_xy = (v_x - v_y)^2, and -i[H, rho] = -i(H rho - (H rho)^dag)
    for Hermitian H, rho: one CSR product per stage.  Hermiticity is enforced
    by symmetrization each step; the trace must stay within 1e-9 of rho0's.
    """
    rho = np.array(rho0, dtype=np.complex128)
    d = rho.shape[0]
    if rho.shape != (d, d):
        raise DimensionError("rho0 must be square")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise NumericalError("rho0 is not Hermitian")
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -1e-10:
        raise NumericalError(f"rho0 has negative eigenvalue {eigs.min():.3e}")
    tr0 = float(np.real(np.trace(rho)))
    if abs(tr0 - 1.0) > 1e-8:
        raise NumericalError(f"rho0 trace {tr0} is not 1")

    h = None if hamiltonian is None else _csr(hamiltonian)
    v = None if vhat is None else _collapse_diagonal(vhat)
    if (h is not None and h.shape != (d, d)) or (v is not None and v.shape != (d,)):
        raise DimensionError("operator and density-matrix dimensions differ")
    gamma = None if v is None else -0.5 * (v[:, None] - v[None, :]) ** 2

    def rhs(r: np.ndarray) -> np.ndarray:
        out = np.zeros_like(r) if gamma is None else gamma * r
        if h is not None:
            hr = h @ r
            out += -1j * (hr - hr.conj().T)
        return out

    dt = plan.dt
    checkpoints = np.empty((plan.n_records, d, d), dtype=np.complex128)
    checkpoints[0] = rho
    for i in range(1, plan.n_steps + 1):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        tr = float(np.real(np.trace(rho)))
        if abs(tr - tr0) > 1e-9:
            raise NumericalError(
                f"oracle trace drifted by {abs(tr - tr0):.3e} at step {i}; "
                "reduce dt"
            )
        if i % plan.record_every == 0:
            checkpoints[i // plan.record_every] = rho
    return checkpoints

