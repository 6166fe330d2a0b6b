"""Conserved-quantity definitions, commutation certificates, and run audits.

A conserved quantity is always evaluated as a total-system expectation
``<psi| Q |psi>`` over the full composite state, never per-factor: that is
the only assignment that survives entanglement.  Audits classify each
quantity by structure:

exact
    Q commutes with both the Hamiltonian and the collapse operator and the
    initial state lies in a Q eigenspace; every trajectory conserves <Q>
    to rounding.
martingale
    Q commutes with both but the state starts superposed across Q sectors;
    individual trajectories move, the ensemble mean does not.
lindblad-governed
    Q fails to commute; the ensemble mean follows the density-matrix
    oracle, and per-trajectory deviations are bounded by the oracle drift
    plus the realized quadratic variation of the tracked expectation.

Lattice total momentum is represented by the unitary simultaneous-shift
generator, which commutes exactly with minimum-image pair potentials;
``arg<T> / grid_spacing`` serves as the quasi-momentum readout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
from scipy.special import ndtr, ndtri

from .errors import AuditRefusal, DimensionError, NumericalError, OperatorError
from .hilbert import CompositeSpace, StateVector
from .operators import AssembledOperator, _csr, _diagonal_csr, _max_abs, embed_operator

if TYPE_CHECKING:
    from .integrator import RealizedScenario, TrajectoryRecord

__all__ = [
    "ConservedQuantity",
    "CommutatorCertificate",
    "QuantityAudit",
    "AuditReport",
    "expectation",
    "subsystem_marginal",
    "total_shift_generator",
    "single_shift_generator",
    "commutator_certificate",
    "classify_quantity",
    "lindblad_drift_rate_bound",
    "family_threshold",
    "audit_run",
]

COMMUTE_TOL = 1e-12
EXACT_TOL_HERMITIAN = 1e-10
EXACT_TOL_UNITARY = 1e-9
EIGENSTATE_RESIDUAL_TOL = 1e-8
ORACLE_MAX_DIM = 16  # largest dimension whose ensemble mean meets the oracle
N_SIGMA = 3.0  # each ensemble test has the false-alarm rate of one N_SIGMA test


@dataclass(frozen=True, eq=False)
class ConservedQuantity:
    """Named operator whose total-system expectation is audited."""

    name: str
    operator: AssembledOperator
    kind: str = "custom"  # energy | total_quasimomentum | spin_z | custom
    subsystem: str | None = None

    def __post_init__(self):
        if not (self.operator.hermitian or self.operator.unitary):
            raise OperatorError(
                f"quantity {self.name!r} must be Hermitian or a flagged "
                "unitary symmetry generator"
            )

    @property
    def is_unitary(self) -> bool:
        return self.operator.unitary


def expectation(quantity: ConservedQuantity | AssembledOperator, psi: StateVector):
    """<psi| Q |psi>: real for Hermitian Q, complex for unitary generators."""
    op = quantity.operator if isinstance(quantity, ConservedQuantity) else quantity
    amps = psi.amplitudes
    if op.matrix.shape[0] != amps.shape[0]:
        raise DimensionError("state and operator dimensions differ")
    val = complex(np.vdot(amps, op.apply(amps)))
    if op.unitary:
        if abs(val) > 1.0 + 1e-9:
            raise NumericalError(f"unitary expectation has modulus {abs(val)} > 1")
        return val
    scale = max(1.0, op.max_abs())
    if abs(val.imag) > 1e-10 * scale:
        raise NumericalError(
            f"Hermitian expectation has imaginary part {val.imag:.3e}"
        )
    return float(val.real)


def subsystem_marginal(
    op_single: np.ndarray, subsystem: str, psi: StateVector
):
    """Expectation of a one-subsystem operator (identity elsewhere)."""
    space = psi.space
    mat = embed_operator(space, {subsystem: np.asarray(op_single, dtype=complex)})
    val = complex(np.vdot(psi.amplitudes, mat @ psi.amplitudes))
    if abs(val.imag) < 1e-10 * max(1.0, float(np.max(np.abs(op_single)))):
        return float(val.real)
    return val


def _shift_permutation(space: CompositeSpace, labels: list[str]) -> sp.csr_array:
    """Permutation moving each of ``labels`` one site up: row r holds its
    one entry in the column of the basis state shifted one site down."""
    dims = space.dims
    n = space.total_dim
    multi = list(np.unravel_index(np.arange(n), dims))
    for i, sub in enumerate(space.subsystems):
        if sub.label in labels:
            multi[i] = (multi[i] - 1) % sub.dim
    cols = np.ravel_multi_index(tuple(multi), dims)
    return sp.csr_array((np.ones(n, dtype=np.complex128), cols, np.arange(n + 1)),
                        shape=(n, n))


def total_shift_generator(space: CompositeSpace) -> AssembledOperator:
    """Unitary simultaneous one-site shift of every lattice subsystem.

    Commutes exactly with minimum-image pair potentials and with periodic
    kinetic terms, so its eigensectors realize exact total-momentum
    conservation on the grid.
    """
    lattice_labels = [s.label for s in space.subsystems if s.is_lattice]
    if not lattice_labels:
        raise OperatorError("no lattice subsystems to shift")
    not_periodic = [
        s.label for s in space.subsystems if s.is_lattice and not s.periodic
    ]
    if not_periodic:
        raise OperatorError(
            f"shift generator needs periodic lattices; {not_periodic} are hard-wall"
        )
    mat = _shift_permutation(space, lattice_labels)
    return AssembledOperator(space, mat, hermitian=False, unitary=True)


def single_shift_generator(space: CompositeSpace, label: str) -> AssembledOperator:
    """One-site shift of a single periodic lattice subsystem (marginal use)."""
    sub = space.subsystem(label)
    if not (sub.is_lattice and sub.periodic):
        raise OperatorError(f"{label!r} is not a periodic lattice")
    mat = _shift_permutation(space, [label])
    return AssembledOperator(space, mat, hermitian=False, unitary=True)


@dataclass(frozen=True)
class CommutatorCertificate:
    value: float
    tolerance: float
    passed: bool


def commutator_certificate(a, b, tolerance: float = COMMUTE_TOL) -> CommutatorCertificate:
    """Max-norm of AB - BA with a pass/fail verdict at ``tolerance``.

    ``a`` and ``b`` are operators or arrays, dense or sparse."""
    am, bm = _csr(a), _csr(b)
    value = _max_abs(am @ bm - bm @ am)
    return CommutatorCertificate(value, tolerance, value <= tolerance)


def _spectral_bound(m: sp.csr_array) -> float:
    """Upper bound on the spectral norm via sqrt(norm_1 * norm_inf)."""
    absm = abs(m)
    n1 = float(absm.sum(axis=0).max(initial=0.0))
    ninf = float(absm.sum(axis=1).max(initial=0.0))
    return float(np.sqrt(n1 * ninf))


def lindblad_drift_rate_bound(hamiltonian, vhat) -> float:
    """Bound on |d<H>/dt| under the master equation.

    The master-equation drift of a quantity Q is -(1/2) <[V, [V, Q]]>, so
    half the spectral norm of the nested commutator bounds the rate.
    """
    h, v = _csr(hamiltonian), _csr(vhat)
    inner = v @ h - h @ v
    nested = v @ inner - inner @ v
    return 0.5 * _spectral_bound(nested)


def classify_quantity(
    quantity: ConservedQuantity,
    hamiltonian,
    vhat,
    psi0: StateVector,
) -> tuple[str, dict]:
    """Structural classification plus the measured certificates."""
    details: dict = {}
    comm_h = commutator_certificate(quantity.operator, hamiltonian) \
        if hamiltonian is not None else CommutatorCertificate(0.0, COMMUTE_TOL, True)
    comm_v = commutator_certificate(quantity.operator, vhat) \
        if vhat is not None else CommutatorCertificate(0.0, COMMUTE_TOL, True)
    details["commutator_with_hamiltonian"] = comm_h.value
    details["commutator_with_collapse"] = comm_v.value

    amps = psi0.amplitudes
    qpsi = quantity.operator.apply(amps)
    lam = complex(np.vdot(amps, qpsi))
    residual = float(np.linalg.norm(qpsi - lam * amps))
    details["eigenstate_residual"] = residual

    if comm_h.passed and comm_v.passed:
        if residual < EIGENSTATE_RESIDUAL_TOL:
            return "exact", details
        return "martingale", details
    return "lindblad-governed", details


@dataclass
class QuantityAudit:
    """Audit result for one conserved quantity over the audited trajectories.

    Drift, marginals and branch check are those of the trajectory with the
    largest ``drift_max``; ``passed`` is False if any trajectory fails.
    """

    name: str
    kind: str
    classification: str
    tolerance: float
    initial: complex
    drift_max: float
    drift_final: float
    passed: bool | None
    details: dict = field(default_factory=dict)
    marginals: dict = field(default_factory=dict)
    branch_check: dict | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "classification": self.classification,
            "tolerance": self.tolerance,
            "initial": _jsonify(self.initial),
            "drift_max": self.drift_max,
            "drift_final": self.drift_final,
            "passed": self.passed,
            "details": {k: _jsonify(v) for k, v in self.details.items()},
            "marginals": {k: _jsonify(v) for k, v in self.marginals.items()},
            "branch_check": None if self.branch_check is None
            else {k: _jsonify(v) for k, v in self.branch_check.items()},
        }


@dataclass
class AuditReport:
    """Pass/fail record for all audited quantities, with tolerances."""

    quantities: list[QuantityAudit] = field(default_factory=list)
    seed: int | None = None
    ensemble: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        for q in self.quantities:
            if q.passed is False:
                return False
        for section in self.ensemble.values():
            if isinstance(section, dict) and section.get("passed") is False:
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "passed": self.passed,
            "seed": self.seed,
            "quantities": [q.to_dict() for q in self.quantities],
            "ensemble": {k: _jsonify(v) for k, v in self.ensemble.items()},
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def text_summary(self) -> str:
        lines = []
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"conservation audit: {verdict}")
        for q in self.quantities:
            status = {True: "pass", False: "FAIL", None: "info"}[q.passed]
            lines.append(
                f"  [{status}] {q.name} ({q.classification}): "
                f"max drift {q.drift_max:.3e}, tolerance {q.tolerance:.1e}"
            )
            if q.branch_check is not None:
                bc = q.branch_check
                bstat = "pass" if bc.get("passed") else "FAIL"
                lines.append(
                    f"         branch total: |deviation| {bc['deviation']:.3e} "
                    f"<= bound {bc['bound']:.3e} [{bstat}]"
                )
        for name, section in self.ensemble.items():
            if isinstance(section, dict) and "passed" in section:
                status = "pass" if section["passed"] else "FAIL"
                lines.append(f"  [{status}] ensemble: {name}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _jsonify(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return {"re": value.real.tolist(), "im": value.imag.tolist()}
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _refuse_if_uncertifiable(scenario: "RealizedScenario"):
    config = scenario.config
    if config is not None and config.has_external_potential:
        raise AuditRefusal(
            "configuration contains external_potential terms; conserved "
            "quantities are only certifiable for pure interaction dynamics"
        )


def _drift_series(record: "TrajectoryRecord", quantity: ConservedQuantity):
    try:
        series = record.observables[quantity.name]
    except KeyError:
        raise DimensionError(
            f"trajectory record has no observable series {quantity.name!r}; "
            "declare the audit before running"
        ) from None
    return series


def _audit_quantity(quantity, classified, block, records, scenario):
    """Audit ``quantity`` on its stacked ``(n, n_records)`` series ``block``.

    Exactness is asserted for commuting quantities started in an
    eigenspace, and the branch total of every collapsed trajectory with a
    quadratic-variation track is checked; martingale and lindblad-governed
    quantities are asserted at ensemble level by :func:`audit_run`.
    Returns the entry describing the trajectory with the largest drift and
    the per-trajectory pass mask.
    """
    classification, details = classified
    details = dict(details)
    if quantity.is_unitary:
        tol = EXACT_TOL_UNITARY
        mod_drift = np.max(np.abs(np.abs(block) - np.abs(block[:, :1])), axis=1)
        args = np.unwrap(np.angle(block), axis=1)
        arg_drift = np.max(np.abs(args - args[:, :1]), axis=1)
        drift = np.maximum(mod_drift, arg_drift)
        drift_final = np.abs(args[:, -1] - args[:, 0])
    else:
        tol = EXACT_TOL_HERMITIAN
        deviation = np.abs(block - block[:, :1])
        drift = deviation.max(axis=1)
        drift_final = deviation[:, -1]
    ok = drift <= tol if classification == "exact" else np.ones(len(block), bool)

    worst = int(np.argmax(drift))
    if quantity.is_unitary:
        details["modulus_drift_max"] = float(mod_drift[worst])
        details["arg_drift_max"] = float(arg_drift[worst])
    branch_check = None
    collapsed = np.array([
        rec.collapsed_branch is not None and quantity.name in rec.qv_series
        for rec in records
    ])
    if collapsed.any() and not quantity.is_unitary and scenario.collapse_op is not None:
        rows = np.flatnonzero(collapsed)
        totals = _branch_totals(quantity, block, records, rows,
                                scenario.hamiltonian, scenario.collapse_op)
        ok[rows] &= totals["passed"]
        if collapsed[worst]:
            k = int(np.searchsorted(rows, worst))
            branch_check = {
                "branch": records[worst].collapsed_branch,
                "time": float(totals["time"][k]),
                "value": _jsonify(complex(totals["value"][k])),
                "deviation": float(totals["deviation"][k]),
                "drift_rate_bound": totals["drift_rate_bound"],
                "quadratic_variation": float(totals["quadratic_variation"][k]),
                "bound": float(totals["bound"][k]),
                "passed": bool(totals["passed"][k]),
            }

    observables = records[worst].observables
    entry = QuantityAudit(
        name=quantity.name,
        kind=quantity.kind,
        classification=classification,
        tolerance=tol,
        initial=complex(block[worst, 0]),
        drift_max=float(drift[worst]),
        drift_final=float(drift_final[worst]),
        passed=False if not ok.all() else (True if classification == "exact" else None),
        details=details,
        marginals={name: observables[name] for name in observables
                   if name.startswith(quantity.name + ".")},
        branch_check=branch_check,
    )
    return entry, ok


def _branch_totals(quantity, block, records, rows, hamiltonian, vhat) -> dict:
    """Compare the post-collapse branch totals of ``rows`` against their
    initial totals.

    The bound combines the master-equation drift rate (exact bound on the
    mean) with five sigma of the realized quadratic variation of the
    tracked expectation (martingale spread), plus a rounding floor.  Each
    field is an array indexed like ``rows``, except the drift rate, which
    is computed once.
    """
    plan = records[0].plan
    steps = np.array([records[i].collapse_step for i in rows])
    idx = np.minimum(np.ceil(steps / plan.record_every).astype(int), block.shape[1] - 1)
    elapsed = records[0].times[idx]
    rate = lindblad_drift_rate_bound(hamiltonian, vhat) \
        if hamiltonian is not None else 0.0
    qv = np.array([records[i].qv_series[quantity.name][k] for i, k in zip(rows, idx)])
    bound = rate * elapsed + 5.0 * np.sqrt(np.maximum(qv, 0.0)) + 1e-9
    value = block[rows, idx]
    deviation = np.abs(value - block[rows, 0])
    return {
        "time": elapsed,
        "value": value,
        "deviation": deviation,
        "drift_rate_bound": rate,
        "quadratic_variation": qv,
        "bound": bound,
        "passed": deviation <= bound,
    }


def family_threshold(n_sigma: float, m: int) -> float:
    """Bonferroni threshold z_m = Phi^-1(1 - Phi(-n_sigma) / m).

    Testing m checkpoints at z_m each keeps the chance that any of them
    trips on a correct run at most that of one n_sigma test.
    """
    return float(-ndtri(ndtr(-n_sigma) / m))


def audit_run(
    records: list["TrajectoryRecord"],
    quantities: list[ConservedQuantity],
    scenario: "RealizedScenario",
) -> AuditReport:
    """Audit a set of trajectories, one stored trajectory being a set of one.

    Each quantity's series of all records are stacked into one
    ``(n, n_records)`` block, and every check runs on blocks.  The report
    holds one :class:`QuantityAudit` per quantity, describing the
    trajectory with the largest drift and failing if any trajectory fails;
    the ``per_trajectory`` section lists every failing (seed, quantity).

    With two or more trajectories, martingale quantities and commuting
    branch weights must keep their ensemble mean within z standard errors
    of the initial value at every checkpoint; lindblad-governed Hermitian
    quantities must track the density-matrix oracle within z standard
    errors when the dimension is at most :data:`ORACLE_MAX_DIM`.  z is
    :func:`family_threshold` of :data:`N_SIGMA` over the m = n_records - 1
    checkpoints after t = 0, so the whole series has the false-alarm rate
    of a single ``N_SIGMA`` test.
    """
    if not records:
        raise DimensionError("audit_run needs at least one trajectory record")
    _refuse_if_uncertifiable(scenario)

    n = len(records)
    report = AuditReport(seed=records[0].seed)
    report.notes.append(f"audited {n} trajectories")
    classified, blocks = {}, {}
    ok = np.ones((n, len(quantities)), bool)
    for j, q in enumerate(quantities):
        classified[q.name] = classify_quantity(
            q, scenario.hamiltonian, scenario.collapse_op, scenario.psi0
        )
        blocks[q.name] = np.array([_drift_series(rec, q) for rec in records])
        entry, ok[:, j] = _audit_quantity(q, classified[q.name], blocks[q.name],
                                          records, scenario)
        report.quantities.append(entry)

    failed = [(records[i].seed, quantities[j].name) for i, j in np.argwhere(~ok)]
    report.ensemble["per_trajectory"] = {
        "n_trajectories": n,
        "failures": [{"seed": s, "quantity": name} for s, name in failed],
        "passed": not failed,
    }

    if n >= 2:
        m = len(records[0].times) - 1
        z = family_threshold(N_SIGMA, m)
        for q in quantities:
            if q.is_unitary:
                continue
            classification, _ = classified[q.name]
            series = blocks[q.name]
            mean = series.real.mean(axis=0)
            se = series.real.std(axis=0, ddof=1) / np.sqrt(n)
            if classification == "martingale":
                dev = np.abs(mean - mean[0])
                report.ensemble[f"martingale:{q.name}"] = _within(dev, se, z, m)
            elif classification == "lindblad-governed":
                dim = scenario.space.total_dim
                if dim > ORACLE_MAX_DIM:
                    report.notes.append(
                        f"{q.name}: oracle comparison skipped (dim {dim} > "
                        f"{ORACLE_MAX_DIM}); per-trajectory bounds only"
                    )
                    continue
                from .integrator import lindblad_oracle

                plan = records[0].plan
                rho0 = np.outer(
                    scenario.psi0.amplitudes, scenario.psi0.amplitudes.conj()
                )
                rhos = lindblad_oracle(
                    scenario.hamiltonian, scenario.collapse_op, rho0,
                    plan.dt, plan.n_steps,
                )
                checkpoints = np.arange(0, plan.n_steps + 1, plan.record_every)
                qdense = q.operator.to_dense()
                oracle_vals = np.array(
                    [float(np.real(np.trace(qdense @ rhos[k]))) for k in checkpoints]
                )
                dev = np.abs(mean - oracle_vals)
                report.ensemble[f"oracle:{q.name}"] = _within(dev, se, z, m)

        # branch weights are martingales whenever they commute with the dynamics
        if scenario.branches and records[0].branch_weights:
            for br in scenario.branches:
                w = np.array([rec.branch_weights[br.label] for rec in records])
                mean = w.mean(axis=0)
                se = w.std(axis=0, ddof=1) / np.sqrt(n)
                proj = np.zeros(scenario.space.total_dim)
                proj[br.indices] = 1.0
                proj_op = _diagonal_csr(proj)
                commuting = all(
                    commutator_certificate(op, proj_op).passed
                    for op in (scenario.hamiltonian, scenario.collapse_op)
                    if op is not None
                )
                if not commuting:
                    continue
                dev = np.abs(mean - mean[0])
                report.ensemble[f"branch_martingale:{br.label}"] = {
                    "initial_weight": float(mean[0]), **_within(dev, se, z, m)
                }

    return report


def _within(dev: np.ndarray, se: np.ndarray, z: float, m: int) -> dict:
    """Section of an ensemble test: every deviation within z standard errors."""
    allowed = z * se + 1e-12
    return {
        "max_deviation": float(dev.max()),
        "max_allowed": float(allowed.max()),
        "z": z,
        "checkpoints": m,
        "passed": bool(np.all(dev <= allowed)),
    }
