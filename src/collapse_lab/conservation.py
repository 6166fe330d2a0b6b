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

from .errors import AuditRefusal, DimensionError, OperatorError
from .hilbert import CompositeSpace, StateVector
from .operators import (AssembledOperator, _collapse_diagonal, _csr, _diagonal_csr,
                        _diagonal_of, _max_abs, _rows)

if TYPE_CHECKING:
    from .integrator import RealizedScenario, TrajectoryRecord

__all__ = [
    "ConservedQuantity",
    "CommutatorCertificate",
    "QuantityAudit",
    "AuditReport",
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

    def __post_init__(self):
        if not (self.operator.hermitian or self.operator.unitary):
            raise OperatorError(
                f"quantity {self.name!r} must be Hermitian or a flagged "
                "unitary symmetry generator"
            )

    @property
    def is_unitary(self) -> bool:
        return self.operator.unitary


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

    ``a`` and ``b`` are operators or arrays, dense or sparse.  An operator
    commutes with itself.  A diagonal side is read as its vector, and the
    commutator taken on the other side's pattern: the CSR products' bits
    for a real diagonal, their value to rounding for a complex one (numpy
    may fuse a complex product).  Only two non-diagonal sides form them."""
    if a is b:
        return CommutatorCertificate(0.0, tolerance, True)
    am, bm, diag = _csr(a), _csr(b), _diagonal_of(b)
    if diag is None and (da := _diagonal_of(a)) is not None:  # |[A, B]| = |[B, A]|
        am, bm, diag = bm, am, da
    value = _max_abs(am @ bm - bm @ am) if diag is None \
        else float(np.abs(_commutator_with_diagonal(am, diag)).max(initial=0.0))
    return CommutatorCertificate(value, tolerance, value <= tolerance)


def _commutator_with_diagonal(m: sp.csr_array, v: np.ndarray, data=None) -> np.ndarray:
    """The stored entries of [M, diag(v)] on the pattern of M, with
    ``data`` in place of M's own entries when given: M_xy v_y - v_x M_xy,
    the two products a CSR commutator forms, with no matrix product."""
    data = m.data if data is None else data
    return data * v[m.indices] - v[_rows(m)] * data


def _spectral_bound(m: sp.csr_array, data: np.ndarray) -> float:
    """Upper bound sqrt(norm_1 * norm_inf) on the spectral norm of the
    matrix with the entries ``data`` on the pattern of ``m``."""
    absm, n = np.abs(data), m.shape[0]
    n1 = np.bincount(m.indices, absm, minlength=n).max(initial=0.0)
    ninf = np.bincount(_rows(m), absm, minlength=n).max(initial=0.0)
    return float(np.sqrt(n1 * ninf))


def lindblad_drift_rate_bound(hamiltonian, vhat) -> float:
    """Bound on |d<H>/dt| under the master equation.

    The master-equation drift of a quantity Q is -(1/2) <[V, [V, Q]]>.  For
    V = diag(v) the double commutator is Gamma o Q with Gamma_xy =
    (v_x - v_y)^2, held on the pattern of Q, so half the spectral bound of
    Gamma o H bounds the rate.  A non-diagonal V is refused (OperatorError).
    """
    h, v = _csr(hamiltonian), _collapse_diagonal(vhat)
    return 0.5 * _spectral_bound(
        h, _commutator_with_diagonal(h, v, _commutator_with_diagonal(h, v)))


def classify_quantity(quantity: ConservedQuantity, hamiltonian, vhat,
                      psi0: StateVector) -> tuple[str, dict]:
    """Structural classification plus the measured certificates.  The
    collapse operator must be diagonal (OperatorError otherwise)."""
    q = quantity.operator
    if vhat is not None:
        _collapse_diagonal(vhat)  # OperatorError unless diagonal
    comm_h = 0.0 if hamiltonian is None else commutator_certificate(q, hamiltonian).value
    comm_v = 0.0 if vhat is None else commutator_certificate(q, vhat).value
    details = {"commutator_with_hamiltonian": comm_h, "commutator_with_collapse": comm_v}

    amps = psi0.amplitudes
    qpsi = q.apply(amps)
    lam = complex(np.vdot(amps, qpsi))
    residual = float(np.linalg.norm(qpsi - lam * amps))
    details["eigenstate_residual"] = residual

    if comm_h <= COMMUTE_TOL and comm_v <= COMMUTE_TOL:
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
        return _jsonify(vars(self))


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
        return {**_jsonify(vars(self)), "schema_version": 1, "passed": self.passed,
                "quantities": [q.to_dict() for q in self.quantities]}

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
    """JSON form of a value; a complex number or array as {"re", "im"}."""
    if isinstance(value, complex):
        return {"re": float(value.real), "im": float(value.imag)}
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
    if scenario.collapse_op is not None:
        _collapse_diagonal(scenario.collapse_op)  # OperatorError unless diagonal


def _audit_quantity(quantity, classified, block, qv, marginals, collapse, times,
                    scenario):
    """Audit ``quantity`` on its ``(n, n_records)`` series ``block``.

    Exactness is asserted for commuting quantities started in an
    eigenspace; martingale and lindblad-governed quantities are asserted
    at ensemble level by :func:`audit_run`.  A Hermitian quantity with a
    quadratic-variation block ``qv`` (None if untracked) also has the
    branch total of each collapsed trajectory checked.  ``collapse`` holds
    per row the collapsed branch (None if none) and the index of the first
    record at or after the collapse.  The total there may move from its
    initial value by the master-equation drift rate times the elapsed
    ``times`` (exact bound on the mean), plus five sigma of the realized
    quadratic variation (martingale spread), plus a rounding floor.
    Returns the entry describing the trajectory with the largest drift,
    with that row of each ``marginals`` block, and the per-trajectory pass
    mask.
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
    labels, at = collapse
    rows = np.flatnonzero(labels != None)  # noqa: E711 -- elementwise
    if (rows.size and qv is not None and not quantity.is_unitary
            and scenario.collapse_op is not None):
        idx = at[rows]
        rate = lindblad_drift_rate_bound(scenario.hamiltonian, scenario.collapse_op) \
            if scenario.hamiltonian is not None else 0.0
        qvs = qv[rows, idx]
        bound = rate * times[idx] + 5.0 * np.sqrt(np.maximum(qvs, 0.0)) + 1e-9
        value = block[rows, idx]
        dev = np.abs(value - block[rows, 0])
        ok[rows] &= dev <= bound
        if labels[worst] is not None:
            k = int(np.searchsorted(rows, worst))
            branch_check = {
                "branch": labels[worst],
                "time": float(times[idx[k]]),
                "value": _jsonify(complex(value[k])),
                "deviation": float(dev[k]),
                "drift_rate_bound": rate,
                "quadratic_variation": float(qvs[k]),
                "bound": float(bound[k]),
                "passed": bool(dev[k] <= bound[k]),
            }

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
        marginals={name: series[worst] for name, series in marginals.items()},
        branch_check=branch_check,
    )
    return entry, ok


def family_threshold(n_sigma: float, m: int) -> float:
    """Bonferroni threshold z_m = Phi^-1(1 - Phi(-n_sigma) / m).

    Testing m checkpoints at z_m each keeps the chance that any of them
    trips on a correct run at most that of one n_sigma test.
    """
    from scipy.special import ndtr, ndtri  # loads at the first audit only

    return float(-ndtri(ndtr(-n_sigma) / m))


def audit_run(
    records: list["TrajectoryRecord"],
    quantities: list[ConservedQuantity],
    scenario: "RealizedScenario",
) -> AuditReport:
    """Audit a set of trajectories, one stored trajectory being a set of one.

    Each record is judged against ``scenario.plan``: one whose columns are
    not the first record's, or whose ``t`` column is not the plan's
    ``record_times`` bit for bit, is refused (DimensionError naming its
    seed).  The tables are stacked into one ``(n, n_columns, n_records)``
    table, decoded once by the column roles, and every check reads its
    ``(n, n_records)`` block of that decode.  The report holds
    one :class:`QuantityAudit` per quantity, describing the trajectory
    with the largest drift and failing if any trajectory fails; the
    ``per_trajectory`` section lists every failing (seed, quantity).

    With two or more trajectories, martingale quantities and commuting
    branch weights must keep their ensemble mean within z standard errors
    of the initial value at every checkpoint; lindblad-governed Hermitian
    quantities must track the density-matrix oracle, solved once per audit,
    within z standard errors when the dimension is at most
    :data:`ORACLE_MAX_DIM`.  z is :func:`family_threshold` of
    :data:`N_SIGMA` over the m = n_records - 1 checkpoints after t = 0, so
    the whole series has the false-alarm rate of a single ``N_SIGMA`` test.
    """
    if not records:
        raise DimensionError("audit_run needs at least one trajectory record")
    _refuse_if_uncertifiable(scenario)
    plan, columns = scenario.plan, tuple(records[0].columns)
    times = plan.record_times
    t_bits = times.tobytes()
    for rec in records:
        t = rec.times
        if tuple(rec.columns) != columns:
            raise DimensionError(f"trajectory seed {rec.seed} has a table of columns "
                                 f"{list(rec.columns)}, seed {records[0].seed} one of "
                                 f"{list(columns)}; one audit needs one layout")
        if t.tobytes() != t_bits:
            raise DimensionError(
                f"trajectory seed {rec.seed} has a t column of {t.size} records from "
                f"{float(t[0])!r} to {float(t[-1])!r}, not the scenario plan's "
                f"{plan.n_records} record times from 0.0 to {float(times[-1])!r}")
    from .integrator import _column_roles, lindblad_oracle

    roles = _column_roles(columns)
    recorded = {name for name, _, _ in roles.observables}
    for q in quantities:
        if q.name not in recorded:
            raise DimensionError(
                f"trajectory record has no observable series {q.name!r}; "
                "declare the audit before running"
            )
    table = np.stack([rec.table for rec in records])
    observables, weights, _, qvs = roles.series(table)
    labels = np.array([rec.collapsed_branch for rec in records], dtype=object)
    steps = np.array([rec.collapse_step or 0 for rec in records])
    at = np.minimum(np.ceil(steps / plan.record_every).astype(int), plan.n_records - 1)

    n = len(records)
    report = AuditReport(seed=records[0].seed)
    report.notes.append(f"audited {n} trajectories")
    classified = {}
    ok = np.ones((n, len(quantities)), bool)
    for j, q in enumerate(quantities):
        classified[q.name] = classify_quantity(
            q, scenario.hamiltonian, scenario.collapse_op, scenario.psi0
        )
        marginals = {name: series for name, series in observables.items()
                     if name.startswith(q.name + ".")}
        entry, ok[:, j] = _audit_quantity(
            q, classified[q.name], observables[q.name], qvs.get(q.name), marginals,
            (labels, at), times, scenario,
        )
        report.quantities.append(entry)

    failed = [(records[i].seed, quantities[j].name) for i, j in np.argwhere(~ok)]
    report.ensemble["per_trajectory"] = {
        "n_trajectories": n,
        "failures": [{"seed": s, "quantity": name} for s, name in failed],
        "passed": not failed,
    }

    if n >= 2:
        m = plan.n_records - 1
        z = family_threshold(N_SIGMA, m)
        h, dim = scenario.hamiltonian, scenario.space.total_dim
        rhos = None  # the oracle's states at the checkpoints, solved on first use
        for q in quantities:
            if q.is_unitary:
                continue
            classification, _ = classified[q.name]
            series = observables[q.name]
            mean = series.real.mean(axis=0)
            se = series.real.std(axis=0, ddof=1) / np.sqrt(n)
            if classification == "martingale":
                dev = np.abs(mean - mean[0])
                report.ensemble[f"martingale:{q.name}"] = _within(dev, se, z, m)
            elif classification == "lindblad-governed":
                if dim > ORACLE_MAX_DIM:
                    report.notes.append(
                        f"{q.name}: oracle comparison skipped (dim {dim} > "
                        f"{ORACLE_MAX_DIM}); per-trajectory bounds only"
                    )
                    continue
                if rhos is None:
                    amps = scenario.psi0.amplitudes
                    rhos = lindblad_oracle(h, scenario.collapse_op,
                                           np.outer(amps, amps.conj()), plan)
                # tr(Q rho) = sum over Q's stored entries of Q_xy rho_yx
                qm = q.operator.matrix
                oracle_vals = (rhos[:, qm.indices, _rows(qm)] @ qm.data).real
                dev = np.abs(mean - oracle_vals)
                report.ensemble[f"oracle:{q.name}"] = _within(dev, se, z, m)

        # branch weights are martingales whenever they commute with the dynamics;
        # [P, V] = 0 for the diagonal projector P and the diagonal V
        if scenario.branches and weights:
            for br in scenario.branches:
                proj = _diagonal_csr(np.isin(np.arange(dim), br.indices))
                if h is not None and not commutator_certificate(h, proj).passed:
                    continue
                w = weights[br.label]
                mean = w.mean(axis=0)
                se = w.std(axis=0, ddof=1) / np.sqrt(n)
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
