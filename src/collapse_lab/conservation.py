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
from .operators import AssembledOperator, _max_abs, _prep_matrix, embed_operator

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
    "audit_trajectory",
    "audit_run",
]

COMMUTE_TOL = 1e-12
EXACT_TOL_HERMITIAN = 1e-10
EXACT_TOL_UNITARY = 1e-9
EIGENSTATE_RESIDUAL_TOL = 1e-8


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
    dims = space.dims
    n = space.total_dim
    multi = list(np.unravel_index(np.arange(n), dims))
    for i, sub in enumerate(space.subsystems):
        if sub.label in labels:
            multi[i] = (multi[i] + 1) % sub.dim
    rows = np.ravel_multi_index(tuple(multi), dims)
    data = np.ones(n, dtype=np.complex128)
    return sp.csr_array(sp.coo_array((data, (rows, np.arange(n))), shape=(n, n)))


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
    """Max-norm of AB - BA with a pass/fail verdict at ``tolerance``."""
    am, bm = _prep_matrix(a), _prep_matrix(b)
    comm = am @ bm - bm @ am
    value = _max_abs(comm)
    return CommutatorCertificate(value, tolerance, value <= tolerance)


def _spectral_bound(m) -> float:
    """Upper bound on the spectral norm via sqrt(norm_1 * norm_inf)."""
    if sp.issparse(m):
        absm = abs(m)
        col = absm.sum(axis=0)
        row = absm.sum(axis=1)
        n1 = float(np.max(col)) if np.size(col) else 0.0
        ninf = float(np.max(row)) if np.size(row) else 0.0
    else:
        arr = np.abs(np.asarray(m))
        n1 = float(arr.sum(axis=0).max())
        ninf = float(arr.sum(axis=1).max())
    return float(np.sqrt(n1 * ninf))


def lindblad_drift_rate_bound(hamiltonian, vhat) -> float:
    """Bound on |d<H>/dt| under the master equation.

    The master-equation drift of a quantity Q is -(1/2) <[V, [V, Q]]>, so
    half the spectral norm of the nested commutator bounds the rate.
    """
    h = _prep_matrix(hamiltonian)
    v = _prep_matrix(vhat)
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
    """Audit result for one conserved quantity along one trajectory."""

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
    collapsed_branch: str | None = None
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
            "collapsed_branch": self.collapsed_branch,
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
        if self.collapsed_branch is not None:
            lines.append(f"  collapse flag: branch {self.collapsed_branch!r}")
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


def audit_trajectory(
    record: "TrajectoryRecord",
    quantities: list[ConservedQuantity],
    scenario: "RealizedScenario",
) -> AuditReport:
    """Audit one trajectory record against the declared quantities.

    Refuses configurations containing external potentials.  Exactness is
    asserted for commuting quantities started in an eigenspace; martingale
    and lindblad-governed quantities record their drifts here and are
    asserted at ensemble level by :func:`audit_run`.
    """
    _refuse_if_uncertifiable(scenario)
    return _audit_trajectory(record, quantities, scenario,
                             _classify_all(quantities, scenario))


def _classify_all(quantities, scenario) -> dict[str, tuple[str, dict]]:
    """Classification per quantity name; it does not vary by trajectory."""
    return {
        q.name: classify_quantity(
            q, scenario.hamiltonian, scenario.collapse_op, scenario.psi0
        )
        for q in quantities
    }


def _audit_trajectory(record, quantities, scenario, classified) -> AuditReport:
    h = scenario.hamiltonian
    v = scenario.collapse_op
    report = AuditReport(seed=record.seed, collapsed_branch=record.collapsed_branch)

    for q in quantities:
        series = _drift_series(record, q)
        classification, details = classified[q.name]
        details = dict(details)
        if q.is_unitary:
            tol = EXACT_TOL_UNITARY
            mod_drift = np.max(np.abs(np.abs(series) - np.abs(series[0])))
            args = np.unwrap(np.angle(series))
            arg_drift = np.max(np.abs(args - args[0]))
            drift_max = float(max(mod_drift, arg_drift))
            drift_final = float(abs(args[-1] - args[0]))
            details["modulus_drift_max"] = float(mod_drift)
            details["arg_drift_max"] = float(arg_drift)
        else:
            tol = EXACT_TOL_HERMITIAN
            drift = np.abs(series - series[0])
            drift_max = float(np.max(drift))
            drift_final = float(drift[-1])
        passed: bool | None = None
        if classification == "exact":
            passed = drift_max <= tol

        marginals = {
            name: record.observables[name]
            for name in record.observables
            if name.startswith(q.name + ".")
        }

        qa = QuantityAudit(
            name=q.name,
            kind=q.kind,
            classification=classification,
            tolerance=tol,
            initial=complex(series[0]),
            drift_max=drift_max,
            drift_final=drift_final,
            passed=passed,
            details=details,
            marginals=marginals,
        )

        if (
            record.collapsed_branch is not None
            and not q.is_unitary
            and v is not None
            and q.name in record.qv_series
        ):
            qa.branch_check = _branch_total_check(record, q, series, h, v)
            if qa.branch_check["passed"] is False:
                qa.passed = False
        report.quantities.append(qa)

    return report


def _branch_total_check(record, quantity, series, hamiltonian, vhat) -> dict:
    """Compare the post-collapse branch total against the initial total.

    The bound combines the master-equation drift rate (exact bound on the
    mean) with five sigma of the realized quadratic variation of the
    tracked expectation (martingale spread), plus a rounding floor.
    """
    plan = record.plan
    idx = int(np.ceil(record.collapse_step / plan.record_every))
    idx = min(idx, len(series) - 1)
    elapsed = record.times[idx]
    rate = lindblad_drift_rate_bound(hamiltonian, vhat) \
        if hamiltonian is not None else 0.0
    qv = float(record.qv_series[quantity.name][idx])
    bound = rate * elapsed + 5.0 * np.sqrt(max(qv, 0.0)) + 1e-9
    deviation = float(abs(series[idx] - series[0]))
    return {
        "branch": record.collapsed_branch,
        "time": float(elapsed),
        "value": _jsonify(complex(series[idx])),
        "deviation": deviation,
        "drift_rate_bound": rate,
        "quadratic_variation": qv,
        "bound": float(bound),
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
    *,
    oracle_max_dim: int = 16,
    n_sigma: float = 3.0,
) -> AuditReport:
    """Audit a set of trajectories: per-trajectory checks plus ensemble tests.

    Martingale quantities and commuting branch weights must keep their
    ensemble mean within z standard errors of the initial value at every
    checkpoint; lindblad-governed Hermitian quantities must track the
    density-matrix oracle within z standard errors when the dimension
    permits running it.  z is :func:`family_threshold` of ``n_sigma`` over
    the m = n_records - 1 checkpoints after t = 0, so the whole series has
    the false-alarm rate of a single ``n_sigma`` test.
    """
    if not records:
        raise DimensionError("audit_run needs at least one trajectory record")
    _refuse_if_uncertifiable(scenario)

    classified = _classify_all(quantities, scenario)
    per_traj = [_audit_trajectory(rec, quantities, scenario, classified)
                for rec in records]
    report = AuditReport(seed=records[0].seed)
    report.quantities = per_traj[0].quantities if len(per_traj) == 1 else []
    report.notes.append(f"audited {len(records)} trajectories")

    failed = [
        (rep.seed, q.name)
        for rep in per_traj
        for q in rep.quantities
        if q.passed is False
    ]
    report.ensemble["per_trajectory"] = {
        "n_trajectories": len(records),
        "failures": [{"seed": s, "quantity": n} for s, n in failed],
        "passed": not failed,
    }

    n = len(records)
    if n >= 2:
        m = len(records[0].times) - 1
        z = family_threshold(n_sigma, m)
        for q in quantities:
            classification, _ = classified[q.name]
            series = np.array([_drift_series(rec, q) for rec in records])
            if q.is_unitary:
                continue
            mean = series.real.mean(axis=0)
            se = series.real.std(axis=0, ddof=1) / np.sqrt(n)
            if classification == "martingale":
                dev = np.abs(mean - mean[0])
                report.ensemble[f"martingale:{q.name}"] = _within(dev, se, z, m)
            elif classification == "lindblad-governed":
                dim = scenario.space.total_dim
                if dim > oracle_max_dim:
                    report.notes.append(
                        f"{q.name}: oracle comparison skipped (dim {dim} > "
                        f"{oracle_max_dim}); per-trajectory bounds only"
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
                proj_op = sp.diags_array([proj.astype(complex)], offsets=[0], format="csr")
                commuting = True
                if scenario.hamiltonian is not None:
                    commuting &= commutator_certificate(
                        scenario.hamiltonian.matrix, proj_op
                    ).passed
                if scenario.collapse_op is not None:
                    commuting &= commutator_certificate(
                        scenario.collapse_op.matrix, proj_op
                    ).passed
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
