"""Output checks of the collapse-lab benchmark.

Each check compares a program output with a quantity the benchmark
computes itself (from the config, or with its own SVD or lattice shift),
or with a property the method must have.  None compares against a stored
copy of earlier output.  Every check returns a list of failure messages;
an empty list means it passed.

Statistical checks are in standard errors.  Their z values are sized so
that a correct program trips one with probability below 1e-4 per round:
``BORN_Z`` takes 7.3e-5 (exact binomial tail for 2000 trajectories),
``MARTINGALE_Z`` at most 1.9e-6 (Bonferroni over 50 records of a
two-sided normal tail at 5.5).  The README gives the derivations.
"""

from __future__ import annotations

import numpy as np

U = np.finfo(float).eps / 2  # unit roundoff of float64

BORN_Z = 4.0
MARTINGALE_Z = 5.5
SHIFT_TOL = 1e-9  # the audit's own tolerance for unitary generators


def rounding_bound(dim: int) -> float:
    """Bound on |sum_i |psi_i|^2 - 1| for a state normalized by the program.

    The norm of a length-``dim`` complex vector is a dot product of 2*dim
    reals (relative error <= 2*dim*u) plus a square root; dividing by it
    rounds each component twice (numpy multiplies by a rounded 1/n), and
    squaring and summing again costs another 2*dim*u.  Doubling the sum
    leaves room for the branch split of the weights.
    """
    return 2.0 * (4 * dim + 4) * U


def born_frequency(n_up: int, n_traj: int, p_up: float, z: float = BORN_Z) -> list[str]:
    """The ``up`` outcome frequency matches p_up within z binomial errors."""
    se = np.sqrt(p_up * (1.0 - p_up) / n_traj)
    freq = n_up / n_traj
    if abs(freq - p_up) > z * se:
        return [f"up frequency {freq:.4f} is {abs(freq - p_up) / se:.2f} standard "
                f"errors from the Born weight {p_up:.4f} (limit {z})"]
    return []


def martingale_mean(
    mean: np.ndarray, stderr: np.ndarray, initial: float, n_traj: int,
    z: float = MARTINGALE_Z,
) -> list[str]:
    """The ensemble mean stays within z standard errors of ``initial``.

    The floor n_traj*u covers rounding of the n_traj-term sum at records
    where every trajectory holds the same value (stderr 0).
    """
    dev = np.abs(np.asarray(mean) - initial)
    allowed = z * np.asarray(stderr) + n_traj * U * (1.0 + abs(initial))
    bad = np.nonzero(dev > allowed)[0]
    if bad.size:
        k = int(bad[0])
        return [f"ensemble mean {mean[k]:.6f} at record {k} deviates from "
                f"{initial:.6f} by {dev[k]:.3e} > {allowed[k]:.3e}"]
    return []


def weights_partition(weights: np.ndarray, dim: int) -> list[str]:
    """Branch weights, shape (n_branches, n_traj, n_records), sum to 1."""
    dev = float(np.max(np.abs(np.sum(weights, axis=0) - 1.0)))
    if dev > rounding_bound(dim):
        return [f"branch weights miss 1 by {dev:.3e} > {rounding_bound(dim):.3e}"]
    return []


def unit_norms(states: np.ndarray) -> list[str]:
    """Every final state, shape (n, dim), has norm 1 within rounding."""
    states = np.atleast_2d(states)
    norms = np.sqrt(np.sum(states.real**2 + states.imag**2, axis=1))
    dev = float(np.max(np.abs(norms - 1.0)))
    bound = rounding_bound(states.shape[1])
    if dev > bound:
        return [f"final-state norm misses 1 by {dev:.3e} > {bound:.3e}"]
    return []


def bitwise_equal(a, b) -> bool:
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def series_round_trip(memory: dict[str, np.ndarray], reloaded: dict[str, np.ndarray],
                      seed: int) -> list[str]:
    """Series reloaded from CSV equal the in-memory series bit for bit."""
    if sorted(memory) != sorted(reloaded):
        return [f"seed {seed}: series names differ: {sorted(memory)} vs {sorted(reloaded)}"]
    return [f"seed {seed}: series {name!r} changed in the CSV round trip"
            for name in sorted(memory) if not bitwise_equal(memory[name], reloaded[name])]


def symmetric_zero(name: str, series: np.ndarray, target: float, bound: float) -> list[str]:
    """A series that the spin-flip x pointer-parity symmetry pins to ``target``."""
    dev = float(np.max(np.abs(np.asarray(series) - target)))
    if dev > bound:
        return [f"{name} leaves its symmetric value {target} by {dev:.3e} > {bound:.3e}"]
    return []


def symmetry_bound(n_steps: int, dim: int, scale: float) -> float:
    """Rounding allowance for a symmetry-pinned expectation.

    Each step rounds every amplitude with relative error at most dim*u
    (one length-dim dot product per matvec), and mirror-image rows are
    summed in opposite orders, so the two halves can drift apart by at
    most that much per step; the final evaluation adds one more dim*u.
    ``scale`` is the largest |eigenvalue| of the observable.
    """
    return (n_steps + 1) * dim * U * scale


def shift_series(series: np.ndarray, tol: float = SHIFT_TOL) -> list[str]:
    """|<T>| stays at 1 and arg<T> stays constant along the trajectory."""
    series = np.asarray(series)
    mod = float(np.max(np.abs(np.abs(series) - 1.0)))
    args = np.unwrap(np.angle(series))
    arg = float(np.max(np.abs(args - args[0])))
    out = []
    if mod > tol:
        out.append(f"|<T>| leaves 1 by {mod:.3e} > {tol:.1e}")
    if arg > tol:
        out.append(f"arg<T> drifts by {arg:.3e} > {tol:.1e}")
    return out


def shift_sector(psi: np.ndarray, dims: tuple[int, ...], lattice_axes: list[int],
                 sector: int, tol: float = SHIFT_TOL) -> list[str]:
    """psi is an eigenvector of the simultaneous one-site shift.

    The benchmark applies the shift itself with ``np.roll`` on every
    lattice axis; sector k has eigenvalue exp(-2 pi i k / d).
    """
    tensor = np.asarray(psi).reshape(dims)
    shifted = tensor
    for ax in lattice_axes:
        shifted = np.roll(shifted, 1, axis=ax)
    shifted = shifted.reshape(-1)
    d = dims[lattice_axes[0]]
    lam = np.exp(-2j * np.pi * sector / d)
    dev = float(np.linalg.norm(shifted - lam * np.asarray(psi)))
    if dev > tol:
        return [f"state leaves shift sector {sector}: |T psi - lambda psi| = {dev:.3e}"]
    return []


def schmidt_entropy(psi: np.ndarray, dims: tuple[int, ...], side_a: list[int]
                    ) -> tuple[float, float]:
    """Entropy across ``side_a`` from the benchmark's own SVD, and its error bound.

    Singular values from a backward-stable SVD are within dim_a*u of the
    exact ones (the matrix has unit Frobenius norm), so each weight w = s^2
    moves by at most 2*s*dim_a*u and -w log w by that times |1 + log w|.
    The bound covers the program's SVD and this one, plus the summation.
    """
    side_b = [i for i in range(len(dims)) if i not in side_a]
    da = int(np.prod([dims[i] for i in side_a]))
    db = int(np.prod([dims[i] for i in side_b]))
    m = np.transpose(np.asarray(psi).reshape(dims), side_a + side_b).reshape(da, db)
    s = np.linalg.svd(m, compute_uv=False)
    w = s**2
    nz = w > 0.0
    entropy = float(-np.sum(w[nz] * np.log(w[nz])))
    err = 2.0 * np.sum(2.0 * s[nz] * da * U * np.abs(1.0 + np.log(w[nz])))
    return entropy, float(err + len(s) * U * entropy)


def entropy_matches(name: str, recorded: float, own: float, bound: float) -> list[str]:
    if abs(recorded - own) > bound:
        return [f"{name}: recorded entropy {recorded!r} differs from the "
                f"benchmark's SVD {own!r} by {abs(recorded - own):.3e} > {bound:.3e}"]
    return []


def entropy_rises(series: np.ndarray, bound: float) -> list[str]:
    """Interaction entangles: the entropy climbs above its initial value."""
    series = np.asarray(series)
    if not np.max(series[1:]) > series[0] + bound:
        return [f"entropy never rises above its initial value {series[0]:.6f}"]
    return []


def audit_quantity(report, name: str, classification: str) -> list[str]:
    """The audit classifies ``name`` as expected and passes it."""
    for q in report.quantities:
        if q.name == name:
            out = []
            if q.classification != classification:
                out.append(f"audit classifies {name} as {q.classification}, "
                           f"expected {classification}")
            if q.passed is not True:
                out.append(f"audit does not pass {name} (drift {q.drift_max:.3e})")
            return out
    return [f"audit report has no quantity {name!r}"]


STATISTICAL_SECTIONS = ("martingale:", "branch_martingale:")


def audit_verdict(report, *, statistical_retested: bool = False) -> list[str]:
    """The audit passes.

    With ``statistical_retested`` the audit's own 3-sigma ensemble
    sections are not counted: the benchmark re-tests the same ensemble
    means at a bound sized for a 1e-4 false-alarm rate, while the audit's
    3-sigma test at every record trips on about 0.8% of correct runs.
    """
    out = []
    for section, body in report.ensemble.items():
        if not isinstance(body, dict) or body.get("passed") is not False:
            continue
        if statistical_retested and section.startswith(STATISTICAL_SECTIONS):
            continue
        out.append(f"audit section {section} fails")
    for q in report.quantities:
        if q.passed is False:
            out.append(f"audit fails {q.name}")
    return out
