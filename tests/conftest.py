import numpy as np
import pytest
import scipy.sparse as sp

import collapse_lab as cl
from collapse_lab.integrator import RealizedScenario
from collapse_lab.operators import AssembledOperator

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) * trace norm of (a - b) for Hermitian matrices."""
    diff = np.asarray(a) - np.asarray(b)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def make_realized(space, hamiltonian, vhat, psi0, plan, observables=(), branches=(),
                  bipartitions=(), qv_tracks=()):
    """Directly wire operators into a runnable scenario (no config layer)."""
    h_op = None
    if hamiltonian is not None:
        h_op = AssembledOperator(space, sp.csr_array(np.asarray(hamiltonian, complex)),
                                 hermitian=True)
    v_op = None
    if vhat is not None:
        v_op = AssembledOperator(space, sp.csr_array(np.asarray(vhat, complex)),
                                 hermitian=True)
    psi = cl.renormalize(np.asarray(psi0, complex), space)
    return RealizedScenario(
        space=space,
        hamiltonian=h_op,
        collapse_op=v_op,
        psi0=psi,
        plan=plan,
        observables=tuple(observables),
        branches=tuple(branches),
        bipartitions=tuple(bipartitions),
        qv_tracks=tuple(qv_tracks),
    )


@pytest.fixture
def qubit_space():
    return cl.CompositeSpace([cl.discrete("q", 2)])


@pytest.fixture
def two_qubit_space():
    return cl.CompositeSpace([cl.discrete("a", 2), cl.discrete("b", 2)])
