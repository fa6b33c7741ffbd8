"""Shared state factories for the test suite."""

import numpy as np

from netcoh.linalg import ATOL_IDENTITY, DensityMatrix, tensor

SQRT_HALF = np.sqrt(0.5)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
KET_PLUS = np.array([1.0, 1.0]) * SQRT_HALF
KET_MINUS = np.array([1.0, -1.0]) * SQRT_HALF

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
HADAMARD = np.array([[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]], dtype=complex)


def matrices_equal(a: np.ndarray, b: np.ndarray, atol: float = ATOL_IDENTITY) -> bool:
    """Entrywise equality with an explicit absolute tolerance."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a - b)) <= atol)


def pure(vec, dims) -> DensityMatrix:
    return DensityMatrix.from_vector(np.asarray(vec, dtype=complex), dims)


def bell_state() -> DensityMatrix:
    return pure(np.array([1, 0, 0, 1]) * SQRT_HALF, (2, 2))


def two_control_mixture() -> DensityMatrix:
    """Even mixture of the two aligned superposition products (the task-2
    control state); diagonal in the X (x) X basis, off-diagonal in Z (x) Z."""
    p = np.kron(KET_PLUS, KET_PLUS)
    m = np.kron(KET_MINUS, KET_MINUS)
    return DensityMatrix(0.5 * (np.outer(p, p) + np.outer(m, m)), (2, 2))


def werner(p: float) -> DensityMatrix:
    bell = bell_state().matrix
    return DensityMatrix(p * bell + (1 - p) * np.eye(4) / 4, (2, 2))


def projector(vec) -> np.ndarray:
    v = np.asarray(vec, dtype=complex)
    return np.outer(v, v.conj())


def cc_state(prob: np.ndarray, basis_a: np.ndarray, basis_b: np.ndarray) -> DensityMatrix:
    """sum_ij p_ij |a_i><a_i| (x) |b_j><b_j| built from explicit local bases."""
    d_a, d_b = prob.shape
    mat = sum(
        prob[i, j] * tensor(projector(basis_a[:, i]), projector(basis_b[:, j]))
        for i in range(d_a)
        for j in range(d_b)
    )
    return DensityMatrix(mat, (d_a, d_b))
