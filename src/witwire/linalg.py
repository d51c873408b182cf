"""Dense complex matrix helpers.

Matrices are plain ``numpy.ndarray`` of dtype complex; arithmetic is the
native operators (``+``, ``-``, ``*``, ``@``, ``np.kron``, ``np.trace``,
``.T``, ``.conj()``).  This module adds the pieces that carry contracts:
Hermitian eigendecomposition that refuses non-Hermitian input instead of
symmetrizing silently, and inversion guarded by a condition estimate.

Everything here is sized for small dense problems; MAX_DIM caps the
operator dimension at 256 (three copies of a two-qubit system need 64,
two copies of a three-qubit system also 64).
"""

from __future__ import annotations

import math

import numpy as np

MAX_DIM = 256

# Hermiticity tolerance for eigendecomposition preconditions.
HERMITICITY_TOL = 1e-10

# Reject inversion above this condition estimate.
CONDITION_LIMIT = 1e12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def hermiticity_defect(a: np.ndarray) -> float:
    """Largest entrywise deviation of ``a`` from its conjugate transpose.

    Non-finite input gives inf without the subtraction, which for inf
    entries would be inf - inf.
    """
    a = np.asarray(a, dtype=complex)
    if not np.isfinite(a).all():
        return math.inf
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    return hermiticity_defect(a) <= tol


def hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues real and
    ascending and eigenvectors as columns of a unitary matrix.  Input
    that is not Hermitian within HERMITICITY_TOL is rejected: a defect
    that large usually means an operator was assembled wrong, and
    symmetrizing would bury the bug.  Non-finite input is rejected too.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {a.shape[0]} exceeds MAX_DIM={MAX_DIM}")
    defect = hermiticity_defect(a)
    if not defect <= HERMITICITY_TOL:  # negated, so a NaN or inf defect fails too
        raise ValueError(
            f"matrix is not Hermitian: max|A - A^dag| = {defect:.3e} "
            f"exceeds {HERMITICITY_TOL:.0e}"
        )
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigendecomposition did not converge: {exc}") from exc
    return vals, vecs


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    vals, _ = hermitian_eig(a)
    return float(vals[0])


def inverse(a: np.ndarray) -> np.ndarray:
    """Matrix inverse, rejected when the condition estimate is 1e12 or worse."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond >= CONDITION_LIMIT:
        raise ValueError(
            f"matrix is singular or ill-conditioned: condition estimate "
            f"{cond:.3e} (limit {CONDITION_LIMIT:.0e})"
        )
    inv = np.linalg.inv(a)
    n = a.shape[0]
    residual = np.max(np.abs(a @ inv - np.eye(n)))
    if residual > 1e-9 * n:
        raise ValueError(f"inversion residual {residual:.3e} exceeds {1e-9 * n:.3e}")
    return inv
