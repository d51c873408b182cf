"""Dense complex matrix helpers.

Matrices are plain ``numpy.ndarray`` of dtype complex; arithmetic is the
native operators (``+``, ``-``, ``*``, ``@``, ``np.kron``, ``np.trace``,
``.T``, ``.conj()``).  This module holds what two or more modules
share: the Hermitian eigendecomposition, which refuses non-Hermitian
input instead of symmetrizing silently, and the input gates: integers,
the local dimension, square and operator shape, Hermiticity, and the
trace and eigenvalue tolerances.

Everything here is sized for small dense problems; MAX_DIM = 256 caps
the dense matrices the library builds, which the Hermitian eigensolver
here (so every PPT check) takes, and the d^2 amplitudes of the
concentration output ket.  The library never forms rho^(x)k or a full
k-copy operator.  A compiled wiring builds only per-copy witness blocks
on its placed slots, none larger than the operator on all of them, and
MAX_DIM caps the product of the placed dims, not the full k-copy
dimension: a wiring on three copies of a three-qubit state (D = 512)
evaluates as long as its placed dims multiply to at most 256.
"""

from __future__ import annotations

import math

import numpy as np

MAX_DIM = 256

# Tolerances of the Hermiticity gate and of unit trace (of rho, or of
# Psi^dag Psi), and the eigenvalue noise floor: an eigenvalue below
# -EIG_TOL counts as negative, one above EIG_TOL as positive.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_TOL = 1e-9


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
    return float(abs(a - a.conj().T).max()) if a.size else 0.0


def is_integer(value) -> bool:
    """True for a Python or NumPy integer; a bool is not one, though ``int()`` reads it as 0 or 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def checked_integer(value, where: str) -> int:
    """``value`` as an int, refused by ``where`` unless ``is_integer``: ``int()`` would read 2.7 as 2."""
    if not is_integer(value):
        raise ValueError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def checked_seed(seed) -> int:
    """``seed`` as an int, refused unless an integer >= 0: the seeds numpy's generators take."""
    if checked_integer(seed, "seed") < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return int(seed)


def check_local_dimension(d: int) -> None:
    """Raise unless ``d`` is at least 2: a tensor slot holds a qubit or more."""
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")


def square(a: np.ndarray) -> np.ndarray:
    """``a`` as a complex matrix; raise unless it is square."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def check_operator(a: np.ndarray, dims, what: str) -> np.ndarray:
    """``a`` as a complex matrix; raise unless its shape is (prod(dims), prod(dims))."""
    a = square(a)
    n = math.prod(dims)
    if a.shape[0] != n:
        raise ValueError(f"{what} has shape {a.shape}, expected {(n, n)} for dims {list(dims)}")
    return a


def check_hermitian(a: np.ndarray, what: str) -> None:
    """Raise ValueError unless ``a`` is finite and Hermitian within HERMITICITY_TOL.

    ``what`` names the matrix in the message.  A non-Hermitian operator
    gives real-looking values that mean nothing; symmetrizing would hide it.
    """
    defect = hermiticity_defect(a)
    if not defect <= HERMITICITY_TOL:  # negated, so a NaN defect fails too
        detail = (
            "it has non-finite entries"
            if not np.isfinite(a).all()
            else f"max|A - A^dag| = {defect:.3e} exceeds {HERMITICITY_TOL:.0e}"
        )
        raise ValueError(f"{what} is not Hermitian: {detail}")


def hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues real and
    ascending and eigenvectors as columns of a unitary matrix.  Input
    that ``check_hermitian`` refuses is rejected.
    """
    a = square(a)
    if a.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {a.shape[0]} exceeds MAX_DIM={MAX_DIM}")
    check_hermitian(a, "matrix")
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"eigendecomposition did not converge: {exc}") from exc
    return vals, vecs


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    vals, _ = hermitian_eig(a)
    return float(vals[0])
