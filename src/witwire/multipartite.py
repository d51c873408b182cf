"""Index algebra on operators over tensor-factor spaces.

An operator on an n-slot space is a plain dense matrix together with a
list ``dims`` of local dimensions, one per slot, whose product equals
the matrix dimension.  Basis ordering: a product ket |q1 q2 ...> has the
leftmost label on slot 0, which is the most significant mixed-radix
digit of the flat index.  That convention is fixed here once and
everything else (state constructors, the wiring evaluator's slot
layout, the tests' index-loop oracles) relies on it.

The partial transpose works by reshaping the matrix to one tensor axis
per slot (row axes first, then column axes) and transposing, which is
the mixed-radix index arithmetic done in bulk; no permutation matrix is
ever built.
"""

from __future__ import annotations

import numpy as np

from .linalg import EIG_TOL, TRACE_TOL, check_hermitian, check_local_dimension, check_operator
from .linalg import is_integer, min_eigenvalue


def _as_square(mat: np.ndarray, dims: list[int]) -> np.ndarray:
    mat = check_operator(mat, dims, "operator")
    for d in dims:
        check_local_dimension(d)
    return mat


def _check_slots(slots: list[int], n: int) -> None:
    """Raise unless the slots are distinct ints in 0..n-1.

    ``partial_transpose`` would read a bool slot as party 0 or 1, and
    would fail on a float one as a bare list index that names no slot.
    """
    if not all(is_integer(s) for s in slots):
        raise ValueError(f"slots {list(slots)} are not all ints")
    if len(set(slots)) != len(slots):
        raise ValueError(f"repeated slot in {list(slots)}")
    if any(not 0 <= s < n for s in slots):
        raise ValueError(f"slot index out of range in {list(slots)} for {n} slots")


def partial_transpose(mat: np.ndarray, dims: list[int], transposed_slots: list[int]) -> np.ndarray:
    """Transpose the named slots in place; the full-slot case is plain transpose."""
    mat = _as_square(mat, dims)
    n = len(dims)
    _check_slots(transposed_slots, n)
    tensor = mat.reshape(list(dims) + list(dims))
    axes = list(range(2 * n))
    for s in transposed_slots:
        axes[s], axes[n + s] = axes[n + s], axes[s]
    return tensor.transpose(axes).reshape(mat.shape)


def check_density_matrix(rho: np.ndarray, dims: list[int]) -> None:
    """Raise unless ``rho`` is finite, Hermitian, unit-trace, and PSD within tolerance."""
    rho = _as_square(rho, dims)
    check_hermitian(rho, "density matrix")
    tr = complex(np.trace(rho))
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} differs from 1")
    low = min_eigenvalue(rho)
    if not low >= -EIG_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {low:.3e}")
