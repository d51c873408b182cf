"""Index algebra on operators over tensor-factor spaces.

An operator on an n-slot space is a plain dense matrix together with a
list ``dims`` of local dimensions, one per slot, whose product equals
the matrix dimension.  Basis ordering: a product ket |q1 q2 ...> has the
leftmost label on slot 0, which is the most significant mixed-radix
digit of the flat index.  That convention is fixed here once and
everything else (state constructors, the wiring evaluator's slot
layout, the tests' index-loop oracles) relies on it.

Permutation convention: ``perm[old] = new`` slot position.  So
``perm=[1, 0]`` swaps two slots, and permuting |01> by it gives |10>.

All routines work by reshaping the matrix to one tensor axis per slot
(row axes first, then column axes) and transposing, which is the
mixed-radix index arithmetic done in bulk; no permutation matrices are
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

    A float slot would name no axis: ``partial_trace`` would trace nothing.
    """
    if not all(is_integer(s) for s in slots):
        raise ValueError(f"slots {list(slots)} are not all ints")
    if len(set(slots)) != len(slots):
        raise ValueError(f"repeated slot in {list(slots)}")
    if any(not 0 <= s < n for s in slots):
        raise ValueError(f"slot index out of range in {list(slots)} for {n} slots")


def permute_subsystems(mat: np.ndarray, dims: list[int], perm: list[int]) -> np.ndarray:
    """Reorder tensor slots; ``perm`` maps old slot position to new."""
    mat = _as_square(mat, dims)
    n = len(dims)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {list(perm)} is not a bijection on {n} slots")
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    tensor = mat.reshape(list(dims) + list(dims))
    axes = [inv[t] for t in range(n)] + [n + inv[t] for t in range(n)]
    return tensor.transpose(axes).reshape(mat.shape)


def embed(
    local: np.ndarray,
    local_dims: list[int],
    slots: list[int],
    full_dims: list[int],
) -> np.ndarray:
    """Place ``local`` on the named slots (in that order), identity elsewhere.

    ``slots`` may be non-adjacent and in any order; e.g. embedding a
    two-party operator at slots [3, 0] puts its first factor on slot 3.
    """
    local = _as_square(local, local_dims)
    n = len(full_dims)
    if len(slots) != len(local_dims):
        raise ValueError(f"{len(slots)} slots for a {len(local_dims)}-slot operator")
    _check_slots(slots, n)
    for pos, s in enumerate(slots):
        if full_dims[s] != local_dims[pos]:
            raise ValueError(
                f"dimension mismatch at slot {s}: operator factor has dim "
                f"{local_dims[pos]}, target slot has dim {full_dims[s]}"
            )
    rest = [i for i in range(n) if i not in slots]
    rest_dim = int(np.prod([full_dims[i] for i in rest])) if rest else 1
    op = np.kron(local, np.eye(rest_dim, dtype=complex))
    # op currently lives on slot order (slots..., rest...); send each to its place
    perm = list(slots) + rest
    op_dims = list(local_dims) + [full_dims[i] for i in rest]
    return permute_subsystems(op, op_dims, perm)


def partial_trace(mat: np.ndarray, dims: list[int], traced_slots: list[int]) -> np.ndarray:
    """Trace out the named slots, keeping the rest in their original order."""
    mat = _as_square(mat, dims)
    n = len(dims)
    _check_slots(traced_slots, n)
    traced = sorted(traced_slots)
    if len(traced) == n:
        raise ValueError("tracing every slot; use the scalar trace instead")
    keep = [i for i in range(n) if i not in traced]
    tensor = mat.reshape(list(dims) + list(dims))
    row = list(range(n))
    col = [i if i in traced else n + i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(tensor, row + col, out)
    kd = int(np.prod([dims[i] for i in keep]))
    return reduced.reshape(kd, kd)


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
