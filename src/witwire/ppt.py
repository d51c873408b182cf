"""PPT criterion: partial transpose as the ground-truth entanglement check.

An operator on an n-slot space is a dense matrix with a list ``dims``
of local dimensions, one per slot, whose product is the matrix
dimension.  A product ket |q1 q2 ...> has its leftmost label on slot 0,
the most significant mixed-radix digit of the flat index; the state
constructors, the wiring evaluator's slot layout and the tests'
index-loop oracles all rely on that convention.  The partial transpose
reshapes the matrix to one axis per slot (row axes, then column axes)
and swaps the named pairs, so no permutation matrix is built.  Its
slots must be distinct ints in range.

A state whose partial transpose has a negative eigenvalue is entangled
(NPT); a nonnegative partial transpose is inconclusive in general,
though for 2x2 and 2x3 systems it certifies separability.  The verdict
threshold sits at -EIG_TOL (``linalg.EIG_TOL`` = 1e-9), clear of
eigensolver residual, so numerical noise on a PSD spectrum never gets
reported as entanglement.  A verdict or a threshold also needs its
transposed slots to be a nonempty proper subset of the parties:
transposing none or all of them leaves the spectrum of rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import EIG_TOL, TRACE_TOL, check_hermitian, check_local_dimension, check_operator
from .linalg import dagger, hermitian_eig, is_integer, min_eigenvalue
from .states import StateFamily


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


@dataclass(frozen=True)
class PptVerdict:
    min_eigenvalue: float
    transposed_slots: tuple[int, ...]
    verdict: str  # "npt_entangled" or "ppt_inconclusive"


def _checked_slots(transposed_slots, n_parties: int) -> tuple[int, ...]:
    """The transposed slots: the slot rule, plus a nonempty proper subset."""
    slots = list(transposed_slots)
    _check_slots(slots, n_parties)
    if not 0 < len(slots) < n_parties:
        raise ValueError(
            f"transposed slots {slots} are not a nonempty proper subset of the parties 0..{n_parties - 1}"
        )
    return tuple(int(s) for s in slots)


def min_pt_eigenvalue(rho, dims, transposed_slots) -> float:
    slots = _checked_slots(transposed_slots, len(dims))
    return min_eigenvalue(partial_transpose(rho, list(dims), slots))


def ppt_check(rho, dims, transposed_slots) -> PptVerdict:
    """Minimum eigenvalue of the partial transpose, with verdict."""
    check_density_matrix(rho, list(dims))
    slots = _checked_slots(transposed_slots, len(dims))  # read once: an iterator has one pass
    low = min_pt_eigenvalue(rho, dims, slots)
    verdict = "npt_entangled" if low < -EIG_TOL else "ppt_inconclusive"
    return PptVerdict(low, slots, verdict)


def ppt_threshold(family: StateFamily, transposed_slots) -> float:
    """Parameter where the family's minimum partial-transpose eigenvalue crosses zero.

    The slots obey the module's slot rule.  Every family is the segment
    between its ends, so its partial transpose is P0 + s (P1 - P0) on
    [0, 1]; from an end P0 = U diag(l) U^dag with l > EIG_TOL it is
    congruent to I + s L^dag (P1 - P0) L, L = U diag(l)^(-1/2), and it
    crosses zero at s = -1/nu_min if nu_min <= -1; otherwise this raises.
    """
    slots = _checked_slots(transposed_slots, len(family.dims))
    bounds = (0.0, 1.0)
    pts = [partial_transpose(end, list(family.dims), slots) for end in family.ends]
    for start in (0, 1):
        vals, vecs = hermitian_eig(pts[start])
        if vals[0] > EIG_TOL:
            break
    else:
        raise ValueError(f"family {family.name} has no positive definite end in {bounds}")
    whiten = vecs / np.sqrt(vals)
    nu_min = hermitian_eig(dagger(whiten) @ (pts[1 - start] - pts[start]) @ whiten)[0][0]
    if nu_min > -1.0:
        raise ValueError(f"no sign change on {bounds}: positive definite from {bounds[start]!r}")
    return bounds[start] + (bounds[1 - start] - bounds[start]) / -float(nu_min)
