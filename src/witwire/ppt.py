"""PPT criterion: partial transpose as the ground-truth entanglement check.

A state whose partial transpose has a negative eigenvalue is entangled
(NPT); a nonnegative partial transpose is inconclusive in general,
though for 2x2 and 2x3 systems it certifies separability.  The verdict
threshold sits at -EIG_TOL (``linalg.EIG_TOL`` = 1e-9), clear of
eigensolver residual, so numerical noise on a PSD spectrum never gets
reported as entanglement.  The transposed slots obey the slot rule of
``multipartite`` (distinct ints in range) and must name a nonempty
proper subset of the parties: transposing none or all of them leaves
the spectrum of rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import EIG_TOL, dagger, hermitian_eig, min_eigenvalue
from .multipartite import _check_slots, check_density_matrix, partial_transpose
from .states import StateFamily


@dataclass(frozen=True)
class PptVerdict:
    min_eigenvalue: float
    transposed_slots: tuple[int, ...]
    verdict: str  # "npt_entangled" or "ppt_inconclusive"


def _checked_slots(transposed_slots, n_parties: int) -> tuple[int, ...]:
    """The transposed slots: the shared slot rule, plus a nonempty proper subset."""
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

    The slots obey the module's slot rule.  Every family is affine, so
    the partial transpose along the range is P0 + s (P1 - P0); from an
    end P0 = U diag(l) U^dag with l > EIG_TOL it is congruent to
    I + s L^dag (P1 - P0) L, L = U diag(l)^(-1/2), and it crosses zero
    at s = -1/nu_min if nu_min <= -1; otherwise this raises.
    """
    slots = _checked_slots(transposed_slots, len(family.dims))
    bounds = family.param_range
    pts = [partial_transpose(family(p), list(family.dims), slots) for p in bounds]
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
