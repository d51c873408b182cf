"""PPT criterion: partial transpose as the ground-truth entanglement check.

A state whose partial transpose has a negative eigenvalue is entangled
(NPT); a nonnegative partial transpose is inconclusive in general,
though for 2x2 and 2x3 systems it certifies separability.  The verdict
threshold sits at -1e-9, above eigensolver residual, so numerical noise
on a PSD spectrum never gets reported as entanglement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .detection import ThresholdResult, find_threshold
from .linalg import hermitian_eig
from .multipartite import check_density_matrix, partial_transpose
from .states import StateFamily

NEG_TOL = -1e-9


@dataclass(frozen=True)
class PptVerdict:
    min_eigenvalue: float
    transposed_slots: tuple[int, ...]
    verdict: str  # "npt_entangled" or "ppt_inconclusive"


def min_pt_eigenvalue(rho, dims, transposed_slots) -> float:
    pt = partial_transpose(rho, list(dims), list(transposed_slots))
    vals, _ = hermitian_eig(pt)
    return float(vals[0])


def ppt_check(rho, dims, transposed_slots) -> PptVerdict:
    """Minimum eigenvalue of the partial transpose, with verdict."""
    check_density_matrix(rho, list(dims))
    low = min_pt_eigenvalue(rho, dims, transposed_slots)
    verdict = "npt_entangled" if low < NEG_TOL else "ppt_inconclusive"
    return PptVerdict(low, tuple(int(s) for s in transposed_slots), verdict)


def ppt_threshold(
    family: StateFamily,
    transposed_slots,
    tol: float = 1e-9,
) -> ThresholdResult:
    """Parameter where the family's minimum partial-transpose eigenvalue crosses zero.

    The slots must be a nonempty proper subset of the parties: the
    transpose of none or all of them has the spectrum of rho.
    """
    slots = {int(s) for s in transposed_slots}
    if not slots or slots.issuperset(range(len(family.dims))):
        raise ValueError(f"transposed slots {sorted(slots)} are not a nonempty proper subset")
    lo, hi = family.param_range
    f = lambda p: min_pt_eigenvalue(family(p), list(family.dims), list(transposed_slots))
    return find_threshold(f, lo, hi, tol)
