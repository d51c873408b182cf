"""Reference values and the pass/fail checks applied to every benchmark job.

Everything here is computed by the benchmark itself from closed forms or
from its own reshapes of the input matrices; none of it calls the dense
witwire paths whose output it judges.  Each ``*_error`` function returns
``None`` when the output passes and a one-line reason when it does not,
so a failing job is counted instead of aborting the run.
"""

from __future__ import annotations

import math

import numpy as np

ROOT_TOL = 1e-6  # located sweep / PPT roots against their exact values
VALUE_TOL = 1e-10  # expectation values against the independent contraction
FIDELITY_TOL = 1e-9
PROBABILITY_SLACK = 1e-12
BOOKKEEPING_TOL = 1e-9

# ex3_cyclic: the closed form is 0.5 * ((w - 1)^3 + 1/2), one real root
EX3_CUBIC_ROOT = 1.0 - 2.0 ** (-1.0 / 3.0)
EX5_CROSS_ROOT = 2.0 / 5.0
EX5_WW1_ROOT = 8.0 / 21.0
EX4_P_W3_ROOT = math.sqrt(3.0 / 5.0)


def ex4_pb_w3_root(b: float) -> float:
    return math.sqrt((2.0 * b + 1.0) / (6.0 * b - 1.0))


def sweep_roots(scenario: str, b: float | None = None) -> list[float]:
    """Every sign change of a shipped grid scenario on its family range [0, 1]."""
    if scenario == "ex4_pb_w3":
        return [ex4_pb_w3_root(b)]
    return {
        "ex3_cyclic": [EX3_CUBIC_ROOT],
        "ex4_p_w3": [EX4_P_W3_ROOT],
        "ex5_cross": [EX5_CROSS_ROOT],
        "ex5_ww1": [EX5_WW1_ROOT],
    }[scenario]


def min_pt_eigenvalue(rho: np.ndarray, dims: tuple[int, ...], slot: int) -> float:
    """Smallest eigenvalue of rho with one slot transposed, by axis swap."""
    n = len(dims)
    axes = list(range(2 * n))
    axes[slot], axes[n + slot] = axes[n + slot], axes[slot]
    pt = rho.reshape(dims + dims).transpose(axes).reshape(rho.shape)
    return float(np.linalg.eigvalsh(pt)[0])


def ppt_root(rho_of, dims: tuple[int, ...], slot: int, tol: float = 1e-13) -> float:
    """Bisect the zero of the minimum partial-transpose eigenvalue on [0, 1]."""
    lo, hi = 0.0, 1.0
    f_lo = min_pt_eigenvalue(rho_of(lo), dims, slot)
    if f_lo * min_pt_eigenvalue(rho_of(hi), dims, slot) >= 0.0:
        raise ValueError("reference PPT eigenvalue does not change sign on [0, 1]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = min_pt_eigenvalue(rho_of(mid), dims, slot)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def contract(
    rho: np.ndarray,
    base_dims: tuple[int, ...],
    copies: int,
    placed: list[tuple[np.ndarray, list[int]]],
) -> complex:
    """Tr(Wiring rho^(x)copies) as one einsum over reshaped copies of rho.

    ``placed`` lists (matrix, flat slots) pairs on the copy-major slot
    layout.  Row index of slot s is label s, column index label N + s;
    a slot without a witness is traced by giving its row and column the
    same label.  Tr(A rho) = sum A[c, r] rho[r, c], so a witness takes
    the column labels first.
    """
    n = len(base_dims)
    total = n * copies
    covered = {s for _, slots in placed for s in slots}
    col = [total + s if s in covered else s for s in range(total)]
    rho_t = np.asarray(rho, dtype=complex).reshape(tuple(base_dims) * 2)
    operands: list = []
    for c in range(copies):
        slots = list(range(c * n, (c + 1) * n))
        operands += [rho_t, slots + [col[s] for s in slots]]
    for mat, slots in placed:
        dims = tuple(base_dims[s % n] for s in slots)
        operands += [np.asarray(mat, dtype=complex).reshape(dims * 2), [col[s] for s in slots] + list(slots)]
    return complex(np.einsum(*operands, [], optimize="greedy"))


def roots_error(found: list[float], expected: list[float], tol: float = ROOT_TOL) -> str | None:
    found, expected = sorted(found), sorted(expected)
    if len(found) != len(expected):
        return f"located roots {found}, expected {expected}"
    for f, e in zip(found, expected):
        if not abs(f - e) <= tol:
            return f"root {f!r} differs from {e!r} by more than {tol:g}"
    return None


def close_error(value: float, reference: float, tol: float = VALUE_TOL) -> str | None:
    if not abs(value - reference) <= tol:
        return f"value {value!r} differs from reference {reference!r} by more than {tol:g}"
    return None


def concentration_error(fidelity: float, probability: float, delta: float) -> str | None:
    if not abs(fidelity - 1.0) <= FIDELITY_TOL:
        return f"fidelity {fidelity!r} is not within {FIDELITY_TOL:g} of 1"
    if not 0.0 < probability <= 1.0 + PROBABILITY_SLACK:
        return f"probability {probability!r} is outside (0, 1]"
    if not delta <= BOOKKEEPING_TOL:
        return f"bookkeeping delta {delta!r} exceeds {BOOKKEEPING_TOL:g}"
    return None


def same_bytes_error(first: dict[str, bytes], again: dict[str, bytes]) -> str | None:
    if first != again:
        differing = sorted(k for k in set(first) | set(again) if first.get(k) != again.get(k))
        return f"repeated job wrote different bytes: {', '.join(differing)}"
    return None
