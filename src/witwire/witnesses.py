"""Witness and positive-operator catalog, plus empirical validity checks.

A witness here is a Hermitian operator with at least one negative
eigenvalue whose expectation is nonnegative on every product state.
The sampling check below is Monte Carlo, so it gives an upper bound on
the separable minimum, not a proof; it is meant to catch sign and
normalization mistakes, and the analytic separability statements are
covered by the fixed expected values in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PAULI_X, PAULI_Y, PAULI_Z, hermitian_eig
from .multipartite import partial_transpose
from .states import bell, projector, w_state

EIG_NEG_TOL = -1e-9
PRODUCT_FLOOR = -1e-9


@dataclass(frozen=True)
class WitnessSpec:
    name: str
    matrix: np.ndarray
    dims: tuple[int, ...]
    kind: str  # "witness" or "positive_semidefinite"


@dataclass(frozen=True)
class ValidationReport:
    name: str
    kind: str
    min_eigenvalue: float
    min_product_expectation: float
    samples: int
    seed: int
    passed: bool


def _pauli_pair(sign_xx: float, sign_zz: float) -> np.ndarray:
    return (
        np.eye(4, dtype=complex)
        + sign_xx * np.kron(PAULI_X, PAULI_X)
        + sign_zz * np.kron(PAULI_Z, PAULI_Z)
    )


_P_CORE = np.array(
    [
        [1.0, 0.0, 0.0, -1.0],
        [0.0, 2.0, -2.0, 0.0],
        [0.0, -2.0, 2.0, 0.0],
        [-1.0, 0.0, 0.0, 1.0],
    ],
    dtype=complex,
)


def _fixed(name: str, mat: np.ndarray, dims=(2, 2), kind="witness") -> WitnessSpec:
    # every lookup hands out this same array, so nobody may write to it
    mat.setflags(write=False)
    return WitnessSpec(name, mat, dims, kind)


# The parameterless entries, built once at import.
_FIXED = {
    spec.name: spec
    for spec in (
        _fixed("W", _pauli_pair(-1.0, +1.0)),
        _fixed("V", 2.0 * partial_transpose(projector(bell("phi_plus")), [2, 2], [1])),
        _fixed("W1", np.eye(4, dtype=complex) + np.kron(PAULI_X, PAULI_X) - np.kron(PAULI_Y, PAULI_Y)),
        _fixed("W2", 2.0 * partial_transpose(projector(bell("psi_minus")), [2, 2], [1])),
        _fixed("W3", 2.0 * partial_transpose(projector(bell("psi_plus")), [2, 2], [1])),
        _fixed("W4", _pauli_pair(-1.0, -1.0)),
        _fixed("P", _P_CORE, kind="positive_semidefinite"),
        # WW1: detects the W state against white noise with a single copy
        _fixed("WW1", (2.0 / 3.0) * np.eye(8, dtype=complex) - projector(w_state()), (2, 2, 2)),
    )
}

_CANONICAL_NAMES = ("W", "V", "W1", "W2", "W3", "W4", "P", "P_b", "WW1")
_BY_LOWER = {n.lower(): n for n in _CANONICAL_NAMES}


def catalog(name: str, b: float | None = None) -> WitnessSpec:
    """Look up a catalog operator by name.

    P_b takes the tuning parameter b >= 1 (b=1 gives P/4 entrywise) and
    is built on each call; every other name rejects a parameter and
    returns its shared read-only entry.  W3 is fixed at the trace-2
    normalization 2|psi_plus><psi_plus|^T2 -- a positive rescaling
    never changes which states a witness detects, so nothing downstream
    depends on that factor.
    """
    canon = _BY_LOWER.get(str(name).strip().lower())
    if canon is None:
        raise ValueError(f"unknown catalog name {name!r}; known: {', '.join(_CANONICAL_NAMES)}")
    if canon != "P_b":
        if b is not None:
            raise ValueError(f"{canon} takes no parameter, got b={b}")
        return _FIXED[canon]
    if b is None:
        raise ValueError("P_b requires the parameter b")
    b = float(b)
    if b < 1.0:
        raise ValueError(f"P_b is positive semidefinite only for b >= 1, got b={b}")
    mat = _P_CORE.copy()
    mat[1, 1] = mat[2, 2] = 2.0 * b
    mat[1, 2] = mat[2, 1] = -2.0 * b
    return WitnessSpec("P_b", mat / (4.0 * b), (2, 2), "positive_semidefinite")


def catalog_names() -> tuple[str, ...]:
    return _CANONICAL_NAMES


def product_state_batch(dims: list[int], count: int, rng: np.random.Generator) -> np.ndarray:
    """count Haar-random pure product vectors on the given slots, stacked in rows.

    Each local state is a vector of standard complex Gaussians,
    normalized; that is the Haar measure on local pure states.  One
    draw of shape (2, count, d) per party gives the real parts, then
    the imaginary parts: the same stream as two (count, d) draws.
    """
    batch = np.ones((count, 1), dtype=complex)
    for d in dims:
        parts = rng.standard_normal((2, count, d))
        parts /= np.sqrt(np.einsum("kbi,kbi->b", parts, parts))[:, None]
        loc = np.empty((count, d), dtype=complex)
        loc.real, loc.imag = parts
        batch = (batch[:, :, None] * loc[:, None, :]).reshape(count, -1)
    return batch


def min_product_expectation(
    matrix: np.ndarray,
    dims: list[int],
    samples: int,
    seed: int,
) -> float:
    """Minimum of <prod|matrix|prod> over sampled pure product states.

    An upper bound on the true separable minimum (sampling can only
    miss the minimizer, never undershoot it).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    matrix = np.asarray(matrix, dtype=complex)
    rng = np.random.default_rng(seed)
    best = np.inf
    remaining = samples
    while remaining > 0:
        count = min(remaining, 20000)
        vecs = product_state_batch(dims, count, rng)
        vals = np.einsum("bi,ij,bj->b", vecs.conj(), matrix, vecs).real
        best = min(best, float(vals.min()))
        remaining -= count
    return best


def validate_witness(spec: WitnessSpec, samples: int, seed: int) -> ValidationReport:
    """Empirical validity check of a catalog entry.

    For kind "witness": requires a negative eigenvalue below -1e-9 and
    a sampled product-state minimum not below -1e-9.  For kind
    "positive_semidefinite": requires no eigenvalue below -1e-9.
    """
    vals, _ = hermitian_eig(spec.matrix)
    low = float(vals[0])
    floor = min_product_expectation(spec.matrix, list(spec.dims), samples, seed)
    if spec.kind == "positive_semidefinite":
        passed = low >= EIG_NEG_TOL
    else:
        passed = low < EIG_NEG_TOL and floor >= PRODUCT_FLOOR
    return ValidationReport(
        name=spec.name,
        kind=spec.kind,
        min_eigenvalue=low,
        min_product_expectation=floor,
        samples=samples,
        seed=seed,
        passed=passed,
    )
