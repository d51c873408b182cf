"""Entanglement concentration by a single joint measurement.

Setup: two copies of the bipartite pure state |phi> = (1 (x) Psi)|psi+>
live on slots A,B,A',B'.  Measuring a suitable rank-one projector on
the middle pair (B, A') leaves the outer pair (A, B') in either a copy
of |phi> (measurement kind "m") or the maximally entangled state
(kind "M"), deterministically up to the outcome probability.

The measurement vectors |m> = (1 (x) (Psi*)^-1)|psi+> and
|M> = (1 (x) (Psi* Psi*)^-1)|psi+> are unnormalized by construction.
Physical quantities (probability, output state) use the normalized
projector on the normalized input; the unnormalized bookkeeping, whose
ratio 1/(d^2 p) can exceed 1 and is therefore not itself a probability,
is tracked separately and cross-checked, never silently substituted.

Only pure states are handled: with |phi> reshaped to the d x d matrix
Phi = Psi^T and the measurement vector to V, the (A, B') amplitudes are
Phi conj(V) Phi.  MAX_DIM caps the d^2 x d^2 output state, so d <= 16.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import MAX_DIM, dagger, inverse
from .states import bell, projector, schmidt_state

CROSS_CHECK_TOL = 1e-10
CONDITION_CAP = 1e2


@dataclass(frozen=True)
class ConcentrationResult:
    output_state: np.ndarray
    dims: tuple[int, ...]
    probability: float
    fidelity_with_target: float
    measurement_kind: str
    # unnormalized bookkeeping: raw measurement weight and the ratio
    # 1/(d^2 * weight); the ratio is d for kind "m", so it is a
    # consistency handle, not a probability
    raw_weight: float
    bookkeeping_ratio: float


def _checked_psi(psi_mat: np.ndarray) -> np.ndarray:
    psi_mat = np.asarray(psi_mat, dtype=complex)
    if psi_mat.ndim != 2 or psi_mat.shape[0] != psi_mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {psi_mat.shape}")
    if psi_mat.shape[0] ** 2 > MAX_DIM:
        raise ValueError(
            f"output state dimension {psi_mat.shape[0]}^2 exceeds MAX_DIM={MAX_DIM}"
        )
    norm2 = float(np.trace(dagger(psi_mat) @ psi_mat).real)
    if abs(norm2 - 1.0) > 1e-10:
        raise ValueError(f"Tr(Psi^dag Psi) = {norm2!r}, expected 1 within 1e-10")
    return psi_mat


def measurement_vector(psi_mat: np.ndarray, kind: str) -> tuple[np.ndarray, float]:
    """Unnormalized measurement vector for the (B, A') pair, with its norm.

    For kind "M" the two equivalent constructions
    (1 (x) (Psi* Psi*)^-1)|psi+>  and  ((Psi^dag)^-1 (x) (Psi*)^-1)|psi+>
    are both evaluated and must agree as directions; a gap means the
    conjugation conventions drifted somewhere upstream.  The raw
    entries scale with the inverse squared singular values, so the
    comparison is made on unit-normalized copies.
    """
    psi_mat = _checked_psi(psi_mat)
    d = psi_mat.shape[0]
    psi = bell("psi_plus", d)
    conj = psi_mat.conj()
    if kind == "m":
        vec = np.kron(np.eye(d, dtype=complex), inverse(conj)) @ psi
    elif kind == "M":
        vec = np.kron(np.eye(d, dtype=complex), inverse(conj @ conj)) @ psi
        alt = np.kron(inverse(dagger(psi_mat)), inverse(conj)) @ psi
        gap = float(
            np.max(np.abs(vec / np.linalg.norm(vec) - alt / np.linalg.norm(alt)))
        )
        if gap > CROSS_CHECK_TOL:
            raise ValueError(f"measurement constructions disagree by {gap:.3e}")
    else:
        raise ValueError(f"measurement kind must be 'm' or 'M', got {kind!r}")
    return vec, float(np.linalg.norm(vec))


def _outer_amplitudes(phi_mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Flat (A, B') amplitudes of <vec|_{B,A'} |phi>|phi>, phi_mat[a, b] = <ab|phi>."""
    d = phi_mat.shape[0]
    return (phi_mat @ vec.reshape(d, d).conj() @ phi_mat).reshape(-1)


def concentrate(psi_mat: np.ndarray, kind: str) -> ConcentrationResult:
    """Run the protocol on two copies of |phi> and report the A,B' state."""
    psi_mat = _checked_psi(psi_mat)
    d = psi_mat.shape[0]
    phi = schmidt_state(psi_mat)
    vec, norm = measurement_vector(psi_mat, kind)
    if norm < 1e-14:
        raise ValueError("degenerate measurement vector")
    out = _outer_amplitudes(phi.reshape(d, d), vec / norm)
    probability = float(np.vdot(out, out).real)
    if probability < 1e-14:
        raise ValueError(f"measurement outcome has probability {probability:.3e}")
    output = projector(out) / probability

    target = phi if kind == "m" else bell("psi_plus", d)
    fidelity = float((target.conj() @ output @ target).real)

    # unnormalized bookkeeping on the raw vector (1 (x) Psi)|psi+>, which
    # reshapes to Psi^T / sqrt d, against the raw measurement vector
    raw = _outer_amplitudes(psi_mat.T / np.sqrt(d), vec)
    raw_weight = float(np.vdot(raw, raw).real)

    return ConcentrationResult(
        output_state=output,
        dims=(d, d),
        probability=probability,
        fidelity_with_target=fidelity,
        measurement_kind=kind,
        raw_weight=raw_weight,
        bookkeeping_ratio=1.0 / (d**2 * raw_weight),
    )


def probability_consistency(psi_mat: np.ndarray, kind: str) -> tuple[float, float, float]:
    """Check the unnormalized bookkeeping against its closed form.

    The reduced operator left on (A, B') by the unnormalized projector
    equals d^-2 times the unnormalized target projector, so its trace
    (the raw measurement weight) must equal d^-2 times the target's
    trace: d^-3 for kind "m", d^-2 for kind "M".  Returns
    (lhs, rhs, |lhs - rhs|) with lhs the weight `concentrate` reports.
    """
    psi_mat = _checked_psi(psi_mat)
    d = psi_mat.shape[0]
    lhs = concentrate(psi_mat, kind).raw_weight
    # target trace: |(1 (x) Psi)|psi+>|^2 = Tr(Psi^dag Psi)/d for "m", 1 for "M"
    overlap = float(np.vdot(psi_mat, psi_mat).real) / d if kind == "m" else 1.0
    rhs = overlap / d**2
    return lhs, rhs, abs(lhs - rhs)


def random_schmidt_operator(d: int, rng: np.random.Generator | int) -> np.ndarray:
    """Random full-rank Psi with Tr(Psi^dag Psi) = 1.

    Complex Gaussian entries, rescaled; draws with condition number
    above 1e2 are rejected so the squared conditioning of the kind-M
    inverse keeps its roundoff two orders below CROSS_CHECK_TOL.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    while True:
        mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if np.linalg.cond(mat) > CONDITION_CAP:
            continue
        return mat / np.sqrt(np.trace(dagger(mat) @ mat).real)
