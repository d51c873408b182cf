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
is tracked separately and checked against its closed form.

Only pure states are handled, as d x d matrices: (A (x) B)|psi+>
reshapes to A B^T / sqrt d, so |phi> is Phi = Psi^T and |m>, |M> are
(Psi^dag)^-1 and (Psi^dag Psi^dag)^-1 over sqrt d; no Kronecker
product is formed.  With V the reshaped measurement vector, the
(A, B') amplitudes are Phi conj(V) Phi.  MAX_DIM caps the d^2 x d^2
output state, so 2 <= d <= 16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import MAX_DIM, check_local_dimension, condition_number, dagger, inverse
from .states import _frozen, bell, check_schmidt_operator

CONDITION_CAP = 1e2

# the pass rule of a concentration run: fidelity within FIDELITY_TOL of 1
# and probability in (0, 1 + PROBABILITY_SLACK]
FIDELITY_TOL = 1e-9
PROBABILITY_SLACK = 1e-12

# kind "M"'s target |psi+> for every d the MAX_DIM cap allows, shared read-only
_PSI_PLUS_BY_DIM = {d: _frozen(bell("psi_plus", d)) for d in range(2, math.isqrt(MAX_DIM) + 1)}


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


def _checked_vector(psi_mat: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Psi validated, once, with ``measurement_vector``'s vector."""
    psi_mat = check_schmidt_operator(psi_mat)
    d = psi_mat.shape[0]
    if d**2 > MAX_DIM:
        raise ValueError(f"output state dimension {d}^2 exceeds MAX_DIM={MAX_DIM}")
    adj = dagger(psi_mat)
    if kind == "m":
        x = inverse(adj)
    elif kind == "M":
        x = inverse(adj @ adj)
    else:
        raise ValueError(f"measurement kind must be 'm' or 'M', got {kind!r}")
    return psi_mat, x.reshape(-1) / math.sqrt(d)


def measurement_vector(psi_mat: np.ndarray, kind: str) -> tuple[np.ndarray, float]:
    """Unnormalized measurement vector for the (B, A') pair, with its norm.

    The vector is X / sqrt d read row-major, X = (Psi^dag)^-1 for kind
    "m" and (Psi^dag Psi^dag)^-1 for kind "M".  The guarded inversion is
    of the matrix actually inverted, so its gates apply to that matrix.
    """
    vec = _checked_vector(psi_mat, kind)[1]
    return vec, float(np.linalg.norm(vec))


def _outer_amplitudes(phi_mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Flat (A, B') amplitudes of <vec|_{B,A'} |phi>|phi>, phi_mat[a, b] = <ab|phi>."""
    d = phi_mat.shape[0]
    return (phi_mat @ vec.reshape(d, d).conj() @ phi_mat).reshape(-1)


def _raw_weight(psi_mat: np.ndarray, vec: np.ndarray) -> float:
    """Weight of the raw (1 (x) Psi)|psi+> = Psi^T / sqrt d on the raw vector."""
    raw = _outer_amplitudes(psi_mat.T / math.sqrt(psi_mat.shape[0]), vec)
    return float(np.vdot(raw, raw).real)


def concentrate(psi_mat: np.ndarray, kind: str) -> ConcentrationResult:
    """Run the protocol on two copies of |phi> and report the A,B' state."""
    psi_mat, vec = _checked_vector(psi_mat, kind)
    norm = float(np.linalg.norm(vec))
    d = psi_mat.shape[0]
    if kind == "M":  # kind "m" inverted Psi^dag, whose singular values are Psi's
        inverse(psi_mat)  # |phi>'s full-rank gate: Psi^dag Psi^dag can hide a singular Psi
    phi = psi_mat.T.reshape(-1)
    phi = phi / np.linalg.norm(phi)
    if norm < 1e-14:
        raise ValueError("degenerate measurement vector")
    out = _outer_amplitudes(phi.reshape(d, d), vec / norm)
    probability = float(np.vdot(out, out).real)
    if probability < 1e-14:
        raise ValueError(f"measurement outcome has probability {probability:.3e}")
    output = np.outer(out, out.conj()) / probability

    target = phi if kind == "m" else _PSI_PLUS_BY_DIM[d]
    fidelity = float((target.conj() @ output @ target).real)
    raw_weight = _raw_weight(psi_mat, vec)

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
    (lhs, rhs, |lhs - rhs|) with lhs the raw weight `concentrate`
    reports, from the same helper; the protocol is not run, so its
    degenerate-vector and zero-probability errors are not raised.
    """
    psi_mat, vec = _checked_vector(psi_mat, kind)
    d = psi_mat.shape[0]
    lhs = _raw_weight(psi_mat, vec)
    # target trace: |(1 (x) Psi)|psi+>|^2 = Tr(Psi^dag Psi)/d for "m", 1 for "M"
    overlap = float(np.vdot(psi_mat, psi_mat).real) / d if kind == "m" else 1.0
    rhs = overlap / d**2
    return lhs, rhs, abs(lhs - rhs)


def random_schmidt_operator(d: int, rng: np.random.Generator | int) -> np.ndarray:
    """Random full-rank Psi with Tr(Psi^dag Psi) = 1.

    Complex Gaussian entries, rescaled; draws with condition number
    above 1e2 are rejected so the squared conditioning of the kind-M
    inverse keeps its roundoff far below the 1e-9 gates.
    """
    check_local_dimension(d)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    while True:
        mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if condition_number(mat) > CONDITION_CAP:
            continue
        return mat / np.sqrt(np.trace(dagger(mat) @ mat).real)
