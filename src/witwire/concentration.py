"""Entanglement concentration by a single joint measurement.

Setup: two copies of the bipartite pure state |phi> = (1 (x) Psi)|psi+>
live on slots A,B,A',B'.  Measuring a suitable rank-one projector on
the middle pair (B, A') leaves the outer pair (A, B') in either a copy
of |phi> (measurement kind "m") or the maximally entangled state
(kind "M"), deterministically up to the outcome probability.

The measurement vectors |m> = (1 (x) (Psi*)^-1)|psi+> and
|M> = (1 (x) (Psi* Psi*)^-1)|psi+> are unnormalized by construction.
Physical quantities (probability, output ket) use the normalized
projector on the normalized input.  The unnormalized bookkeeping, whose
ratio 1/(d^2 p) can exceed 1 and is therefore not itself a probability,
is not part of a run: ``probability_consistency`` computes it and checks
it against its closed form.

Only pure states are handled, as d x d matrices: (A (x) B)|psi+>
reshapes to A B^T / sqrt d, so |phi> is Phi = Psi^T and |m>, |M> are
(Psi^dag)^-1 and its square over sqrt d; no Kronecker product and no
density matrix is formed.  With V the reshaped measurement vector, the
(A, B') amplitudes are Phi conj(V) Phi.  MAX_DIM caps the d^2 amplitudes
of the output ket, so 2 <= d <= 16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import MAX_DIM, TRACE_TOL, check_local_dimension, condition_number, dagger, inverse, square

CONDITION_CAP = 1e2

# the pass rule of a concentration run: fidelity within FIDELITY_TOL of 1
# and probability in (0, 1 + PROBABILITY_SLACK]
FIDELITY_TOL = 1e-9
PROBABILITY_SLACK = 1e-12


@dataclass(frozen=True)
class ConcentrationResult:
    output: np.ndarray  # normalized (A, B') ket, d^2 amplitudes, A most significant
    probability: float
    fidelity_with_target: float


def check_schmidt_operator(psi_mat: np.ndarray) -> np.ndarray:
    """Psi as a finite d x d complex array, d >= 2, with Tr(Psi^dag Psi) = 1 within TRACE_TOL.

    Finiteness comes before any product, so NaN or inf never reaches one.
    """
    psi_mat = square(psi_mat)
    if not np.isfinite(psi_mat).all():
        raise ValueError("Psi has non-finite entries")
    check_local_dimension(psi_mat.shape[0])
    norm2 = float(np.vdot(psi_mat, psi_mat).real)
    if not abs(norm2 - 1.0) <= TRACE_TOL:
        raise ValueError(f"Tr(Psi^dag Psi) = {norm2!r}, expected 1 within {TRACE_TOL:.0e}")
    return psi_mat


def _checked_vector(psi_mat: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Psi validated, once, with ``measurement_vector``'s vector."""
    psi_mat = check_schmidt_operator(psi_mat)
    d = psi_mat.shape[0]
    if d**2 > MAX_DIM:
        raise ValueError(f"output state dimension {d}^2 exceeds MAX_DIM={MAX_DIM}")
    if kind not in ("m", "M"):
        raise ValueError(f"measurement kind must be 'm' or 'M', got {kind!r}")
    x = inverse(dagger(psi_mat))  # Psi^dag has Psi's singular values, so this gates Psi
    if kind == "M":
        x = x @ x  # (Psi^dag Psi^dag)^-1 without squaring cond(Psi) before the inversion
    return psi_mat, x.reshape(-1) / math.sqrt(d)


def measurement_vector(psi_mat: np.ndarray, kind: str) -> tuple[np.ndarray, float]:
    """Unnormalized measurement vector for the (B, A') pair, with its norm.

    The vector is X / sqrt d read row-major, X = (Psi^dag)^-1 for kind
    "m" and its square, (Psi^dag Psi^dag)^-1, for kind "M".  The guarded
    inversion is of Psi^dag alone, so its gates apply to Psi for both kinds.
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
    """Run the protocol on two copies of |phi> and report the A,B' ket."""
    psi_mat, vec = _checked_vector(psi_mat, kind)
    norm = float(np.linalg.norm(vec))
    d = psi_mat.shape[0]
    phi = psi_mat.T.reshape(-1)
    phi = phi / np.linalg.norm(phi)
    if norm < 1e-14:
        raise ValueError("degenerate measurement vector")
    out = _outer_amplitudes(phi.reshape(d, d), vec / norm)
    probability = float(np.vdot(out, out).real)
    if probability < 1e-14:
        raise ValueError(f"measurement outcome has probability {probability:.3e}")
    output = out / math.sqrt(probability)
    # <target|output>: the target is |phi> for kind "m" and |psi+> for kind "M"
    overlap = np.vdot(phi, output) if kind == "m" else np.trace(output.reshape(d, d)) / math.sqrt(d)
    return ConcentrationResult(
        output=output,
        probability=probability,
        fidelity_with_target=float(abs(overlap) ** 2),
    )


def probability_consistency(psi_mat: np.ndarray, kind: str) -> tuple[float, float, float]:
    """Check the unnormalized bookkeeping against its closed form.

    The reduced operator left on (A, B') by the unnormalized projector
    equals d^-2 times the unnormalized target projector, so its trace
    (the raw measurement weight) must equal d^-2 times the target's
    trace: d^-3 for kind "m", d^-2 for kind "M".  Returns
    (lhs, rhs, |lhs - rhs|) with lhs the raw weight, whose ratio
    1/(d^2 lhs) is d for kind "m"; the protocol is not run, so its
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
