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
of the output ket, so 2 <= d <= 16, also before ``random_schmidt_operator``'s
first draw.

Psi is validated, gated (condition estimate below CONDITION_LIMIT, then
residual max|Psi^dag X - I| <= 1e-9 d) and Psi^dag inverted in one
place, ``_gated``, an ``lru_cache`` of size 1 keyed by (shape, bytes,
kind): a back-to-back call on the same (Psi, kind), such as
``concentrate`` and then ``probability_consistency``, reuses the one
guarded inverse, and a call that raises keeps nothing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import MAX_DIM, TRACE_TOL, check_local_dimension, checked_integer, dagger, square

# Refuse to invert Psi^dag at this condition estimate or worse.
CONDITION_LIMIT = 1e12
# random_schmidt_operator rejects draws above this condition number.
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


def _check_output_dimension(d: int) -> None:
    """Raise unless the d^2 amplitudes of the output ket fit in MAX_DIM."""
    if d**2 > MAX_DIM:
        raise ValueError(f"output state dimension {d}^2 exceeds MAX_DIM={MAX_DIM}")


def _condition_number(a: np.ndarray) -> float:
    """``np.linalg.cond(a)`` without its wrapper: the extreme singular values' ratio, inf if the smallest is 0."""
    s = np.linalg.svd(a, compute_uv=False).tolist()  # float division: an overflow is inf, silently
    return s[0] / s[-1] if s[-1] else math.inf


@functools.lru_cache(maxsize=1)
def _gated(shape: tuple[int, int], data: bytes, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The Psi of ``data`` validated, gated and inverted, with ``measurement_vector``'s vector.

    Keyed by the shape and bytes of ``square(Psi)`` and the kind, and
    kept for the last key only: one entry covers every caller's
    back-to-back pair on one Psi, and a call that raises keeps nothing.
    The kept psi is read-only, made from the bytes, and the kept vector
    is never handed out, so no caller can write into either.
    """
    psi_mat = check_schmidt_operator(np.frombuffer(data, dtype=complex).reshape(shape))
    d = psi_mat.shape[0]
    _check_output_dimension(d)
    if kind not in ("m", "M"):
        raise ValueError(f"measurement kind must be 'm' or 'M', got {kind!r}")
    psi_dag = dagger(psi_mat)  # Psi^dag has Psi's singular values, so these gates gate Psi
    try:
        cond = _condition_number(psi_dag)
    except np.linalg.LinAlgError:
        cond = math.nan
    if not cond < CONDITION_LIMIT:  # negated, so NaN fails too
        raise ValueError(
            f"matrix is singular or ill-conditioned: condition estimate "
            f"{cond:.3e} (limit {CONDITION_LIMIT:.0e})"
        )
    x = np.linalg.inv(psi_dag)
    residual = psi_dag @ x
    residual.flat[:: d + 1] -= 1  # Psi^dag X - I, without forming I
    residual = abs(residual).max()
    if not residual <= 1e-9 * d:  # negated, so a NaN residual fails too
        raise ValueError(f"inversion residual {residual:.3e} exceeds {1e-9 * d:.3e}")
    if kind == "M":
        x = x @ x  # (Psi^dag Psi^dag)^-1 without squaring cond(Psi) before the inversion
    return psi_mat, x.reshape(-1) / math.sqrt(d)


def _checked_vector(psi_mat: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """``_gated`` on ``square(Psi)``; a kind that is not a string is refused before the keyed call."""
    psi_mat = square(psi_mat)
    if not isinstance(kind, str):
        raise ValueError(f"measurement kind must be 'm' or 'M', got {kind!r}")
    return _gated(psi_mat.shape, psi_mat.tobytes(), kind)


def _norm(vec: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex vector, by its own arithmetic: sqrt(re.re + im.im)."""
    re, im = vec.real, vec.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def measurement_vector(psi_mat: np.ndarray, kind: str) -> tuple[np.ndarray, float]:
    """Unnormalized measurement vector for the (B, A') pair, with its norm.

    The vector is X / sqrt d read row-major, X = (Psi^dag)^-1 for kind
    "m" and its square, (Psi^dag Psi^dag)^-1, for kind "M".  The guarded
    inversion is of Psi^dag alone, so its gates apply to Psi for both kinds.
    """
    vec = _checked_vector(psi_mat, kind)[1].copy()
    return vec, _norm(vec)


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
    norm = _norm(vec)
    d = psi_mat.shape[0]
    phi = psi_mat.T.reshape(-1)
    phi = phi / _norm(phi)
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
    inverse keeps its roundoff far below the 1e-9 gates.  A d that is
    not an integer or that ``concentrate`` would refuse is refused before any draw.
    """
    d = checked_integer(d, "d")
    check_local_dimension(d)
    _check_output_dimension(d)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    while True:
        mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if _condition_number(mat) > CONDITION_CAP:
            continue
        return mat / np.sqrt(np.trace(dagger(mat) @ mat).real)
