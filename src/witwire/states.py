"""State catalog: fixed states and one-parameter families.

Pure states are complex vectors, density operators are matrices; both
follow the slot convention of the multipartite module (leftmost ket
label = slot 0 = most significant index).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import TRACE_TOL, check_local_dimension, square


def projector(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj())


def bell(which: str, d: int = 2) -> np.ndarray:
    """Maximally entangled pure states on two d-level systems.

    psi_plus is (1/sqrt d) sum_i |ii> for any d >= 2; psi_minus and
    phi_plus are the familiar qubit states (|00>-|11>)/sqrt2 and
    (|01>+|10>)/sqrt2 and exist here only for d=2.
    """
    check_local_dimension(d)
    if which == "psi_plus":
        v = np.zeros(d * d, dtype=complex)
        for i in range(d):
            v[i * d + i] = 1.0
        return v / np.sqrt(d)
    if d != 2:
        raise ValueError(f"state {which!r} is only defined for d=2, got d={d}")
    if which == "psi_minus":
        return np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / np.sqrt(2.0)
    if which == "phi_plus":
        return np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    raise ValueError(f"unknown Bell state {which!r}")


def ghz() -> np.ndarray:
    """(|000> + |111>)/sqrt2 on three qubits."""
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1.0
    return v / np.sqrt(2.0)


def w_state() -> np.ndarray:
    """(|001> + |010> + |100>)/sqrt3 on three qubits."""
    v = np.zeros(8, dtype=complex)
    v[1] = v[2] = v[4] = 1.0
    return v / np.sqrt(3.0)


def sigma_imaginarity() -> np.ndarray:
    """A two-qubit pure state whose density matrix has imaginary off-diagonals.

    sigma = (|01><01| + |10><10| + i|01><10| - i|10><01|) / 2; its real
    part alone is the separable mixture (|01><01| + |10><10|)/2, which
    is what makes it useful for separating witnesses with and without
    imaginary entries.
    """
    s = np.zeros((4, 4), dtype=complex)
    s[1, 1] = s[2, 2] = 0.5
    s[1, 2] = 0.5j
    s[2, 1] = -0.5j
    return s


def _check_param(value: float, lo: float, hi: float, name: str) -> float:
    value = float(value)
    if not lo <= value <= hi:
        raise ValueError(f"parameter {name}={value} outside [{lo}, {hi}]")
    return value


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat.flags.writeable = False
    return mat


# the families' constant terms, built once and shared read-only
_PSI_PLUS = _frozen(projector(bell("psi_plus")))
_PSI_MINUS = _frozen(projector(bell("psi_minus")))
_W = _frozen(projector(w_state()))
_EYE4 = _frozen(np.eye(4, dtype=complex))
_EYE8 = _frozen(np.eye(8, dtype=complex))


def werner_w(w: float) -> np.ndarray:
    """w*I/4 + (1-w)|psi_plus><psi_plus| for w in [0, 1]."""
    w = _check_param(w, 0.0, 1.0, "w")
    return w * _EYE4 / 4.0 + (1.0 - w) * _PSI_PLUS


def werner_a(a: float) -> np.ndarray:
    """a|psi_minus><psi_minus| + (1-a)*I/4 for a in [0, 1]."""
    a = _check_param(a, 0.0, 1.0, "a")
    return a * _PSI_MINUS + (1.0 - a) * _EYE4 / 4.0


def noisy_w(c: float) -> np.ndarray:
    """(1-c)|W><W| + c*I/8 for c in [0, 1]."""
    c = _check_param(c, 0.0, 1.0, "c")
    return (1.0 - c) * _W + c * _EYE8 / 8.0


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


@dataclass(frozen=True)
class StateFamily:
    """A named one-parameter family of density matrices.

    ``detection.sweep`` needs the generator to be affine in its
    parameter, rho(p) = rho0 + p * Delta, as every shipped family is:
    it evaluates a k-copy wiring at k+1 points only, and raises when
    the end values show the family is not affine.
    """

    name: str
    dims: tuple[int, ...]
    param_name: str
    param_range: tuple[float, float]
    generator: Callable[[float], np.ndarray] = field(repr=False)

    def __call__(self, value: float) -> np.ndarray:
        return self.generator(value)


FAMILIES: dict[str, StateFamily] = {
    "werner_w": StateFamily("werner_w", (2, 2), "w", (0.0, 1.0), werner_w),
    "werner_a": StateFamily("werner_a", (2, 2), "a", (0.0, 1.0), werner_a),
    "noisy_w": StateFamily("noisy_w", (2, 2, 2), "c", (0.0, 1.0), noisy_w),
}

# Fixed (parameterless) states addressable by name, as read-only density matrices.
FIXED_STATES: dict[str, tuple[np.ndarray, tuple[int, ...]]] = {
    "bell_psi_plus": (_PSI_PLUS, (2, 2)),
    "bell_psi_minus": (_PSI_MINUS, (2, 2)),
    "bell_phi_plus": (_frozen(projector(bell("phi_plus"))), (2, 2)),
    "sigma": (_frozen(sigma_imaginarity()), (2, 2)),
    "ghz": (_frozen(projector(ghz())), (2, 2, 2)),
    "w_state": (_W, (2, 2, 2)),
}
