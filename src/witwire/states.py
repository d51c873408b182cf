"""State catalog: fixed states and one-parameter families.

Pure states are complex vectors, density operators are matrices; both
follow the slot convention of the ppt module (leftmost ket label =
slot 0 = most significant index).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import check_hermitian, check_local_dimension, check_operator


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


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat.flags.writeable = False
    return mat


# built once and read-only; the families take copies of these as their ends
_PSI_PLUS = _frozen(projector(bell("psi_plus")))
_PSI_MINUS = _frozen(projector(bell("psi_minus")))
_W = _frozen(projector(w_state()))
_MIXED4 = _frozen(np.eye(4, dtype=complex) / 4.0)
_MIXED8 = _frozen(np.eye(8, dtype=complex) / 8.0)


@dataclass(frozen=True)
class StateFamily:
    """A named one-parameter family of density matrices, affine by construction.

    ``ends`` holds rho(0) and rho(1); the family is the segment
    rho(p) = p * rho(1) + (1 - p) * rho(0) for p in [0, 1], and calling
    it outside [0, 1] raises.  Being affine is what lets
    ``detection.sweep`` read a k-copy wiring off k+1 evaluations on any
    sub-range it is given and ``ppt.ppt_threshold`` take its root from
    one eigenproblem on the two ends.  Each end must have shape
    (prod(dims), prod(dims)) and be Hermitian; both are kept as read-only
    copies.
    """

    name: str
    dims: tuple[int, ...]
    param_name: str
    ends: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        # each end must be an operator on dims, or p * rho1 + (1 - p) * rho0 would
        # broadcast, and Hermitian, or a sweep would read its symmetric part
        what = f"family {self.name} end"
        rho0, rho1 = (check_operator(end, self.dims, what).copy() for end in self.ends)
        for end in (rho0, rho1):
            check_hermitian(end, what)
        object.__setattr__(self, "ends", (_frozen(rho0), _frozen(rho1)))

    def __call__(self, value: float) -> np.ndarray:
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"parameter {self.param_name}={value} outside [0.0, 1.0]")
        rho0, rho1 = self.ends
        return value * rho1 + (1.0 - value) * rho0


FAMILIES: dict[str, StateFamily] = {
    "werner_w": StateFamily("werner_w", (2, 2), "w", (_PSI_PLUS, _MIXED4)),
    "werner_a": StateFamily("werner_a", (2, 2), "a", (_MIXED4, _PSI_MINUS)),
    "noisy_w": StateFamily("noisy_w", (2, 2, 2), "c", (_W, _MIXED8)),
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
