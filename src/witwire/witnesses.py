"""Witness and positive-operator catalog, plus empirical validity checks.

A witness here is a Hermitian operator with at least one negative
eigenvalue whose expectation is nonnegative on every product state.
The sampling check below is Monte Carlo, so it gives an upper bound on
the separable minimum, not a proof; it is meant to catch sign and
normalization mistakes, and the analytic separability statements are
covered by the fixed expected values in the test suite.

The samples are fixed for each seed: chunks of 10000, chunk 0 drawn
from ``default_rng(seed)`` and chunk i >= 1 from its own stream
``default_rng(SeedSequence(seed, spawn_key=(i,)))``, and in each chunk
one (2, count, d) block of standard normals per party, in party order,
real parts then imaginary parts of the unnormalized local vectors g.
The chunks are independent, so they run on every CPU the process may
use, and the minimum does not depend on how many.  A sample is never
formed as a product vector: the operator is written once as a real
tensor over the Hermitian basis of each party (|i><i|, then
|i><j| + |j><i| and i|i><j| - i|j><i| for i < j), each g g^dag as its
d^2 real coordinates in that basis, and the expectation is their
contraction divided by the product of the |g|^2.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .linalg import EIG_TOL, check_hermitian, check_operator, checked_integer, min_eigenvalue
from .ppt import partial_transpose
from .states import bell, projector, w_state

PRODUCT_FLOOR = -1e-9

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


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


def canonical_name(name: str) -> str:
    """The catalog's spelling of ``name``, matched case-insensitively after stripping."""
    canon = _BY_LOWER.get(str(name).strip().lower())
    if canon is None:
        raise ValueError(f"unknown catalog name {name!r}; known: {', '.join(_CANONICAL_NAMES)}")
    return canon


def catalog(name: str, b: float | None = None) -> WitnessSpec:
    """Look up a catalog operator by name.

    P_b takes a finite tuning parameter b >= 1 (b=1 gives P/4 entrywise) and
    is built on each call; every other name rejects a parameter and
    returns its shared read-only entry.  W3 is fixed at the trace-2
    normalization 2|psi_plus><psi_plus|^T2 -- a positive rescaling
    never changes which states a witness detects, so nothing downstream
    depends on that factor.
    """
    canon = canonical_name(name)
    if canon != "P_b":
        if b is not None:
            raise ValueError(f"{canon} takes no parameter, got b={b}")
        return _FIXED[canon]
    if b is None:
        raise ValueError("P_b requires the parameter b")
    b = float(b)
    if not 1.0 <= b < math.inf:  # negated, so NaN fails too
        raise ValueError(f"P_b is positive semidefinite only for finite b >= 1, got b={b}")
    mat = _P_CORE.copy()
    mat[1, 1] = mat[2, 2] = 2.0 * b
    mat[1, 2] = mat[2, 1] = -2.0 * b
    return WitnessSpec("P_b", mat / (4.0 * b), (2, 2), "positive_semidefinite")


def catalog_names() -> tuple[str, ...]:
    return _CANONICAL_NAMES


# The chunk size decides which draws go to which party and which stream
# each chunk reads, so a new value would change the sampled states of
# every call of more than one chunk.
_CHUNK = 10000


def _hermitian_basis(d: int) -> np.ndarray:
    """Real-coordinate basis of the Hermitian d x d matrices, stacked as (d*d, d, d).

    |i><i| for each i, then |i><j| + |j><i| for each i < j, then
    i|i><j| - i|j><i| for each i < j.  The coordinates of g g^dag in it
    are |g_i|^2, Re g_i conj(g_j) and Im g_i conj(g_j).
    """
    pairs = list(itertools.combinations(range(d), 2))
    basis = np.zeros((d * d, d, d), dtype=complex)
    for i in range(d):
        basis[i, i, i] = 1.0
    for k, (i, j) in enumerate(pairs, start=d):
        basis[k, i, j] = basis[k, j, i] = 1.0
        basis[k + len(pairs), i, j] = 1j
        basis[k + len(pairs), j, i] = -1j
    return basis


def _coordinate_tensor(matrix: np.ndarray, dims: list[int]) -> np.ndarray:
    """T[mu_1, ..., mu_n] = Tr(matrix E_mu_1 (x) ... (x) E_mu_n), shape (d_1^2, ..., d_n^2).

    Real for a Hermitian matrix.  Tr(A E) = sum A[r, c] conj(E[r, c])
    for Hermitian E, so each party's row and column axes contract
    against the conjugated basis, first party first.
    """
    n = len(dims)
    t = matrix.reshape(dims * 2)
    for p, d in enumerate(dims):
        # party p's row axis is now first and its column axis n - p
        t = np.tensordot(t, _hermitian_basis(d).conj(), axes=([0, n - p], [1, 2]))
    return np.ascontiguousarray(t.real)


def _local_coordinates(parts: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write the coordinates of g g^dag, g = x + iy, for every sample of one party's draw.

    ``parts`` is the (2, count, d) draw (x, then y); ``out`` is
    (d*d, count), one row per basis element of ``_hermitian_basis``;
    ``scratch`` is (d, count).  The first d rows sum to |g|^2.
    """
    d = parts.shape[2]
    x, y = parts.transpose(0, 2, 1)
    np.multiply(x, x, out=out[:d])
    np.multiply(y, y, out=scratch)
    out[:d] += scratch
    pairs = list(itertools.combinations(range(d), 2))
    tmp = scratch[0]
    for k, (i, j) in enumerate(pairs, start=d):
        np.multiply(x[i], x[j], out=out[k])
        out[k] += np.multiply(y[i], y[j], out=tmp)
        np.multiply(y[i], x[j], out=out[k + len(pairs)])
        out[k + len(pairs)] -= np.multiply(x[i], y[j], out=tmp)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _residue_minimum(t: np.ndarray, dims: list[int], samples: int, seed: int, first: int, step: int) -> float:
    """Minimum over the chunks first, first + step, ...: one worker's share, with its own buffers."""
    size = min(samples, _CHUNK)
    coords = [np.empty((d * d, size)) for d in dims]
    scratch = np.empty((max(dims), size))
    best = np.inf
    for i in range(first, -(-samples // _CHUNK), step):
        count = min(samples - i * _CHUNK, _CHUNK)
        rng = np.random.default_rng(seed if i == 0 else np.random.SeedSequence(seed, spawn_key=(i,)))
        chunk = [c[:, :count] for c in coords]
        for d, c in zip(dims, chunk):
            _local_coordinates(rng.standard_normal((2, count, d)), c, scratch[:d, :count])
        vals = t @ chunk[-1]
        norms = chunk[-1][: dims[-1]].sum(axis=0)
        for d, c in zip(dims[-2::-1], chunk[-2::-1]):
            vals = np.einsum("abk,bk->ak", vals.reshape(-1, d * d, count), c)
            norms *= c[:d].sum(axis=0)
        best = min(best, float((vals[0] / norms).min()))
    return best


def min_product_expectation(
    matrix: np.ndarray,
    dims: list[int],
    samples: int,
    seed: int,
) -> float:
    """Minimum of <prod|matrix|prod> over sampled pure product states.

    An upper bound on the true separable minimum (sampling can only
    miss the minimizer, never undershoot it).  Each local state is
    g = x + iy, x and y vectors of standard normals, normalized: the
    Haar measure on local pure states; ``seed`` (an integer >= 0)
    fixes the chunked streams described in the module docstring, so
    up to 10000 samples come from ``default_rng(seed)`` alone.  A
    sample's value is ``_coordinate_tensor(matrix)`` contracted with
    each party's real coordinates of g g^dag (one GEMM for the last
    party, a multiply-and-sum for each other), divided once by the
    product of the |g|^2.  The calling thread takes chunks 0, w, 2w, ...
    and each of w - 1 helper threads another residue class, w the
    smaller of the chunk count and the usable CPUs; all are joined
    before return, and the minimum of minima does not depend on w.
    The matrix must be finite, of shape (prod(dims), prod(dims)) and
    Hermitian within HERMITICITY_TOL.
    """
    samples = checked_integer(samples, "samples")
    seed = checked_integer(seed, "seed")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    dims = [checked_integer(d, f"dims[{i}]") for i, d in enumerate(dims)]
    if not dims or min(dims) < 1:
        raise ValueError(f"dims must be a nonempty list of positive dimensions, got {dims}")
    matrix = check_operator(matrix, dims, "matrix")
    check_hermitian(matrix, "matrix")
    t = _coordinate_tensor(matrix, dims).reshape(-1, dims[-1] ** 2)
    workers = min(-(-samples // _CHUNK), _usable_cpus())
    lows = [np.inf] * workers
    errors = []

    def take(first: int) -> None:
        try:
            lows[first] = _residue_minimum(t, dims, samples, seed, first, workers)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    helpers = []
    try:
        for k in range(1, workers):
            helper = threading.Thread(target=take, args=(k,))
            helper.start()
            helpers.append(helper)
        take(0)
    finally:
        for h in helpers:
            h.join()
    if errors:
        raise errors[0]
    return min(lows)


def validate_witness(spec: WitnessSpec, samples: int, seed: int) -> ValidationReport:
    """Empirical validity check of a catalog entry.

    For kind "witness": requires an eigenvalue below -EIG_TOL (-1e-9) and
    a sampled product-state minimum not below -1e-9.  For kind
    "positive_semidefinite": requires no eigenvalue below -EIG_TOL.
    """
    low = min_eigenvalue(spec.matrix)
    floor = min_product_expectation(spec.matrix, list(spec.dims), samples, seed)
    if spec.kind == "positive_semidefinite":
        passed = low >= -EIG_TOL
    else:
        passed = low < -EIG_TOL and floor >= PRODUCT_FLOOR
    return ValidationReport(
        name=spec.name,
        kind=spec.kind,
        min_eigenvalue=low,
        min_product_expectation=floor,
        samples=samples,
        seed=seed,
        passed=passed,
    )
