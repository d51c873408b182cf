"""Multi-copy witness wirings: compilation, expectation values, thresholds.

A wiring takes k copies of an n-party state, lays the k*n subsystems
out copy-major (copy 0's parties first, then copy 1's, ...), and places
bipartite or multipartite witnesses on chosen slots, possibly across
copies.  Slots are addressed as (copy_index, party_index); unassigned
slots implicitly carry identity.  The expectation Tr(Wiring rho^(x)k)
can then change sign where every single-copy witness expectation stays
nonnegative, which is the whole point of the construction.

A ``WiringSpec`` is valid by construction, so ``compile_wiring`` only
builds, once, one block per copy where a witness ends: the product of
the witnesses whose last copy that is, on the placed slots of that copy
and the ones before it.
The evaluator it returns reduces rho onto each copy's placed parties
and sweeps the copies right to left, multiplying each copy's block in
and contracting the copy out at once, so no rho^(x)k, no D x D object
and no operator on all the placed slots (D_p x D_p, D_p <= D the
product of the placed dims) is formed unless one witness block needs
it.  MAX_DIM still caps D_p.  Every state family is affine in its
parameter, so along it the trace is a polynomial of degree at most
``copies``: a sweep evaluates the wiring at copies+1 Chebyshev nodes,
reads its grid off the interpolant, and its thresholds off the
interpolant's roots.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import witnesses as _witnesses
from .linalg import MAX_DIM, check_hermitian, checked_integer
from .states import StateFamily

IMAG_TOL = 1e-9


@dataclass(frozen=True)
class Assignment:
    """One witness placed on an ordered tuple of (copy, party) slots.

    ``witness`` is either a catalog name (with optional ``param`` for
    the tunable entries) or a raw matrix.
    """

    witness: str | np.ndarray
    slots: tuple[tuple[int, int], ...]
    param: float | None = None

    def resolve(self, local_dims: list[int]) -> np.ndarray:
        if isinstance(self.witness, str):
            mat = _witnesses.catalog(self.witness, b=self.param).matrix
        else:
            if self.param is not None:
                raise ValueError("param is only meaningful for named witnesses")
            mat = np.asarray(self.witness, dtype=complex)
        want = math.prod(local_dims)
        if mat.shape != (want, want):
            raise ValueError(
                f"witness on slots {self.slots} has shape {mat.shape}, "
                f"expected {(want, want)} for local dims {local_dims}"
            )
        if not isinstance(self.witness, str):
            check_hermitian(mat, f"witness on slots {self.slots}")  # a raw matrix is outside input
        return mat


_SEQUENCE = (list, tuple, np.ndarray)


@dataclass(frozen=True)
class WiringSpec:
    """Witnesses on (copy, party) slots of ``copies`` copies of a ``base_dims`` system.

    Valid by construction, ``dataclasses.replace`` included: integer
    copies, dims and slots (NumPy's too, never a float or a bool), copies
    and dims >= 1, and in-range (copy, party) pairs, at least one per
    assignment and no slot twice.  A refusal names its field, as
    ``assignments[1].slots[0]``; the fields are stored as ints and tuples.
    """

    copies: int
    base_dims: tuple[int, ...]
    assignments: tuple[Assignment, ...]

    def __post_init__(self) -> None:
        copies = checked_integer(self.copies, "copies")
        if copies < 1:
            raise ValueError(f"copies: expected at least 1, got {copies}")
        if not isinstance(self.base_dims, _SEQUENCE) or not len(self.base_dims):
            raise ValueError(f"base_dims: expected a non-empty list of integers, got {self.base_dims!r}")
        dims = tuple(checked_integer(d, f"base_dims[{i}]") for i, d in enumerate(self.base_dims))
        if min(dims) < 1:
            raise ValueError(f"base_dims: expected dims >= 1, got {list(dims)}")
        n, seen, built = len(dims), set(), []
        for j, asg in enumerate(self.assignments):
            where, slots = f"assignments[{j}].slots", asg.slots
            if not isinstance(slots, _SEQUENCE) or any(not isinstance(s, _SEQUENCE) or len(s) != 2 for s in slots):
                raise ValueError(f"{where}: expected a list of [copy, party] pairs")
            if not len(slots):
                raise ValueError(f"{where}: a witness needs at least one slot")
            pairs = tuple(tuple(checked_integer(v, f"{where}[{i}]") for v in s) for i, s in enumerate(slots))
            for i, (copy, party) in enumerate(pairs):
                if not (0 <= copy < copies and 0 <= party < n):
                    raise ValueError(f"{where}[{i}]: slot ({copy}, {party}) out of range: {copies} copies, {n} parties")
                if (copy, party) in seen:
                    raise ValueError(f"{where}[{i}]: slot ({copy}, {party}) assigned more than once")
                seen.add((copy, party))
            built.append(Assignment(asg.witness, pairs, asg.param))
        object.__setattr__(self, "copies", copies)
        object.__setattr__(self, "base_dims", dims)
        object.__setattr__(self, "assignments", tuple(built))


def wiring(copies: int, base_dims: Sequence[int], assignments: Sequence[tuple]) -> WiringSpec:
    """Convenience constructor from (witness, slots[, param]) tuples.

    Each entry must have two or three items, as in a scenario file;
    ``WiringSpec`` checks the rest.
    """
    for j, entry in enumerate(assignments):
        if len(entry) not in (2, 3):
            raise ValueError(f"assignments[{j}]: expected (witness, slots[, param]), got {len(entry)} items")
    return WiringSpec(copies, base_dims, tuple(Assignment(*entry) for entry in assignments))


def _operator_product(
    factors: list[tuple[np.ndarray, list[int]]],
    dims: list[int],
    row_axes: list[int],
    col_axes: list[int],
) -> np.ndarray:
    """Product of operators on disjoint slots, built straight into a chosen axis order.

    ``factors``, never empty, pairs each matrix with the slots it acts
    on, in its own slot order.  Slot s has dimension dims[s], and its
    row and column axes land at positions row_axes[s] and col_axes[s] of
    the 2 * len(dims)-axis result; a slot no factor acts on keeps size-1
    axes there, to broadcast against.  Each factor is broadcast over
    the other axes and multiplied in, so no transposed copy of the
    result is ever made.
    """
    m = 2 * len(dims)
    op = None
    for mat, slots in factors:
        local = [dims[s] for s in slots]
        axes = [row_axes[s] for s in slots] + [col_axes[s] for s in slots]
        shape = [1] * m
        for s in slots:
            shape[row_axes[s]] = shape[col_axes[s]] = dims[s]
        # sorted in Python: a first np.argsort call maps in numpy's sort kernels, 0.4 MiB of RSS
        tensor = mat.reshape(local * 2).transpose(sorted(range(len(axes)), key=axes.__getitem__))
        tensor = tensor.reshape(shape)
        op = tensor.copy() if op is None else np.multiply(op, tensor, order="C")
    return op


def compile_wiring(spec: WiringSpec) -> Callable[[np.ndarray], float]:
    """Build the wiring's witness blocks once; return ``rho -> Tr(W rho^(x)copies)``.

    Only the placed slots get axes, taken in copy-major order, each
    copy's rows before its columns, copy by copy.  Each witness is
    multiplied into the block of the last copy it touches, which spans
    the placed slots of that copy and of every copy before it, with
    size-1 axes where the block's witnesses do not act.  A copy where
    no witness ends has no block.  MAX_DIM still caps D_p, the product
    of the placed dims, though no block need reach D_p x D_p.

    The evaluator takes one copy rho of the base system and reduces it
    onto each copy's placed parties; a copy with none placed gives the
    scalar Tr rho.  It then walks the copies from the last to the first:
    it multiplies the copy's block into the pending tensor and contracts
    the copy out with one matrix-vector product against its reduced
    state, so the largest object is set by the witnesses that straddle
    the current copy, and rho^(x)copies is never formed.  The value must
    come out finite and real (Hermitian observable against a Hermitian
    state): a value that overflows or is NaN raises, and so does an
    imaginary residue above 1e-9, because silently discarding it would
    mask a mis-assembled wiring.
    """
    base_dims = list(spec.base_dims)
    base_total = math.prod(base_dims)
    n = len(base_dims)
    k = spec.copies
    flats = [[c * n + p for c, p in asg.slots] for asg in spec.assignments]
    placed = sorted(f for fs in flats for f in fs)
    position = {f: i for i, f in enumerate(placed)}
    dims = [base_dims[f % n] for f in placed]
    if math.prod(dims) > MAX_DIM:
        raise ValueError(f"placed-slot dimension {math.prod(dims)} exceeds MAX_DIM={MAX_DIM}")
    ending: list[list] = [[] for _ in range(k)]  # the witnesses whose last copy is c
    for asg, fs in zip(spec.assignments, flats):
        at = [position[f] for f in fs]
        ending[max(fs) // n].append((asg.resolve([dims[i] for i in at]), at))
    # copy c's slots q = start..stop-1 put their rows at start + q and
    # their columns at stop + q, so copies 0..c fill the first 2 * stop
    # axes, and the copies above c are gone by the time c's block comes in
    parties = [tuple(f % n for f in placed if f // n == c) for c in range(k)]
    row_axes, col_axes, stops = [], [], []
    for ps in parties:
        start, stop = len(row_axes), len(row_axes) + len(ps)
        stops.append(stop)
        row_axes += [start + q for q in range(start, stop)]
        col_axes += [stop + q for q in range(start, stop)]
    # pending[c] is the shape the pending tensor takes to meet copy c's
    # block: (1,) for the first block, which at most meets a factor
    # Tr rho per empty copy above it
    blocks: list[np.ndarray | None] = [None] * k
    pending: list[tuple[int, ...] | None] = [None] * k
    shape = None
    for c in range(k - 1, -1, -1):
        if ending[c]:
            stop = stops[c]
            block = _operator_product(ending[c], dims[:stop], row_axes[:stop], col_axes[:stop])
            pending[c] = (1,) if shape is None else shape[: 2 * stop]
            shape = block.shape if shape is None else tuple(map(max, pending[c], block.shape))
            blocks[c] = block
    # rho's tensor has row labels 0..n-1 and column labels n..2n-1; an
    # unplaced party's column takes its row label, which traces it out,
    # and the output lists the columns first, so each reduced state
    # comes out transposed, as Tr(W sigma) = sum W[r, c] sigma[c, r] needs
    reductions = {
        ps: (
            list(range(n)) + [n + i if i in ps else i for i in range(n)],
            [n + i for i in ps] + list(ps),
        )
        for ps in set(parties)
    }

    def evaluate(rho: np.ndarray) -> float:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (base_total, base_total):
            raise ValueError(
                f"state has shape {rho.shape}, expected {(base_total, base_total)} "
                f"for base dims {base_dims}"
            )
        if not np.isfinite(rho).all():
            raise ValueError("state has non-finite entries")
        tensor = rho.reshape(base_dims * 2)
        reduced = {
            ps: np.einsum(tensor, labels, out).reshape(-1)
            for ps, (labels, out) in reductions.items()
        }
        x = None
        for c in range(k - 1, -1, -1):
            if blocks[c] is not None:
                x = blocks[c] if x is None else x.reshape(pending[c]) * blocks[c]
            sigma = reduced[parties[c]]
            x = sigma if x is None else x.reshape(-1, sigma.size) @ sigma
        value = complex(x[0])
        if not abs(value.real) < math.inf:  # negated, so NaN fails too
            raise ValueError(f"expectation value {value.real} is not finite")
        if not abs(value.imag) <= IMAG_TOL:
            raise ValueError(
                f"expectation has imaginary residue {value.imag:.3e} above {IMAG_TOL:.0e}"
            )
        return value.real

    return evaluate


def expectation(spec: WiringSpec, rho: np.ndarray) -> float:
    """Tr(Wiring rho^(x)copies) for one copy rho of the base system."""
    return compile_wiring(spec)(rho)


# ---------------------------------------------------------------------------
# Threshold location and parameter sweeps.

# Sweep roots this close (a fraction of the range) merge: rounding splits m-fold ones by eps**(1/m).
ROOT_MERGE_TOL = 1e-4


@dataclass(frozen=True)
class DetectionReport:
    param_name: str
    params: tuple[float, ...]
    values: tuple[float, ...]
    thresholds: tuple[float, ...]


def _chebyshev_interpolant(
    f: Callable[[float], float], lo: float, hi: float, degree: int
) -> tuple[list[float], list[float], float]:
    """Newton form of the degree-``degree`` polynomial through f at Chebyshev nodes.

    The nodes are the Chebyshev points of the first kind on [lo, hi], not
    the endpoints.  Returns the nodes, the coefficients and max |f(node)|.
    """
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = [
        mid + half * math.cos((2 * j + 1) * math.pi / (2 * degree + 2))
        for j in range(degree + 1)
    ]
    if len(set(nodes)) <= degree:
        raise ValueError(
            f"range [{lo!r}, {hi!r}] is too narrow for {degree + 1} distinct interpolation nodes"
        )
    coeffs = [f(x) for x in nodes]
    scale = max(abs(c) for c in coeffs)
    for j in range(1, degree + 1):
        for i in range(degree, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (nodes[i] - nodes[i - j])
    return nodes, coeffs, scale


def _newton_value(nodes: list[float], coeffs: list[float], p):
    """The Newton-form polynomial and its derivative at p, a float or an array."""
    v, dv = coeffs[-1], 0.0
    for i in range(len(coeffs) - 2, -1, -1):
        v, dv = coeffs[i] + (p - nodes[i]) * v, v + (p - nodes[i]) * dv
    return v, dv


def _sign_changes(
    nodes: list[float], coeffs: list[float], lo: float, hi: float, floor: float
) -> list[float]:
    """Ascending real roots of odd multiplicity in [lo, hi] of the Newton-form polynomial.

    Leading terms no larger than ``floor`` on the range are dropped as
    rounding noise.  The roots are the eigenvalues of the companion matrix
    of the rest (nodes on the diagonal, ones below, -c_i/c_top added to the
    last column).  A simple root gets one Newton step; a merged one (see
    ROOT_MERGE_TOL) is the mean of its eigenvalues.
    """
    width, top = hi - lo, len(coeffs) - 1
    while top > 0 and abs(coeffs[top]) * width**top <= floor:
        top -= 1
    if top == 0:
        return []
    if top == 1:
        eigenvalues = [nodes[0] - coeffs[0] / coeffs[1]]
    elif top == 2:  # closed form for [[a, b], [1, d]]: a cold LAPACK call takes about 0.15 ms
        a, b, d = nodes[0], -coeffs[0] / coeffs[2], nodes[1] - coeffs[1] / coeffs[2]
        eigenvalues = [0.5 * (a + d) + s * cmath.sqrt(0.25 * (a - d) ** 2 + b) for s in (-1, 1)]
    else:
        companion = np.diag(nodes[:top]) + np.eye(top, k=-1)
        companion[:, -1] -= np.asarray(coeffs[:top]) / coeffs[top]
        eigenvalues = np.linalg.eigvals(companion)
    merge = ROOT_MERGE_TOL * width
    near = sorted(float(z.real) for z in eigenvalues if abs(z.imag) <= merge)
    cuts = [i for i in range(1, len(near)) if near[i] - near[i - 1] > merge]
    roots = []
    for start, stop in zip([0] + cuts, cuts + [len(near)]):
        if (stop - start) % 2 == 0:
            continue
        r = sum(near[start:stop]) / (stop - start)
        if stop - start == 1:
            v, dv = _newton_value(nodes, coeffs, r)
            r -= v / dv
        if lo <= r <= hi:
            roots.append(r)
    return roots


def sweep(spec: WiringSpec, family: StateFamily, grid_points: int = 201) -> DetectionReport:
    """Evaluate the wiring on a uniform parameter grid and locate its sign changes.

    Every family is affine in its parameter, so Tr(Wiring rho(p)^(x)k)
    is a polynomial of degree at most k = ``spec.copies`` in p, evaluated
    once at each of k+1 Chebyshev nodes; a non-finite value raises, as in
    the evaluator.  The grid is read off the polynomial; a zero-width
    range takes one direct evaluation, and a range too narrow for k+1
    distinct nodes raises.  The thresholds are its real roots of odd
    multiplicity in the range, from ``_sign_changes`` with the floor
    1e-12 * (1 + max|node value|), so a tangent zero is not one and
    ``grid_points`` does not change them.
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    if tuple(family.dims) != tuple(spec.base_dims):
        raise ValueError(
            f"family {family.name} has dims {family.dims}, wiring expects {spec.base_dims}"
        )
    lo, hi = family.param_range
    params = np.linspace(lo, hi, grid_points)
    evaluate = compile_wiring(spec)
    if lo == hi:
        values = [evaluate(family(lo))] * grid_points
        roots = []
    else:
        nodes, coeffs, scale = _chebyshev_interpolant(
            lambda p: evaluate(family(p)), lo, hi, spec.copies
        )
        floor = 1e-12 * (1.0 + scale)
        values = _newton_value(nodes, coeffs, params)[0].tolist()
        roots = _sign_changes(nodes, coeffs, lo, hi, floor)
    return DetectionReport(
        param_name=family.param_name,
        params=tuple(params.tolist()),
        values=tuple(values),
        thresholds=tuple(roots),
    )


def ordering_matrix(
    witness_names: Sequence[str],
    family: StateFamily,
    param: float | None,
    copies: int,
    base_dims: Sequence[int],
    orderings: dict[str, Sequence[Sequence[tuple[int, int]]]],
) -> dict[tuple, float]:
    """Exhaustive expectation table over witness combinations and orderings.

    ``orderings`` maps a label to a list of slot groups, one group per
    witness position; every |witness_names|^groups combination is
    evaluated for every ordering.  Keys of the returned table are
    (witness_combo, ordering_label).
    """
    if param is None:
        raise ValueError(f"family {family.name} needs a parameter value")
    rho = family(param)
    table: dict[tuple, float] = {}
    for label, groups in orderings.items():
        for combo in itertools.product(witness_names, repeat=len(groups)):
            table[(combo, label)] = expectation(wiring(copies, base_dims, list(zip(combo, groups))), rho)
    return table
