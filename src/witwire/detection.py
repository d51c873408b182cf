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
and the ones before it.  The walk over the slot layout, with its
MAX_DIM refusal, is planned in one pass per layout into flat int
tuples (per witness its last copy, dims, axis order and broadcast
shape; per copy its pending shape and reduction) and kept, for up to
PLAN_CACHE_SIZE layouts, so a compile on a kept layout only resolves
its witnesses and multiplies each, in assignment order, into the block
of its last copy.
The evaluator it returns reduces rho onto each copy's placed parties
and sweeps the copies right to left, multiplying each copy's block in
and contracting the copy out at once, so no rho^(x)k, no D x D object
and no operator on all the placed slots (D_p x D_p, D_p <= D the
product of the placed dims) is formed unless one witness block needs
it.  MAX_DIM still caps D_p.  Every state family is affine in its
parameter, so along it the trace is a polynomial of degree at most
``copies``: a sweep over its bounds in [0, 1] evaluates the wiring at
copies+1 Chebyshev nodes, reads its grid off the interpolant, and its
thresholds off the interpolant's roots where its sign changes.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import witnesses as _witnesses
from .linalg import MAX_DIM, check_hermitian, checked_integer, is_integer
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

    def resolve(self, local_dims: Sequence[int]) -> np.ndarray:
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
                f"expected {(want, want)} for local dims {list(local_dims)}"
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
        # field names are formatted only on refusal: a valid spec formats none
        if all(map(is_integer, self.base_dims)):
            dims = tuple(map(int, self.base_dims))
        else:  # refuses the first entry that is not an integer, by name
            dims = tuple(checked_integer(d, f"base_dims[{i}]") for i, d in enumerate(self.base_dims))
        if min(dims) < 1:
            raise ValueError(f"base_dims: expected dims >= 1, got {list(dims)}")
        n, seen, built = len(dims), set(), []
        for j, asg in enumerate(self.assignments):
            slots = asg.slots
            if not isinstance(slots, _SEQUENCE) or any(not isinstance(s, _SEQUENCE) or len(s) != 2 for s in slots):
                raise ValueError(f"assignments[{j}].slots: expected a list of [copy, party] pairs")
            if not len(slots):
                raise ValueError(f"assignments[{j}].slots: a witness needs at least one slot")
            if all(is_integer(v) for s in slots for v in s):
                pairs = tuple((int(copy), int(party)) for copy, party in slots)
            else:
                pairs = tuple(
                    tuple(checked_integer(v, f"assignments[{j}].slots[{i}]") for v in s) for i, s in enumerate(slots)
                )
            for i, (copy, party) in enumerate(pairs):
                if not (0 <= copy < copies and 0 <= party < n):
                    raise ValueError(
                        f"assignments[{j}].slots[{i}]: slot ({copy}, {party}) out of range: {copies} copies, {n} parties"
                    )
                if (copy, party) in seen:
                    raise ValueError(f"assignments[{j}].slots[{i}]: slot ({copy}, {party}) assigned more than once")
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


# Layouts whose plans are kept.  A wirings scan, an ordering table or a
# P_b scan places witnesses on a few slot layouts again and again.
PLAN_CACHE_SIZE = 256


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(copies: int, base_dims: tuple[int, ...], layout: tuple[tuple[tuple[int, int], ...], ...]) -> tuple:
    """The plan of ``copies`` copies of ``base_dims`` with witnesses on ``layout``'s slot groups.

    Keyed by the int tuples a ``WiringSpec`` stores, and made of ints
    and tuples only: ``(witnesses, steps, reductions)``.  Per witness,
    in assignment order, ``(last, local_dims, perm, shape)``: the last
    copy it touches, whose block it joins; its dims; the transpose of
    its (rows, columns) tensor into the block's axis order; and that
    tensor's broadcast shape, size 1 where it does not act.  Per copy,
    ``(pending, reduction)``: the shape the pending tensor takes to meet
    the copy's block (empty where no witness ends), and the index of the
    copy's entry in ``reductions``, one ``(einsum labels, out)`` per
    distinct set of placed parties.  A layout over MAX_DIM raises, and
    raises again on the next call: ``lru_cache`` keeps no exception.
    """
    per_copy: list[list[int]] = [[] for _ in range(copies)]
    for c, p in sorted(itertools.chain.from_iterable(layout)):
        per_copy[c].append(p)
    # placed slot q of copy c, whose placed slots are start..stop-1, puts
    # its row axis at start + q and its column axis at stop + q, so copies
    # 0..c fill the first 2 * stop axes, and the copies above c are gone
    # by the time c's block comes in
    slot = {}  # (copy, party) -> (row axis, column axis, dim)
    stops = []
    q = 0
    for c, ps in enumerate(per_copy):
        start, stop = q, q + len(ps)
        stops.append(stop)
        for p in ps:
            slot[c, p] = (start + q, stop + q, base_dims[p])
            q += 1
    total = math.prod(d for _, _, d in slot.values())
    if total > MAX_DIM:
        raise ValueError(f"placed-slot dimension {total} exceeds MAX_DIM={MAX_DIM}")
    reach = [(1, -1)] * (2 * q)  # per axis: its dim and the last copy of the witness acting on it
    witnesses = []
    for slots in layout:
        last = max(slots)[0]
        rows, cols, local_dims = zip(*map(slot.__getitem__, slots))
        shape = [1] * (2 * stops[last])
        for r, col, d in zip(rows, cols, local_dims):
            shape[r] = shape[col] = d
            reach[r] = reach[col] = (d, last)
        axes = rows + cols
        # sorted in Python: a first np.argsort call maps in numpy's sort kernels, 0.4 MiB of RSS
        perm = sorted(range(len(axes)), key=axes.__getitem__)
        witnesses.append((last, local_dims, tuple(perm), tuple(shape)))
    # the pending tensor meets copy c's block with the dims of every slot
    # a witness ending above c acts on, size 1 elsewhere: all 1 at the
    # first block, which at most meets a factor Tr rho per empty copy above
    pending = [()] * copies
    for c in {w[0] for w in witnesses}:
        pending[c] = tuple(d if last > c else 1 for d, last in reach[: 2 * stops[c]])
    # rho's tensor has row labels 0..n-1 and column labels n..2n-1; an
    # unplaced party's column takes its row label, which traces it out,
    # and the output lists the columns first, so each reduced state
    # comes out transposed, as Tr(W sigma) = sum W[r, c] sigma[c, r] needs
    n = len(base_dims)
    labels = tuple(range(n))
    index = {ps: i for i, ps in enumerate(dict.fromkeys(map(tuple, per_copy)))}
    reductions = []
    for ps in index:
        cols = list(labels)
        for i in ps:
            cols[i] += n
        reductions.append((labels + tuple(cols), tuple(map(cols.__getitem__, ps)) + ps))
    steps = tuple((pending[c], index[tuple(ps)]) for c, ps in enumerate(per_copy))
    return tuple(witnesses), steps, tuple(reductions)


def compile_wiring(spec: WiringSpec) -> Callable[[np.ndarray], float]:
    """Build the wiring's witness blocks once; return ``rho -> Tr(W rho^(x)copies)``.

    Only the placed slots get axes, taken in copy-major order, each
    copy's rows before its columns, copy by copy.  Each witness is
    multiplied into the block of the last copy it touches, which spans
    the placed slots of that copy and of every copy before it, with
    size-1 axes where the block's witnesses do not act.  A copy where
    no witness ends has no block.  MAX_DIM still caps D_p, the product
    of the placed dims, though no block need reach D_p x D_p.  All of
    that layout walk is ``_plan``'s, kept per (copies, base dims, slot
    groups); each call resolves each witness once and multiplies it, in
    assignment order, into its block, broadcast over the block's other
    axes, so no transposed copy of a block is made.

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
    witnesses, steps, reductions = _plan(spec.copies, spec.base_dims, tuple([asg.slots for asg in spec.assignments]))
    blocks: list[np.ndarray | None] = [None] * spec.copies
    for asg, (last, local_dims, perm, shape) in zip(spec.assignments, witnesses):
        tensor = asg.resolve(local_dims).reshape(local_dims * 2).transpose(perm).reshape(shape)
        blocks[last] = tensor.copy() if blocks[last] is None else np.multiply(blocks[last], tensor, order="C")
    walk = [(block, pending, r) for block, (pending, r) in zip(blocks, steps)][::-1]  # last copy first

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
        reduced = [np.einsum(tensor, labels, out).reshape(-1) for labels, out in reductions]
        x = None
        for block, pending, r in walk:
            if block is not None:
                x = block if x is None else x.reshape(pending) * block
            sigma = reduced[r]
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
    ROOT_MERGE_TOL) is the mean of its eigenvalues.  A root is kept only
    where the polynomial, halfway to a neighbouring root or range end, is
    below -``floor``, so a zero it only touches at a range end is not one.
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
    # a root is a sign change only if the polynomial falls below -floor on
    # one side of it, halfway to the next root or range end: one where it
    # just touches zero at a range end is rounding, not a threshold
    ends = [lo] + roots + [hi]
    below = [_newton_value(nodes, coeffs, 0.5 * (a + b))[0] < -floor for a, b in zip(ends, ends[1:])]
    return [r for r, left, right in zip(roots, below, below[1:]) if left or right]


def sweep(spec: WiringSpec, family: StateFamily, grid_points: int = 201, bounds=(0.0, 1.0)) -> DetectionReport:
    """Evaluate the wiring on a uniform grid over ``bounds`` and locate its sign changes.

    The grid of ``grid_points`` (an integer >= 2) covers ``bounds`` =
    (lo, hi) of the family's [0, 1] segment; anything but
    0 <= lo <= hi <= 1 (NaN included) raises.  The family
    is affine, so Tr(Wiring rho(p)^(x)k) is a polynomial of degree at
    most k = ``spec.copies`` in p, evaluated once at each of k+1
    Chebyshev nodes; a non-finite value raises, as in the evaluator.
    The grid is read off the polynomial; a zero-width range takes one
    direct evaluation, and one too narrow for k+1 distinct nodes raises.
    The thresholds are its real roots of odd multiplicity in the range
    where it falls below -floor on one side, from ``_sign_changes`` with
    the floor 1e-12 * (1 + max|node value|), so neither a tangent zero
    nor a zero touched at a range end is one, and ``grid_points`` does
    not change them.
    """
    grid_points = checked_integer(grid_points, "grid_points")
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    if tuple(family.dims) != tuple(spec.base_dims):
        raise ValueError(
            f"family {family.name} has dims {family.dims}, wiring expects {spec.base_dims}"
        )
    lo, hi = bounds
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError(f"bounds ({lo}, {hi}) must satisfy 0 <= lo <= hi <= 1")
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
