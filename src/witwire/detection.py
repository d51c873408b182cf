"""Multi-copy witness wirings: compilation, expectation values, thresholds.

A wiring takes k copies of an n-party state, lays the k*n subsystems
out copy-major (copy 0's parties first, then copy 1's, ...), and places
bipartite or multipartite witnesses on chosen slots, possibly across
copies.  Slots are addressed as (copy_index, party_index); unassigned
slots implicitly carry identity.  The expectation Tr(Wiring rho^(x)k)
can then change sign where every single-copy witness expectation stays
nonnegative, which is the whole point of the construction.

``compile_wiring`` validates a wiring and builds its operator once;
the evaluator it returns takes each trace as an O(D^2) elementwise
contraction.  A sweep needs a family that is affine in its parameter,
so that the trace is a polynomial of degree at most ``copies``: it
evaluates the wiring at copies+1 Chebyshev nodes (and at both ends, as
a check) and reads its grid and its bisections off the interpolant.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import witnesses as _witnesses
from .linalg import HERMITICITY_TOL, MAX_DIM, hermiticity_defect
from .multipartite import permute_subsystems, tensor_power
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
        want = int(np.prod(local_dims))
        if mat.shape != (want, want):
            raise ValueError(
                f"witness on slots {self.slots} has shape {mat.shape}, "
                f"expected {(want, want)} for local dims {local_dims}"
            )
        if not isinstance(self.witness, str):
            # a raw matrix is outside input: a non-Hermitian one would
            # give a real-looking trace that means nothing
            if not np.isfinite(mat).all():
                raise ValueError(f"witness on slots {self.slots} has non-finite entries")
            defect = hermiticity_defect(mat)
            if defect > HERMITICITY_TOL:
                raise ValueError(
                    f"witness on slots {self.slots} is not Hermitian: max|A - A^dag| = "
                    f"{defect:.3e} exceeds {HERMITICITY_TOL:.0e}"
                )
        return mat

    def label(self) -> str:
        if isinstance(self.witness, str):
            if self.param is not None:
                return f"{self.witness}({self.param:g})"
            return self.witness
        return f"<matrix {self.witness.shape[0]}x{self.witness.shape[0]}>"


@dataclass(frozen=True)
class WiringSpec:
    copies: int
    base_dims: tuple[int, ...]
    assignments: tuple[Assignment, ...]

    @property
    def full_dims(self) -> list[int]:
        return list(self.base_dims) * self.copies

    def flat_slot(self, copy: int, party: int) -> int:
        n = len(self.base_dims)
        if not 0 <= copy < self.copies:
            raise ValueError(f"copy index {copy} out of range for {self.copies} copies")
        if not 0 <= party < n:
            raise ValueError(f"party index {party} out of range for {n} parties")
        return copy * n + party

    def validate(self) -> None:
        if self.copies < 1:
            raise ValueError(f"copies must be >= 1, got {self.copies}")
        if int(np.prod(self.full_dims)) > MAX_DIM:
            raise ValueError(
                f"full dimension {int(np.prod(self.full_dims))} exceeds MAX_DIM={MAX_DIM}"
            )
        seen: set[int] = set()
        for asg in self.assignments:
            for copy, party in asg.slots:
                flat = self.flat_slot(copy, party)
                if flat in seen:
                    raise ValueError(
                        f"slot (copy={copy}, party={party}) assigned more than once"
                    )
                seen.add(flat)


def wiring(
    copies: int,
    base_dims: Sequence[int],
    assignments: Sequence[tuple],
) -> WiringSpec:
    """Convenience constructor from (witness, slots[, param]) tuples."""
    built = []
    for entry in assignments:
        if len(entry) == 2:
            wit, slots = entry
            param = None
        else:
            wit, slots, param = entry
        built.append(Assignment(wit, tuple((int(c), int(p)) for c, p in slots), param))
    return WiringSpec(int(copies), tuple(int(d) for d in base_dims), tuple(built))


def assemble(spec: WiringSpec) -> np.ndarray:
    """Dense operator realizing the wiring on the full copy-major slot space.

    The witnesses act on disjoint slots, so the operator is their
    Kronecker product in assignment order, times identity on the
    unassigned slots, with the slots then permuted into place.
    """
    spec.validate()
    full = spec.full_dims
    factors = []
    placed: list[int] = []
    for asg in spec.assignments:
        flats = [spec.flat_slot(c, p) for c, p in asg.slots]
        factors.append(asg.resolve([full[f] for f in flats]))
        placed += flats
    rest = [s for s in range(len(full)) if s not in placed]
    factors.append(np.eye(int(np.prod([full[s] for s in rest])), dtype=complex))
    op = functools.reduce(np.kron, factors)
    # op lives on slot order (placed..., rest...); send each slot to its place
    perm = placed + rest
    return permute_subsystems(op, [full[s] for s in perm], perm)


def compile_wiring(spec: WiringSpec) -> Callable[[np.ndarray], float]:
    """Validate and assemble the wiring once; return ``rho -> Tr(W rho^(x)copies)``.

    The evaluator takes one copy rho of the base system.  The trace
    Tr(A B) is the elementwise sum of A * B^T, O(D^2) instead of the
    O(D^3) product.  It must come out real (Hermitian observable
    against a Hermitian state); an imaginary residue above 1e-9 raises,
    because silently discarding it would mask a mis-assembled wiring.
    """
    op = assemble(spec)
    base_dims = list(spec.base_dims)
    base_total = int(np.prod(base_dims))
    copies = spec.copies

    def evaluate(rho: np.ndarray) -> float:
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (base_total, base_total):
            raise ValueError(
                f"state has shape {rho.shape}, expected {(base_total, base_total)} "
                f"for base dims {base_dims}"
            )
        if not np.isfinite(rho).all():
            raise ValueError("state has non-finite entries")
        big, _ = tensor_power(rho, base_dims, copies)
        value = complex(np.einsum("ij,ji->", op, big))
        if abs(value.imag) > IMAG_TOL:
            raise ValueError(
                f"expectation has imaginary residue {value.imag:.3e} above {IMAG_TOL:.0e}"
            )
        return value.real

    return evaluate


def expectation(spec: WiringSpec, rho: np.ndarray) -> float:
    """Tr(Wiring rho^(x)copies) for one copy rho of the base system."""
    return compile_wiring(spec)(rho)


# ---------------------------------------------------------------------------
# Closed-form expectation values, used as independent cross-checks of the
# dense evaluation.  Names describe the wiring they belong to.

def _three_copy_cyclic(w: float) -> float:
    # cyclic W1/W2/W3 wiring on three copies of werner_w
    return (
        2.0 * ((2.0 - w) / 4.0) ** 3
        - 4.0 * ((1.0 - w) / 2.0) ** 3
        + 6.0 * w * (2.0 - w) ** 2 / 64.0
        + 6.0 * w**2 * (2.0 - w) / 64.0
        + 2.0 * w**3 / 64.0
    )


def _p_w3_cross(a: float) -> float:
    # P on the (A, B') pair and W3 on (B, A'), two copies of werner_a
    return (3.0 - 5.0 * a**2) / 4.0


def _pb_w3_cross(a: float, b: float) -> float:
    if b < 1.0:
        raise ValueError(f"tuning parameter b must be >= 1, got {b}")
    return ((1.0 - 6.0 * b) * a**2 + 2.0 * b + 1.0) / (16.0 * b)


def _noisy_w_projector(c: float) -> float:
    # single-copy expectation of the WW1 witness on noisy_w
    return 7.0 * c / 8.0 - 1.0 / 3.0


CLOSED_FORMS: dict[str, Callable[..., float]] = {
    "three_copy_cyclic": _three_copy_cyclic,
    "p_w3_cross": _p_w3_cross,
    "pb_w3_cross": _pb_w3_cross,
    "noisy_w_projector": _noisy_w_projector,
}


def closed_form(name: str, param: float, b: float | None = None) -> float:
    """Evaluate a named closed-form expectation polynomial."""
    try:
        fn = CLOSED_FORMS[name]
    except KeyError:
        raise ValueError(
            f"unknown closed form {name!r}; known: {', '.join(sorted(CLOSED_FORMS))}"
        ) from None
    if name == "pb_w3_cross":
        if b is None:
            raise ValueError("closed form 'pb_w3_cross' requires b")
        return fn(float(param), float(b))
    if b is not None:
        raise ValueError(f"closed form {name!r} takes no b parameter")
    return fn(float(param))


# ---------------------------------------------------------------------------
# Threshold location and parameter sweeps.

@dataclass(frozen=True)
class ThresholdResult:
    root: float
    lo: float
    hi: float


def find_threshold(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-9,
) -> ThresholdResult:
    """Bisect a sign change of ``f`` on [lo, hi] down to bracket width tol.

    A non-finite value of ``f`` raises: NaN compares as neither sign,
    so bisecting through it would report a root that is not there.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")

    def value(p: float) -> float:
        v = f(p)
        if not math.isfinite(v):
            raise ValueError(f"f({p!r}) = {v} is not finite")
        return v

    flo = value(lo)
    fhi = value(hi)
    if flo == 0.0:
        return ThresholdResult(lo, lo, lo)
    if fhi == 0.0:
        return ThresholdResult(hi, hi, hi)
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise ValueError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.6g}, f(hi)={fhi:.6g}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = value(mid)
        if fm == 0.0:
            return ThresholdResult(mid, mid, mid)
        if math.copysign(1.0, fm) == math.copysign(1.0, flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return ThresholdResult(0.5 * (lo + hi), lo, hi)


@dataclass(frozen=True)
class DetectionReport:
    family: str
    param_name: str
    params: tuple[float, ...]
    values: tuple[float, ...]
    thresholds: tuple[ThresholdResult, ...]
    wiring: WiringSpec = field(repr=False)


def _chebyshev_interpolant(
    f: Callable[[float], float], lo: float, hi: float, degree: int
) -> tuple[Callable, float]:
    """Newton form of the degree-``degree`` polynomial through f at Chebyshev nodes.

    The degree+1 nodes are the Chebyshev points of the first kind on
    [lo, hi], so the endpoints are not among them.  Returns the
    polynomial, which takes a float or an array, and max |f(node)|.
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

    def poly(p):
        v = coeffs[degree]
        for i in range(degree - 1, -1, -1):
            v = coeffs[i] + (p - nodes[i]) * v
        return v

    return poly, scale


def sweep(spec: WiringSpec, family: StateFamily, grid_points: int = 201) -> DetectionReport:
    """Evaluate the wiring on a uniform parameter grid and locate sign changes.

    The family must be affine in its parameter, as every shipped family
    is: then Tr(Wiring rho(p)^(x)k) is a polynomial of degree at most
    k = ``spec.copies`` in p.  The wiring is compiled once and evaluated
    at k+1 Chebyshev nodes of the range, plus once at each end as a
    check; the grid values and every bisection are read off the
    interpolating polynomial.  A non-finite wiring value raises, and so
    does an end value the polynomial misses by more than
    1e-12 * (1 + max|node value|), which is how a family that is not
    affine shows.  A zero-width range takes one direct evaluation; a
    range too narrow for k+1 distinct nodes raises.

    Every consecutive grid pair with opposite signs feeds the bisection,
    so a sweep resolves each crossing to 1e-9 regardless of grid
    resolution (as long as the grid brackets it at all).
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

    def direct(p: float) -> float:
        v = evaluate(family(p))
        if not math.isfinite(v):
            raise ValueError(f"wiring value at {family.param_name}={p!r} is not finite: {v}")
        return v

    if lo == hi:
        f = direct
        values = [direct(lo)] * grid_points
    else:
        f, scale = _chebyshev_interpolant(direct, lo, hi, spec.copies)
        for end in (lo, hi):
            miss = abs(f(end) - direct(end))
            if miss > 1e-12 * (1.0 + scale):
                raise ValueError(
                    f"family {family.name} is not affine in {family.param_name}: the "
                    f"degree-{spec.copies} interpolant misses the wiring value at "
                    f"{family.param_name}={end!r} by {miss:.3e}"
                )
        values = f(params).tolist()
    thresholds = []
    for i in range(len(params) - 1):
        vl, vr = values[i], values[i + 1]
        if vl == 0.0:
            # the grid landed exactly on a root; no bisection needed
            thresholds.append(ThresholdResult(float(params[i]), float(params[i]), float(params[i])))
        elif vl * vr < 0.0:
            thresholds.append(find_threshold(f, float(params[i]), float(params[i + 1])))
    if values[-1] == 0.0:
        thresholds.append(ThresholdResult(float(params[-1]), float(params[-1]), float(params[-1])))
    return DetectionReport(
        family=family.name,
        param_name=family.param_name,
        params=tuple(float(p) for p in params),
        values=tuple(float(v) for v in values),
        thresholds=tuple(thresholds),
        wiring=spec,
    )


def ordering_matrix(
    witness_names: Sequence[str],
    state: StateFamily | np.ndarray,
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
    if isinstance(state, StateFamily):
        if param is None:
            raise ValueError(f"family {state.name} needs a parameter value")
        rho = state(param)
    else:
        if param is not None:
            raise ValueError("param given with an explicit state matrix")
        rho = np.asarray(state, dtype=complex)
    table: dict[tuple, float] = {}
    for label, groups in orderings.items():
        slot_groups = [tuple((int(c), int(p)) for c, p in g) for g in groups]
        for combo in itertools.product(witness_names, repeat=len(slot_groups)):
            spec = WiringSpec(
                copies=copies,
                base_dims=tuple(int(d) for d in base_dims),
                assignments=tuple(
                    Assignment(name, slots) for name, slots in zip(combo, slot_groups)
                ),
            )
            table[(combo, label)] = expectation(spec, rho)
    return table
