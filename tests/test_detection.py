import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import expectation_oracle
from witwire import detection
from witwire.reproduce import load_scenario
from witwire.states import FAMILIES, FIXED_STATES, StateFamily, bell, projector, werner_a
from witwire.witnesses import catalog


def test_assemble_single_assignment_is_the_witness():
    spec = detection.wiring(1, [2, 2], [("W", [(0, 0), (0, 1)])])
    assert np.max(np.abs(detection.assemble(spec) - catalog("W").matrix)) < 1e-14


def test_assemble_two_copies_factorizes():
    # same-party placement is a plain tensor product of the two witnesses
    spec = detection.wiring(
        2, [2, 2], [("W", [(0, 0), (0, 1)]), ("V", [(1, 0), (1, 1)])]
    )
    w = catalog("W").matrix
    v = catalog("V").matrix
    assert np.max(np.abs(detection.assemble(spec) - np.kron(w, v))) < 1e-12


def test_wiring_slot_collision_rejected():
    spec = detection.wiring(
        2, [2, 2], [("W", [(0, 0), (0, 1)]), ("V", [(0, 1), (1, 1)])]
    )
    with pytest.raises(ValueError, match="assigned more than once"):
        spec.validate()
    with pytest.raises(ValueError, match="copy index"):
        detection.wiring(1, [2, 2], [("W", [(0, 0), (1, 1)])]).validate()


def test_expectation_known_cross_value():
    rho = FIXED_STATES["bell_psi_plus"][0]
    cross = detection.wiring(
        2, [2, 2], [("W", [(0, 0), (1, 1)]), ("V", [(0, 1), (1, 0)])]
    )
    assert abs(detection.expectation(cross, rho) + 0.5) < 1e-12
    # each factor alone scores +1 on the same state
    single_w = detection.wiring(1, [2, 2], [("W", [(0, 0), (0, 1)])])
    single_v = detection.wiring(1, [2, 2], [("V", [(0, 0), (0, 1)])])
    assert abs(detection.expectation(single_w, rho) - 1.0) < 1e-12
    assert abs(detection.expectation(single_v, rho) - 1.0) < 1e-12


def test_expectation_accepts_raw_matrix_witness():
    rho = FIXED_STATES["bell_psi_plus"][0]
    w = catalog("W").matrix
    spec = detection.wiring(1, [2, 2], [(w, [(0, 0), (0, 1)])])
    assert abs(detection.expectation(spec, rho) - 1.0) < 1e-12


def test_closed_forms_match_dense_traces():
    cyclic = detection.wiring(
        3,
        [2, 2],
        [
            ("W1", [(0, 0), (1, 1)]),
            ("W2", [(1, 0), (2, 1)]),
            ("W3", [(0, 1), (2, 0)]),
        ],
    )
    fam = FAMILIES["werner_w"]
    for w in (0.0, 0.17, 0.5, 0.99):
        dense = detection.expectation(cyclic, fam(w))
        assert abs(dense - detection.closed_form("three_copy_cyclic", w)) < 1e-10

    pw3 = detection.wiring(
        2, [2, 2], [("P", [(0, 0), (1, 1)]), ("W3", [(0, 1), (1, 0)])]
    )
    fam_a = FAMILIES["werner_a"]
    for a in (0.0, 0.3, 0.9):
        dense = detection.expectation(pw3, fam_a(a))
        assert abs(dense - detection.closed_form("p_w3_cross", a)) < 1e-10
        assert abs(dense - (3.0 - 5.0 * a * a) / 4.0) < 1e-10

    for b in (1.0, 7.0):
        pb = detection.wiring(
            2, [2, 2], [("P_b", [(0, 0), (1, 1)], b), ("W3", [(0, 1), (1, 0)])]
        )
        for a in (0.1, 0.6):
            dense = detection.expectation(pb, fam_a(a))
            assert abs(dense - detection.closed_form("pb_w3_cross", a, b=b)) < 1e-10

    fam_c = FAMILIES["noisy_w"]
    ww1 = detection.wiring(1, [2, 2, 2], [("WW1", [(0, 0), (0, 1), (0, 2)])])
    for c in (0.0, 0.4, 1.0):
        dense = detection.expectation(ww1, fam_c(c))
        assert abs(dense - detection.closed_form("noisy_w_projector", c)) < 1e-10
        assert abs(dense - (7.0 * c / 8.0 - 1.0 / 3.0)) < 1e-12


def test_closed_form_argument_handling():
    with pytest.raises(ValueError):
        detection.closed_form("no_such_form", 0.5)
    with pytest.raises(ValueError):
        detection.closed_form("pb_w3_cross", 0.5)  # b required
    with pytest.raises(ValueError):
        detection.closed_form("three_copy_cyclic", 0.5, b=2.0)  # b rejected


def test_find_threshold_simple_quadratic():
    res = detection.find_threshold(lambda x: x * x - 0.16, 0.0, 1.0, tol=1e-12)
    assert abs(res.root - 0.4) < 1e-10
    assert res.lo <= res.root <= res.hi
    with pytest.raises(ValueError, match="sign"):
        detection.find_threshold(lambda x: 1.0 + x * x, 0.0, 1.0)


def test_sweep_finds_the_werner_a_root():
    spec = detection.wiring(
        2, [2, 2], [("P", [(0, 0), (1, 1)]), ("W3", [(0, 1), (1, 0)])]
    )
    report = detection.sweep(spec, FAMILIES["werner_a"], grid_points=101)
    assert len(report.params) == 101
    assert len(report.thresholds) == 1
    assert abs(report.thresholds[0].root - math.sqrt(0.6)) < 1e-6
    assert report.param_name == "a"


def test_sweep_without_sign_change_reports_nothing():
    spec = detection.wiring(1, [2, 2], [("W3", [(0, 0), (0, 1)])])
    report = detection.sweep(spec, FAMILIES["werner_a"], grid_points=11)
    # Tr(W3 rho_a) = (1+a)/2 stays positive on the whole range
    assert report.thresholds == ()
    assert all(v > 0 for v in report.values)


def test_sweep_records_exact_grid_zero():
    # every number here is a dyadic rational, so the grid node at t=0.5
    # evaluates to exactly 0.0 and must be recorded without bisection
    def diag_family(t):
        return np.diag([(1.0 - t) / 2.0, t / 2.0, 0.25, 0.25]).astype(complex)

    fam = StateFamily("toy_diag", 2, (2, 2), "t", (0.0, 1.0), diag_family)
    observable = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
    spec = detection.wiring(1, [2, 2], [(observable, [(0, 0), (0, 1)])])
    report = detection.sweep(spec, fam, grid_points=3)
    assert report.values[1] == 0.0
    assert len(report.thresholds) == 1
    assert report.thresholds[0].root == 0.5
    assert report.thresholds[0].lo == report.thresholds[0].hi == 0.5


def test_ordering_matrix_covers_all_combinations():
    fam = FAMILIES["werner_w"]
    orderings = {
        "cross": [((0, 0), (1, 1)), ((0, 1), (1, 0))],
        "same_party": [((0, 0), (1, 0)), ((0, 1), (1, 1))],
    }
    table = detection.ordering_matrix(("W1", "W2"), fam, 0.2, 2, (2, 2), orderings)
    assert len(table) == 2 * 2 * 2  # combinations times orderings
    assert (("W1", "W2"), "cross") in table
    for value in table.values():
        assert isinstance(value, float)


def test_ordering_matrix_accepts_raw_state():
    rho = projector(bell("psi_plus", 2))
    orderings = {"cross": [((0, 0), (1, 1)), ((0, 1), (1, 0))]}
    table = detection.ordering_matrix(("W", "V"), rho, None, 2, (2, 2), orderings)
    assert abs(table[(("W", "V"), "cross")] + 0.5) < 1e-12


def test_raw_witness_must_be_finite_and_hermitian():
    rho = FIXED_STATES["bell_psi_plus"][0]
    skew = detection.wiring(1, [2, 2], [(np.arange(16.0).reshape(4, 4), [(0, 0), (0, 1)])])
    with pytest.raises(ValueError, match="not Hermitian"):
        detection.expectation(skew, rho)
    bad = np.eye(4)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        detection.compile_wiring(detection.wiring(1, [2, 2], [(bad, [(0, 0), (0, 1)])]))


def test_evaluator_rejects_non_finite_state():
    evaluate = detection.compile_wiring(detection.wiring(1, [2, 2], [("W", [(0, 0), (0, 1)])]))
    rho = FIXED_STATES["bell_psi_plus"][0].copy()
    rho[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        evaluate(rho)
    with pytest.raises(ValueError, match="shape"):
        evaluate(np.eye(2) / 2.0)


def test_find_threshold_rejects_non_finite_values():
    with pytest.raises(ValueError, match="not finite"):
        detection.find_threshold(lambda p: -1.0 if p < 0.3 else math.nan, 0.0, 1.0)


def test_sweep_rejects_non_finite_grid_values():
    # finite entries whose two-copy products overflow to inf past t=0.5
    def blowup(t):
        scale = 1e200 if t > 0.5 else 1.0
        return scale * np.eye(4, dtype=complex) / 4.0

    fam = StateFamily("toy_blowup", 2, (2, 2), "t", (0.0, 1.0), blowup)
    spec = detection.wiring(2, [2, 2], [("W3", [(0, 1), (1, 0)])])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
        detection.sweep(spec, fam, grid_points=5)


def test_sweep_assembles_the_wiring_once(monkeypatch):
    calls = []
    assemble = detection.assemble

    def counting(spec):
        calls.append(spec)
        return assemble(spec)

    monkeypatch.setattr(detection, "assemble", counting)
    spec = detection.wiring(
        2, [2, 2], [("P", [(0, 0), (1, 1)]), ("W3", [(0, 1), (1, 0)])]
    )
    report = detection.sweep(spec, FAMILIES["werner_a"], 201)
    assert len(report.thresholds) == 1  # the bisection ran too
    assert calls == [spec]


@pytest.mark.parametrize("points", [11, 401])
def test_sweep_calls_the_family_copies_plus_three_times(points):
    for name, family in (("ex3_cyclic", "werner_w"), ("ex5_cross", "noisy_w")):
        spec = load_scenario(name).wiring
        calls = []
        fam = FAMILIES[family]

        def counting(p, generator=fam.generator):
            calls.append(p)
            return generator(p)

        report = detection.sweep(spec, replace(fam, generator=counting), points)
        assert len(report.values) == points
        assert len(report.thresholds) == 1  # the bisection ran too
        assert len(calls) <= spec.copies + 3


def test_sweep_of_a_zero_width_range_is_one_evaluation():
    spec = load_scenario("ex5_cross").wiring
    fam = FAMILIES["noisy_w"]
    report = detection.sweep(spec, replace(fam, param_range=(0.3, 0.3)), 7)
    want = detection.compile_wiring(spec)(fam(0.3))
    assert report.params == (0.3,) * 7
    assert report.values == (want,) * 7
    assert report.thresholds == ()
    # a range too narrow for distinct interpolation nodes raises instead
    narrow = replace(fam, param_range=(0.3, math.nextafter(0.3, 1.0)))
    with pytest.raises(ValueError, match="too narrow"):
        detection.sweep(spec, narrow, 7)


def test_sweep_rejects_a_family_that_is_not_affine():
    fam = StateFamily("toy_cos", 2, (2, 2), "t", (0.0, 1.5), lambda t: werner_a(math.cos(t)))
    spec = detection.wiring(1, [2, 2], [("W3", [(0, 0), (0, 1)])])
    with pytest.raises(ValueError, match="toy_cos is not affine"):
        detection.sweep(spec, fam, grid_points=11)


PAIR_NAMES = ("W", "V", "W1", "W2", "W3", "W4", "P", "P_b")


@st.composite
def placed_wirings(draw, dims=st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3)):
    """A random wiring (copies, base dims <= 64 in total) with its state.

    ``dims`` draws the base dims.  Returns (spec, local matrices, slot
    groups, rho) so the oracle sees the same matrices the wiring
    resolves.
    """
    base_dims = draw(dims)
    base_total = int(np.prod(base_dims))
    max_copies = max(k for k in (1, 2, 3) if base_total**k <= 64)
    copies = draw(st.integers(1, max_copies))
    n = len(base_dims)
    order = draw(st.permutations(range(n * copies)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups, mats, entries = [], [], []
    pos = 0
    while pos < len(order) and draw(st.booleans()):
        size = draw(st.integers(1, min(3, len(order) - pos)))
        flats = order[pos:pos + size]
        pos += size
        group = [divmod(f, n) for f in flats]
        local_dims = [base_dims[p] for _, p in group]
        choices = ["raw"]
        if local_dims == [2, 2]:
            choices += PAIR_NAMES
        if local_dims == [2, 2, 2]:
            choices.append("WW1")
        name = draw(st.sampled_from(choices))
        if name == "raw":
            d = int(np.prod(local_dims))
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            mat = g + g.conj().T
            mat /= np.linalg.norm(mat, 2)  # unit norm keeps |value| <= 27
            entries.append((mat, group))
        elif name == "P_b":
            b = draw(st.floats(1.0, 100.0))
            mat = catalog("P_b", b=b).matrix
            entries.append((name, group, b))
        else:
            mat = catalog(name).matrix
            entries.append((name, group))
        groups.append(group)
        mats.append(mat)
    g = rng.standard_normal((base_total, base_total)) + 1j * rng.standard_normal((base_total, base_total))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return detection.wiring(copies, base_dims, entries), mats, groups, rho


@settings(max_examples=100, deadline=None)
@given(placed_wirings())
def test_expectation_matches_index_loop_oracle(case):
    spec, mats, groups, rho = case
    want = expectation_oracle(mats, groups, list(spec.base_dims), spec.copies, rho)
    assert abs(want.imag) < 1e-12
    assert abs(detection.expectation(spec, rho) - want.real) < 1e-12


@st.composite
def family_sweeps(draw):
    """A random wiring on a shipped family, a sub-range and a point count."""
    fam = draw(st.sampled_from(sorted(FAMILIES.values(), key=lambda f: f.name)))
    spec = draw(placed_wirings(st.just(list(fam.dims))))[0]
    lo, hi = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    assume(hi - lo > 1e-3)
    return spec, replace(fam, param_range=(lo, hi)), draw(st.integers(2, 40))


@settings(max_examples=100, deadline=None)
@given(family_sweeps())
def test_sweep_values_match_direct_evaluation(case):
    spec, fam, points = case
    report = detection.sweep(spec, fam, points)
    evaluate = detection.compile_wiring(spec)
    for p, v in zip(report.params, report.values):
        assert abs(v - evaluate(fam(p))) < 1e-12
