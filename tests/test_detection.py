import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import expectation_oracle, sign_change_oracle
from witwire import detection
from witwire.reproduce import load_scenario, noisy_w_projector, p_w3_cross, pb_w3_cross, shipped_scenario_names
from witwire.reproduce import three_copy_cyclic
from witwire.scenario import _with_witness_param, round15, threshold_dict
from witwire.states import FAMILIES, FIXED_STATES, StateFamily
from witwire.witnesses import catalog


def test_wiring_slot_collision_rejected():
    with pytest.raises(ValueError, match=r"assignments\[1\]\.slots\[0\]: slot \(0, 1\) assigned more than once"):
        detection.wiring(2, [2, 2], [("W", [(0, 0), (0, 1)]), ("V", [(0, 1), (1, 1)])])
    with pytest.raises(ValueError, match=r"assignments\[0\]\.slots\[1\]: slot \(1, 1\) out of range"):
        detection.wiring(1, [2, 2], [("W", [(0, 0), (1, 1)])])


@pytest.mark.parametrize(
    "copies, base_dims, slots, where",
    [
        (2.7, [2, 2], [(0, 0), (0, 1)], "copies: expected an integer, got 2.7"),
        (True, [2, 2], [(0, 0), (0, 1)], "copies: expected an integer, got True"),
        (1, [2, 2.0], [(0, 0), (0, 1)], "base_dims[1]: expected an integer, got 2.0"),
        (1, [2, 2], [(0, 0), (0.9, 1)], "assignments[0].slots[1]: expected an integer, got 0.9"),
        (1, [2, 2], [(0, False), (0, 1)], "assignments[0].slots[0]: expected an integer, got False"),
    ],
    ids=["float_copies", "bool_copies", "float_dim", "float_slot", "bool_slot"],
)
def test_wiring_refuses_a_non_integer_by_its_field(copies, base_dims, slots, where):
    # int() would read 2.7 copies as 2, the slot (0.9, 1) as (0, 1) and True as 1
    with pytest.raises(ValueError) as exc:
        detection.wiring(copies, base_dims, [("W", slots)])
    assert str(exc.value) == where


@pytest.mark.parametrize(
    "entry, message",
    [
        (("W", [(0, 0, 1), (0, 1)]), "assignments[0].slots: expected a list of [copy, party] pairs"),
        (("W", [(0, 0), 1]), "assignments[0].slots: expected a list of [copy, party] pairs"),
        (("W",), "assignments[0]: expected (witness, slots[, param]), got 1 items"),
        (("W", [(0, 0), (0, 1)], None, 2.0), "assignments[0]: expected (witness, slots[, param]), got 4 items"),
    ],
    ids=["triple_slot", "bare_int_slot", "one_item_entry", "four_item_entry"],
)
def test_wiring_refuses_a_misshapen_entry_by_its_field(entry, message):
    # unpacking would raise Python's own "too many values to unpack", naming no field
    with pytest.raises(ValueError) as exc:
        detection.wiring(1, [2, 2], [entry])
    assert str(exc.value) == message


def test_wiring_accepts_numpy_integers():
    spec = detection.wiring(np.int64(1), np.array([2, 2]), [("W", np.array([[0, 0], [0, 1]]))])
    assert spec == detection.wiring(1, [2, 2], [("W", [(0, 0), (0, 1)])])
    assert all(type(v) is int for v in (spec.copies, *spec.base_dims, *spec.assignments[0].slots[1]))


@pytest.mark.parametrize("base_dims", [[], [0], [-2], [2, 0]])
def test_wiring_with_malformed_base_dims_rejected(base_dims):
    with pytest.raises(ValueError, match="base_dims"):
        detection.wiring(1, base_dims, [])


def test_assignment_without_slots_rejected():
    with pytest.raises(ValueError, match=r"assignments\[1\]\.slots"):
        detection.wiring(2, [2, 2], [("W", [(0, 0), (1, 1)]), (np.eye(1), [])])


def test_a_replaced_or_directly_built_spec_is_checked_too():
    spec = detection.wiring(2, [2, 2], [("W", [(0, 0), (1, 1)])])
    with pytest.raises(ValueError, match=r"^assignments\[0\]\.slots\[1\]: slot \(2, 1\) out of range"):
        replace(spec, assignments=(detection.Assignment("W", ((0, 0), (2, 1))),))
    with pytest.raises(ValueError, match=r"^copies: expected at least 1, got 0"):
        replace(spec, copies=0)
    with pytest.raises(ValueError, match=r"^assignments\[0\]\.slots\[1\]: slot \(0, 0\) assigned more than once"):
        detection.WiringSpec(1, (2, 2), (detection.Assignment("W", ((0, 0), (0, 0))),))
    built = detection.WiringSpec(np.int64(2), [2, 2], [detection.Assignment("W", [[0, 0], [1, 1]])])
    assert built == spec and isinstance(built.base_dims, tuple)


@pytest.mark.parametrize(
    "group, message",
    [
        (((0, 0), (1, 0.5)), r"^assignments\[0\]\.slots\[1\]: expected an integer, got 0\.5$"),
        (((0, 0), (2, 1)), r"^assignments\[0\]\.slots\[1\]: slot \(2, 1\) out of range"),
    ],
    ids=["float_slot", "out_of_range_slot"],
)
def test_ordering_matrix_refuses_a_bad_slot_by_its_field(group, message):
    orderings = {"bad": [group, ((0, 1), (1, 1))]}
    with pytest.raises(ValueError, match=message):
        detection.ordering_matrix(("W1", "W2"), FAMILIES["werner_w"], 0.2, 2, (2, 2), orderings)


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
        assert abs(dense - three_copy_cyclic(w)) < 1e-10

    pw3 = detection.wiring(
        2, [2, 2], [("P", [(0, 0), (1, 1)]), ("W3", [(0, 1), (1, 0)])]
    )
    fam_a = FAMILIES["werner_a"]
    for a in (0.0, 0.3, 0.9):
        dense = detection.expectation(pw3, fam_a(a))
        assert abs(dense - p_w3_cross(a)) < 1e-10
        assert abs(dense - (3.0 - 5.0 * a * a) / 4.0) < 1e-10

    for b in (1.0, 7.0):
        pb = detection.wiring(
            2, [2, 2], [("P_b", [(0, 0), (1, 1)], b), ("W3", [(0, 1), (1, 0)])]
        )
        for a in (0.1, 0.6):
            dense = detection.expectation(pb, fam_a(a))
            assert abs(dense - pb_w3_cross(a, b)) < 1e-10

    fam_c = FAMILIES["noisy_w"]
    ww1 = detection.wiring(1, [2, 2, 2], [("WW1", [(0, 0), (0, 1), (0, 2)])])
    for c in (0.0, 0.4, 1.0):
        dense = detection.expectation(ww1, fam_c(c))
        assert abs(dense - noisy_w_projector(c)) < 1e-10
        assert abs(dense - (7.0 * c / 8.0 - 1.0 / 3.0)) < 1e-12


@pytest.mark.parametrize("b", [float("nan"), float("inf"), 0.5])
def test_pb_w3_cross_rejects_a_b_outside_its_range(b):
    # NaN fails every comparison, so only a negated bound turns it away
    with pytest.raises(ValueError, match="finite and >= 1"):
        pb_w3_cross(0.5, b)


def test_sweep_finds_the_werner_a_root():
    spec = detection.wiring(
        2, [2, 2], [("P", [(0, 0), (1, 1)]), ("W3", [(0, 1), (1, 0)])]
    )
    report = detection.sweep(spec, FAMILIES["werner_a"], grid_points=101)
    assert len(report.params) == 101
    assert len(report.thresholds) == 1
    assert abs(report.thresholds[0] - math.sqrt(0.6)) < 1e-12
    assert report.param_name == "a"


def test_sweep_without_sign_change_reports_nothing():
    spec = detection.wiring(1, [2, 2], [("W3", [(0, 0), (0, 1)])])
    report = detection.sweep(spec, FAMILIES["werner_a"], grid_points=11)
    # Tr(W3 rho_a) = (1+a)/2 stays positive on the whole range
    assert report.thresholds == ()
    assert all(v > 0 for v in report.values)


def test_sweep_records_exact_grid_zero():
    # every number here is a dyadic rational, so the grid node at t=0.5
    # evaluates to exactly 0.0, and the root is exactly 0.5
    ends = (np.diag([0.5, 0.0, 0.25, 0.25]), np.diag([0.0, 0.5, 0.25, 0.25]))
    fam = StateFamily("toy_diag", (2, 2), "t", ends)
    observable = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
    spec = detection.wiring(1, [2, 2], [(observable, [(0, 0), (0, 1)])])
    report = detection.sweep(spec, fam, grid_points=3)
    assert report.values[1] == 0.0
    assert len(report.thresholds) == 1
    assert report.thresholds[0] == 0.5
    assert threshold_dict(report.thresholds[0]) == {"root": 0.5, "lo": 0.5, "hi": 0.5}


def _shifted_w3_pair(first, second):
    # W3 - c I on each copy of werner_a scores (1+a)/2 - c per copy,
    # so the wiring's value is ((1+a)/2 - first) * ((1+a)/2 - second)
    eye = np.eye(4, dtype=complex)
    w3 = catalog("W3").matrix
    return detection.wiring(
        2, [2, 2], [(w3 - first * eye, [(0, 0), (0, 1)]), (w3 - second * eye, [(1, 0), (1, 1)])]
    )


@pytest.mark.parametrize("points", [200, 201, 202, 401])
def test_tangent_root_is_not_a_sign_change(points):
    # ((1+a)/2 - 0.75)^2 touches zero at a = 1/2 without changing sign
    spec = _shifted_w3_pair(0.75, 0.75)
    report = detection.sweep(spec, FAMILIES["werner_a"], points)
    assert min(report.values) >= -1e-15
    assert report.thresholds == ()


def test_roots_two_thousandths_apart_are_two_sign_changes():
    spec = _shifted_w3_pair(0.75, 0.751)
    for points in (11, 201):
        roots = detection.sweep(spec, FAMILIES["werner_a"], points).thresholds
        assert len(roots) == 2
        assert abs(roots[0] - 0.5) < 1e-12
        assert abs(roots[1] - 0.502) < 1e-12


def test_roots_two_ten_thousandths_apart_are_not_merged():
    # twice ROOT_MERGE_TOL of the range apart: two sign changes, not one even-fold root
    roots = detection.sweep(_shifted_w3_pair(0.75, 0.7501), FAMILIES["werner_a"], 11).thresholds
    assert len(roots) == 2
    assert abs(roots[0] - 0.5) < 1e-12
    assert abs(roots[1] - 0.5002) < 1e-12


def _three_copy_wirings():
    """Every wiring of W1, W2 and W3 on disjoint ordered slot pairs of three two-qubit copies."""
    slots = [(c, p) for c in range(3) for p in range(2)]
    for m in (1, 2, 3):
        for pairs in itertools.combinations(itertools.combinations(slots, 2), m):
            if len({s for pair in pairs for s in pair}) < 2 * m:
                continue
            for flips in itertools.product((False, True), repeat=m):
                layout = [pair[::-1] if flip else pair for pair, flip in zip(pairs, flips)]
                for names in itertools.product(("W1", "W2", "W3"), repeat=m):
                    yield detection.wiring(3, [2, 2], list(zip(names, layout)))


def test_a_zero_touched_at_a_range_end_is_not_a_threshold():
    fam = FAMILIES["werner_w"]
    # exactly 0 at w = 0 and positive above it; the interpolant's rounding
    # put a root at 1.48e-16, which was reported as a threshold
    spec = detection.wiring(
        3, [2, 2], [("W2", [(0, 0), (2, 0)]), ("W3", [(0, 1), (2, 1)]), ("W1", [(1, 0), (1, 1)])]
    )
    report = detection.sweep(spec, fam)
    assert abs(report.values[0]) < 1e-15 and min(report.values[1:]) > 0
    assert report.thresholds == ()
    # of all 4,950 three-copy wirings (330 layouts), 416 reported a threshold,
    # 32 of them such an end root; each of the 384 left changes sign on the
    # grid, at the cyclic root, and no other goes below zero
    reports = [detection.sweep(spec, fam) for spec in _three_copy_wirings()]
    assert len(reports) == 4950
    detecting = [r for r in reports if r.thresholds]
    assert len(detecting) == 384
    cyclic = 1.0 - 2.0 ** (-1.0 / 3.0)
    assert all(len(r.thresholds) == 1 and abs(r.thresholds[0] - cyclic) < 1e-12 for r in detecting)
    assert all(min(r.values) < -1e-9 for r in detecting)
    assert all(min(r.values) > -1e-9 for r in reports if not r.thresholds)


def test_an_imaginary_residue_above_its_bound_raises():
    # an anti-Hermitian part i s I of the state gives W3, of trace 2, the imaginary part 2 s
    evaluate = detection.compile_wiring(detection.wiring(1, [2, 2], [("W3", [(0, 0), (0, 1)])]))
    assert abs(evaluate(np.eye(4) / 4 + 1e-10j * np.eye(4)) - 0.5) < 1e-15
    with pytest.raises(ValueError, match="imaginary residue 2.000e-08 above 1e-09"):
        evaluate(np.eye(4) / 4 + 1e-8j * np.eye(4))


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


def test_evaluator_rejects_a_value_that_overflows():
    # finite, Hermitian witnesses whose product 1e400 overflows: inf * 0 makes the value NaN
    big = 1e200 * np.eye(4)
    spec = detection.wiring(2, [2, 2], [(big, [(0, 0), (0, 1)]), (big, [(1, 0), (1, 1)])])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="not finite"):
        detection.expectation(spec, FIXED_STATES["bell_psi_plus"][0])


def test_sweep_rejects_non_finite_grid_values():
    # finite entries whose two-copy products overflow to inf at every interior node
    ends = (np.eye(4) / 4.0, 1e200 * np.eye(4) / 4.0)
    fam = StateFamily("toy_blowup", (2, 2), "t", ends)
    spec = detection.wiring(2, [2, 2], [("W3", [(0, 1), (1, 0)])])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
        detection.sweep(spec, fam, grid_points=5)


def _counting_resolve(monkeypatch):
    """Each ``Assignment.resolve`` call's witness and the matrix it returned, in call order."""
    calls = []
    resolve = detection.Assignment.resolve

    def counting(self, local_dims):
        mat = resolve(self, local_dims)
        calls.append((self.witness, mat))
        return mat

    monkeypatch.setattr(detection.Assignment, "resolve", counting)
    return calls


def test_sweep_assembles_the_wiring_once(monkeypatch):
    calls = _counting_resolve(monkeypatch)
    spec = detection.wiring(
        2, [2, 2], [("P", [(0, 0), (1, 1)]), ("W3", [(0, 1), (1, 0)])]
    )
    report = detection.sweep(spec, FAMILIES["werner_a"], 201)
    assert len(report.thresholds) == 1  # the root was located too
    assert [name for name, _ in calls] == ["P", "W3"]  # one build, each witness resolved once
    # both end on copy 1, so they share its block, of the placed slots only:
    # A, B, A', B' in copy-major order, laid out per copy as
    # (A, B rows, A, B columns, A', B' rows, A', B' columns), so P on (A, B')
    # acts on axes 0, 5 (rows) and 2, 7 (columns), W3 on (B, A') on 1, 4 and 3, 6
    assert [(last, shape) for last, _, _, shape in _plan_of(spec)[0]] == [
        (1, (2, 1, 2, 1, 1, 2, 1, 2)), (1, (1, 2, 1, 2, 2, 1, 2, 1))
    ]


def test_evaluator_keeps_the_trace_of_a_copy_with_nothing_placed():
    # copy 1 carries only identity, so it contributes a factor Tr(rho) = 2
    rho = 2.0 * FAMILIES["werner_a"](0.3)
    groups = [[(0, 1), (2, 0)], [(2, 1), (0, 0)]]
    spec = detection.wiring(3, [2, 2], list(zip(("W3", "W"), groups)))
    mats = [catalog("W3").matrix, catalog("W").matrix]
    want = expectation_oracle(mats, groups, [2, 2], 3, rho)
    assert abs(detection.expectation(spec, rho) - want.real) < 1e-12
    # the same wiring with the empty copy left out scores half as much
    two = detection.wiring(2, [2, 2], [("W3", [(0, 1), (1, 0)]), ("W", [(1, 1), (0, 0)])])
    assert abs(want.real - 2.0 * detection.expectation(two, rho)) < 1e-12
    # and so does the same wiring with the empty copy last, where the
    # factor Tr(rho) comes before any block
    last = detection.wiring(3, [2, 2], [("W3", [(0, 1), (1, 0)]), ("W", [(1, 1), (0, 0)])])
    assert abs(detection.expectation(last, rho) - want.real) < 1e-12


def test_wiring_with_no_assignments_is_a_power_of_the_trace():
    rho = 1.5 * FAMILIES["noisy_w"](0.6)
    for copies in (1, 2, 3):
        spec = detection.wiring(copies, [2, 2, 2], [])
        want = expectation_oracle([], [], [2, 2, 2], copies, rho)
        assert abs(want - 1.5**copies) < 1e-12
        assert abs(detection.expectation(spec, rho) - 1.5**copies) < 1e-12


def test_max_dim_caps_the_placed_slots_not_the_full_dimension():
    # three copies of a three-qubit state: D = 512, but D_p = 4 * 4 * 8 = 128
    groups = [[(0, 0), (1, 1)], [(0, 1), (2, 0)], [(0, 2), (1, 0), (2, 2)]]
    names = ["W3", "W4", "WW1"]
    spec = detection.wiring(3, [2, 2, 2], list(zip(names, groups)))
    fam = FAMILIES["noisy_w"]
    evaluate = detection.compile_wiring(spec)
    # c = 1 is the maximally mixed state: each witness scores Tr(W)/dim
    # (W3 1/2, W4 1, WW1 13/24)
    assert abs(evaluate(fam(1.0)) - 13.0 / 48.0) < 1e-15
    mats = [catalog(name).matrix for name in names]
    want = expectation_oracle(mats, groups, [2, 2, 2], 3, fam(0.4))
    assert abs(evaluate(fam(0.4)) - want.real) < 1e-12
    report = detection.sweep(spec, fam, 11)
    assert abs(report.values[-1] - 13.0 / 48.0) < 1e-12
    # three WW1 witnesses place all nine slots: D_p = 512
    full = detection.wiring(3, [2, 2, 2], [("WW1", [(c, 0), (c, 1), (c, 2)]) for c in range(3)])
    with pytest.raises(ValueError, match="MAX_DIM"):
        detection.compile_wiring(full)


def test_evaluation_builds_no_kronecker_product_and_no_tensor_power(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called on the evaluation path")

    monkeypatch.setattr(np, "kron", refuse)
    ring = detection.wiring(
        4, [2, 2], [("W1", [(0, 1), (1, 0)]), ("W2", [(1, 1), (2, 0)]),
                    ("W3", [(2, 1), (3, 0)]), ("W4", [(3, 1), (0, 0)])]
    )
    rho = FAMILIES["werner_w"](0.3)
    assert math.isfinite(detection.compile_wiring(ring)(rho))
    report = detection.sweep(load_scenario("ex3_cyclic").wiring, FAMILIES["werner_w"], 201)
    assert abs(report.thresholds[0] - (1.0 - 2.0 ** (-1.0 / 3.0))) < 1e-12


RING = [("W1", [(0, 1), (1, 0)]), ("W2", [(1, 1), (2, 0)]),
        ("W3", [(2, 1), (3, 0)]), ("W4", [(3, 1), (0, 0)])]


def test_each_witness_joins_the_block_of_the_last_copy_it_touches(monkeypatch):
    calls = _counting_resolve(monkeypatch)
    spec = detection.wiring(4, [2, 2], RING)
    detection.compile_wiring(spec)
    assert [name for name, _ in calls] == [name for name, _ in RING]
    assert all(np.array_equal(mat, catalog(name).matrix) for name, mat in calls)
    # the block at copy c spans the placed slots of copies 0..c: all eight
    # slots are placed, so W1 ends on copy 1 (4 slots), W2 on copy 2 (6),
    # and W3 and W4 together on copy 3 (8), where slot (c, p) has row axis
    # 4c + p and column axis 4c + 2 + p of the block
    witnesses = _plan_of(spec)[0]
    assert [(last, len(shape) // 2) for last, _, _, shape in witnesses] == [(1, 4), (2, 6), (3, 8), (3, 8)]
    acting = [[i for i, d in enumerate(shape) if d > 1] for _, _, _, shape in witnesses]
    assert acting == [[1, 3, 4, 6], [5, 7, 8, 10], [9, 11, 12, 14], [0, 2, 13, 15]]
    block = np.maximum(witnesses[2][3], witnesses[3][3])
    assert math.prod(block) <= 256  # W3 (x) W4 on four slots; one operator on all eight has 65536


def test_sweep_builds_each_block_once_and_none_per_evaluation(monkeypatch):
    calls = _counting_resolve(monkeypatch)
    spec = detection.wiring(4, [2, 2], RING)
    fam = FAMILIES["werner_w"]
    evaluate = detection.compile_wiring(spec)
    for w in (0.1, 0.3, 0.7):
        evaluate(fam(w))
    assert [name for name, _ in calls] == [name for name, _ in RING]  # none per evaluation
    report = detection.sweep(spec, fam, 11)
    assert [name for name, _ in calls[len(RING):]] == [name for name, _ in RING]  # one compile
    assert sorted({last for last, _, _, _ in _plan_of(spec)[0]}, reverse=True) == [3, 2, 1]
    mats = [catalog(name).matrix for name, _ in RING]
    want = expectation_oracle(mats, [slots for _, slots in RING], [2, 2], 4, fam(0.3))
    assert abs(report.values[3] - want.real) < 1e-12


def test_four_copy_wiring_with_a_free_slot_matches_the_oracle():
    # D = 256: a witness from copy 0 to copy 3, one ending on copy 1, a
    # three-slot one ending on copy 3, and slot (2, 0) left free
    rng = np.random.default_rng(12)

    def gaussian(d):
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    def hermitian(d):
        g = gaussian(d)
        return g + g.conj().T

    groups = [[(0, 0), (3, 1)], [(1, 1), (0, 1)], [(1, 0), (3, 0), (2, 1)]]
    mats = [hermitian(4), catalog("W2").matrix, hermitian(8)]
    spec = detection.wiring(4, [2, 2], [(mats[0], groups[0]), ("W2", groups[1]), (mats[2], groups[2])])
    g = gaussian(4)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    want = expectation_oracle(mats, groups, [2, 2], 4, rho)
    assert abs(want.imag) < 1e-12
    assert abs(detection.expectation(spec, rho) - want.real) < 1e-12


@pytest.mark.parametrize("points", [11, 401])
def test_sweep_calls_the_family_copies_plus_one_times(points, monkeypatch):
    calls = []
    call = StateFamily.__call__

    def counting(self, p):
        calls.append(p)
        return call(self, p)

    monkeypatch.setattr(StateFamily, "__call__", counting)
    for name, family in (("ex3_cyclic", "werner_w"), ("ex5_cross", "noisy_w")):
        spec = load_scenario(name).wiring
        calls.clear()
        report = detection.sweep(spec, FAMILIES[family], points)
        assert len(report.values) == points
        assert len(report.thresholds) == 1  # the root was located too
        assert len(calls) == spec.copies + 1


def test_sweep_of_a_zero_width_range_is_one_evaluation():
    spec = load_scenario("ex5_cross").wiring
    fam = FAMILIES["noisy_w"]
    report = detection.sweep(spec, fam, 7, bounds=(0.3, 0.3))
    want = detection.compile_wiring(spec)(fam(0.3))
    assert report.params == (0.3,) * 7
    assert report.values == (want,) * 7
    assert report.thresholds == ()
    # a range too narrow for distinct interpolation nodes raises instead
    with pytest.raises(ValueError, match="too narrow"):
        detection.sweep(spec, fam, 7, bounds=(0.3, math.nextafter(0.3, 1.0)))


@pytest.mark.parametrize(
    "bounds",
    [(0.9, 0.1), (-0.001, 0.9), (0.2, 1.05), (0.0, math.nan)],
    ids=["reversed", "below_zero", "above_one", "nan"],
)
def test_sweep_refuses_bounds_outside_the_unit_segment(bounds):
    # reversed bounds used to sweep ex4_p_w3 with no threshold, though its root is
    # 0.7746, and (-0.001, 0.9) reported a value at p = -0.001, where no state exists
    spec = load_scenario("ex4_p_w3").wiring
    with pytest.raises(ValueError, match=r"^bounds \(.*\) must satisfy 0 <= lo <= hi <= 1$"):
        detection.sweep(spec, FAMILIES["werner_a"], 7, bounds)


@pytest.mark.parametrize("points", [2.5, 7.0, True], ids=["fraction", "float", "bool"])
def test_sweep_refuses_a_non_integer_point_count_by_name(points):
    # 2.5 reached np.linspace and raised a bare TypeError; 7.0 and True ran as 7 and 1 points
    spec = load_scenario("ex4_p_w3").wiring
    with pytest.raises(ValueError) as exc:
        detection.sweep(spec, FAMILIES["werner_a"], points)
    assert str(exc.value) == f"grid_points: expected an integer, got {points!r}"


GRID_SCENARIOS = [
    s for s in map(load_scenario, shipped_scenario_names()) if s.family.mode == "grid"
]


@st.composite
def grid_scenario_sub_ranges(draw):
    """A shipped grid scenario's wiring, family and a random sub-range of width 1e-13..1."""
    scenario = draw(st.sampled_from(GRID_SCENARIOS))
    spec = scenario.wiring
    if scenario.witness_param is not None:
        b = draw(st.sampled_from(scenario.witness_param.values))
        spec = _with_witness_param(spec, scenario.witness_param.witness, b)
    width = 10.0 ** draw(st.floats(-13.0, 0.0))
    lo = (1.0 - width) * draw(st.floats(0.0, 1.0))
    bounds = (lo, min(lo + width, 1.0))
    return spec, FAMILIES[scenario.family.name], bounds, draw(st.integers(2, 60))


@settings(max_examples=200, deadline=None)
@given(grid_scenario_sub_ranges())
def test_shipped_sweeps_are_exact_polynomials_on_any_sub_range(case):
    # the family is affine, so the degree-copies interpolant is the trace
    # itself: it meets direct evaluation at both ends and every grid point
    # within the floor that the roots use, 1e-12 * (1 + max|node value|)
    spec, fam, (lo, hi), points = case
    evaluate = detection.compile_wiring(spec)
    direct = lambda p: evaluate(fam(p))  # noqa: E731
    scale = detection._chebyshev_interpolant(direct, lo, hi, spec.copies)[2]
    report = detection.sweep(spec, fam, points, bounds=(lo, hi))
    assert (report.params[0], report.params[-1]) == (lo, hi)
    for p, v in zip(report.params, report.values):
        assert abs(v - direct(p)) <= 1e-12 * (1.0 + scale)


PAIR_NAMES = ("W", "V", "W1", "W2", "W3", "W4", "P", "P_b")


@st.composite
def placed_wirings(
    draw, dims=st.lists(st.sampled_from([2, 3]), min_size=1, max_size=3), multi_slot_raw=False
):
    """A random wiring (base_total**copies <= 64, up to 4 copies) with its state.

    ``dims`` draws the base dims; ``multi_slot_raw`` makes the first
    witness a raw matrix on two or more slots.  Returns (spec, local
    matrices, slot groups, rho) so the oracle sees the same matrices the
    wiring resolves.
    """
    base_dims = draw(dims)
    base_total = int(np.prod(base_dims))
    max_copies = max(k for k in (1, 2, 3, 4) if base_total**k <= 64)
    copies = draw(st.integers(1, max_copies))
    n = len(base_dims)
    order = draw(st.permutations(range(n * copies)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups, mats, entries = [], [], []
    pos = 0
    while pos < len(order):
        forced = multi_slot_raw and not groups
        if not forced and not draw(st.booleans()):
            break
        size = draw(st.integers(2 if forced else 1, min(3, len(order) - pos)))
        flats = order[pos:pos + size]
        pos += size
        group = [divmod(f, n) for f in flats]
        local_dims = [base_dims[p] for _, p in group]
        choices = ["raw"]
        if local_dims == [2, 2]:
            choices += PAIR_NAMES
        if local_dims == [2, 2, 2]:
            choices.append("WW1")
        name = "raw" if forced else draw(st.sampled_from(choices))
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


def _leaves(value):
    """Everything inside nested tuples that is not itself a tuple."""
    if isinstance(value, tuple):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def _plan_of(spec):
    return detection._plan(spec.copies, spec.base_dims, tuple(asg.slots for asg in spec.assignments))


@settings(max_examples=100, deadline=None)
@given(placed_wirings())
def test_a_kept_plan_gives_the_values_of_a_fresh_one_bit_for_bit(case):
    spec, _, _, rho = case
    detection._plan.cache_clear()
    cold = detection.compile_wiring(spec)(rho)
    assert detection._plan.cache_info().currsize == 1
    # a second spec with the same layout but its own assignment objects hits the kept plan
    warm = detection.compile_wiring(replace(spec, assignments=tuple(replace(a) for a in spec.assignments)))
    assert detection._plan.cache_info().hits >= 1
    assert warm(rho) == cold
    assert all(type(leaf) is int for leaf in _leaves(_plan_of(spec)))  # no arrays, only ints and tuples


def test_a_layout_over_max_dim_raises_on_every_compile():
    full = detection.wiring(3, [2, 2, 2], [("WW1", [(c, 0), (c, 1), (c, 2)]) for c in range(3)])
    detection._plan.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError, match="MAX_DIM"):
            detection.compile_wiring(full)
    assert detection._plan.cache_info().currsize == 0


def test_layouts_that_differ_get_their_own_plans():
    rng = np.random.default_rng(25)

    def hermitian(d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return g + g.conj().T

    def state(d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = g @ g.conj().T
        return 1.5 * rho / np.trace(rho).real  # trace 1.5, so an extra copy shows

    mat6, mat4 = hermitian(6), hermitian(4)  # mat4 is not symmetric under the swap of its two slots
    cases = [
        ([2, 3], 1, [[(0, 0), (0, 1)]], [mat6]),
        ([3, 2], 1, [[(0, 0), (0, 1)]], [mat6]),
        ([2, 2], 2, [[(0, 0), (1, 1)]], [mat4]),
        ([2, 2], 3, [[(0, 0), (1, 1)]], [mat4]),
        ([2, 2], 1, [[(0, 0), (0, 1)]], [mat4]),
        ([2, 2], 1, [[(0, 1), (0, 0)]], [mat4]),
    ]
    rhos = {6: state(6), 4: state(4)}
    detection._plan.cache_clear()
    plans = []
    for _ in range(2):  # the second pass hits every kept plan
        for base_dims, copies, groups, mats in cases:
            spec = detection.wiring(copies, base_dims, list(zip(mats, groups)))
            rho = rhos[math.prod(base_dims)]
            want = expectation_oracle(mats, groups, base_dims, copies, rho)
            assert abs(detection.expectation(spec, rho) - want.real) < 1e-10
            plans.append(_plan_of(spec))
    assert detection._plan.cache_info().currsize == len(cases)
    for first, second in zip(plans[0::2], plans[1::2]):
        assert first != second
    assert all(cold is warm for cold, warm in zip(plans[: len(cases)], plans[len(cases):]))


def test_a_kept_plan_builds_its_blocks_from_the_witness_of_each_call():
    mat = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    spec = detection.wiring(2, [2, 2], [(mat, [(0, 1), (1, 0)])])
    rho = FAMILIES["werner_w"](0.3)
    before = detection.compile_wiring(spec)
    value = before(rho)
    mat *= 2.0  # the caller's own raw witness, changed in place after the first compile
    assert detection.compile_wiring(spec)(rho) == 2.0 * value
    assert before(rho) == value


def test_the_plan_cache_holds_the_module_constant_of_layouts():
    assert detection._plan.cache_parameters()["maxsize"] == detection.PLAN_CACHE_SIZE


@st.composite
def family_sweeps(draw, multi_slot_raw=False):
    """A random wiring on a shipped family, a sub-range and a point count.

    Each raw witness X becomes X - x(t) I, x(t) its own expectation at a
    drawn point t inside the range, so that on its own it changes sign
    at t (unless x is constant) and the wiring's value often does too.
    ``multi_slot_raw`` is passed on to ``placed_wirings``.
    """
    fam = draw(st.sampled_from(sorted(FAMILIES.values(), key=lambda f: f.name)))
    spec = draw(placed_wirings(st.just(list(fam.dims)), multi_slot_raw))[0]
    lo, hi = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    assume(hi - lo > 1e-3)
    assignments = []
    for asg in spec.assignments:
        if not isinstance(asg.witness, str):
            alone = replace(spec, assignments=(asg,))
            t = lo + (hi - lo) * draw(st.floats(0.05, 0.95))
            shift = detection.expectation(alone, fam(t))
            asg = replace(asg, witness=asg.witness - shift * np.eye(len(asg.witness)))
        assignments.append(asg)
    spec = replace(spec, assignments=tuple(assignments))
    return spec, fam, (lo, hi), draw(st.integers(2, 40))


@settings(max_examples=100, deadline=None)
@given(family_sweeps())
def test_sweep_values_match_direct_evaluation(case):
    spec, fam, bounds, points = case
    report = detection.sweep(spec, fam, points, bounds)
    evaluate = detection.compile_wiring(spec)
    for p, v in zip(report.params, report.values):
        assert abs(v - evaluate(fam(p))) < 1e-12


# a raw witness on two or more slots has a shift that makes it change
# sign inside the range, so about half of these sweeps have roots
crossing_sweeps = family_sweeps(multi_slot_raw=True)


@settings(max_examples=40, deadline=None)
@given(crossing_sweeps, st.integers(2, 40))
def test_sweep_thresholds_match_the_bisection_oracle(case, other_points):
    spec, fam, bounds, points = case
    thresholds = detection.sweep(spec, fam, points, bounds).thresholds
    assert detection.sweep(spec, fam, other_points, bounds).thresholds == thresholds
    evaluate = detection.compile_wiring(spec)
    want, zero_ends = sign_change_oracle(lambda p: evaluate(fam(p)), *bounds)
    # a zero at an end of the range has no outside neighbour on the
    # grid, so the oracle cannot say whether it is a sign change
    got = [t for t in thresholds if not any(abs(t - end) <= 1e-9 for end in zero_ends)]
    assert len(got) == len(want)
    for root, reference in zip(got, want):
        assert abs(root - reference) <= 1e-9
    for t in thresholds:
        assert threshold_dict(t) == {"root": round15(t), "lo": round15(t), "hi": round15(t)}


def test_sweep_and_ppt_threshold_do_not_load_numpy_polynomial():
    code = (
        "import sys, witwire\n"
        "from witwire.reproduce import load_scenario\n"
        "witwire.sweep(load_scenario('ex3_cyclic').wiring, witwire.FAMILIES['werner_w'], 201)\n"
        "witwire.ppt_threshold(witwire.FAMILIES['noisy_w'], [2])\n"
        "assert 'numpy.polynomial' not in sys.modules, 'numpy.polynomial was imported'\n"
    )
    src = str(Path(detection.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
