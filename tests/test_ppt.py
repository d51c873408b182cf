from dataclasses import replace

import numpy as np
import pytest

from witwire import ppt
from witwire.ppt import partial_transpose
from witwire.states import FAMILIES, bell, projector


def test_maximally_entangled_pt_spectrum():
    rho = projector(bell("psi_plus", 2))
    pt = partial_transpose(rho, [2, 2], [1])
    vals = np.linalg.eigvalsh(pt)
    assert np.max(np.abs(vals - np.array([-0.5, 0.5, 0.5, 0.5]))) < 1e-12
    verdict = ppt.ppt_check(rho, [2, 2], [1])
    assert verdict.verdict == "npt_entangled"
    assert abs(verdict.min_eigenvalue + 0.5) < 1e-12


def test_werner_verdicts_either_side_of_threshold():
    fam = FAMILIES["werner_w"]
    assert ppt.ppt_check(fam(0.5), [2, 2], [1]).verdict == "npt_entangled"
    assert ppt.ppt_check(fam(0.8), [2, 2], [1]).verdict == "ppt_inconclusive"


def test_werner_a_boundary_eigenvalue():
    fam = FAMILIES["werner_a"]
    v = ppt.ppt_check(fam(1.0 / 3.0), [2, 2], [1])
    assert abs(v.min_eigenvalue) < 1e-9


def test_thresholds_for_both_families():
    root_w = ppt.ppt_threshold(FAMILIES["werner_w"], [1])
    assert abs(root_w - 2.0 / 3.0) < 1e-12
    root_a = ppt.ppt_threshold(FAMILIES["werner_a"], [1])
    assert abs(root_a - 1.0 / 3.0) < 1e-12


def test_noisy_w_threshold_is_located():
    # no external reference value for this family: the minimum
    # partial-transpose eigenvalue must vanish at the root and change
    # sign across it
    fam = FAMILIES["noisy_w"]
    root = ppt.ppt_threshold(fam, [2])
    assert isinstance(root, float)
    assert 0.0 < root < 1.0
    assert abs(ppt.min_pt_eigenvalue(fam(root), [2, 2, 2], [2])) < 1e-12
    below = ppt.min_pt_eigenvalue(fam(root - 1e-6), [2, 2, 2], [2])
    above = ppt.min_pt_eigenvalue(fam(root + 1e-6), [2, 2, 2], [2])
    assert below < 0.0 < above


def test_threshold_needs_a_nonempty_proper_slot_subset():
    # transposing no party or every party leaves the spectrum of rho
    for name, slots in (("werner_w", [0, 1]), ("werner_a", []), ("noisy_w", [2, 0, 1])):
        with pytest.raises(ValueError, match="proper subset"):
            ppt.ppt_threshold(FAMILIES[name], slots)


@pytest.mark.parametrize(
    "slots, message",
    [
        ([], "transposed slots [] are not a nonempty proper subset of the parties 0..1"),
        ([0, 1], "transposed slots [0, 1] are not a nonempty proper subset of the parties 0..1"),
        ([1, 0], "transposed slots [1, 0] are not a nonempty proper subset of the parties 0..1"),
        ([1, 1], "repeated slot in [1, 1]"),
        ([2], "slot index out of range in [2] for 2 slots"),
        ([1.0], "slots [1.0] are not all ints"),
        ([True], "slots [True] are not all ints"),
    ],
)
def test_check_and_threshold_refuse_the_same_slot_lists(slots, message):
    # the spectrum, verdict and threshold share one rule: partial_transpose's slot
    # rule, in its own words, plus a nonempty proper subset
    fam = FAMILIES["werner_w"]
    calls = [
        lambda: ppt.ppt_check(fam(0.5), [2, 2], slots),
        lambda: ppt.ppt_threshold(fam, slots),
        lambda: ppt.min_pt_eigenvalue(fam(0.5), [2, 2], slots),
    ]
    if "proper subset" not in message:
        calls.append(lambda: partial_transpose(fam(0.5), [2, 2], slots))
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


def test_check_records_the_slots_it_transposed_from_a_one_pass_iterable():
    # an iterator is spent once; the verdict must name the slots the transpose used
    verdict = ppt.ppt_check(FAMILIES["werner_w"](0.0), [2, 2], iter([1]))
    assert verdict.transposed_slots == (1,)
    assert abs(verdict.min_eigenvalue + 0.5) < 1e-12
    assert verdict.verdict == "npt_entangled"


@pytest.mark.parametrize(
    "slots", [(1,), np.array([1]), range(1, 2)], ids=["tuple", "numpy_array", "range"]
)
def test_check_records_its_slots_as_a_tuple_of_plain_ints(slots):
    verdict = ppt.ppt_check(FAMILIES["werner_w"](0.0), [2, 2], slots)
    assert verdict.transposed_slots == (1,)
    assert type(verdict.transposed_slots[0]) is int
    assert abs(verdict.min_eigenvalue + 0.5) < 1e-12


def test_threshold_on_a_sub_range_starts_from_its_positive_definite_end():
    # no end is the maximally mixed state; the positive definite end is
    # hi for werner_w and lo for werner_a
    fam = replace(FAMILIES["werner_w"], param_range=(0.5, 0.9))
    assert abs(ppt.ppt_threshold(fam, [1]) - 2.0 / 3.0) < 1e-12
    fam = replace(FAMILIES["werner_a"], param_range=(0.1, 0.9))
    assert abs(ppt.ppt_threshold(fam, [1]) - 1.0 / 3.0) < 1e-12


def test_threshold_refusals():
    werner_w = FAMILIES["werner_w"]
    with pytest.raises(ValueError, match="no sign change"):
        ppt.ppt_threshold(replace(werner_w, param_range=(0.7, 1.0)), [1])
    with pytest.raises(ValueError, match="no positive definite"):
        ppt.ppt_threshold(replace(werner_w, param_range=(0.0, 0.5)), [1])


def test_ppt_check_validates_the_state():
    not_a_state = np.eye(4, dtype=complex)  # trace 4
    with pytest.raises(ValueError):
        ppt.ppt_check(not_a_state, [2, 2], [1])


def test_ppt_check_rejects_nan_state():
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 0] = np.nan
    with pytest.raises(ValueError):
        ppt.ppt_check(rho, [2, 2], [1])


def test_complementary_slots_share_the_spectrum():
    rng = np.random.default_rng(83)
    for _ in range(25):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        one = ppt.min_pt_eigenvalue(rho, [2, 2, 2], [0])
        rest = ppt.min_pt_eigenvalue(rho, [2, 2, 2], [1, 2])
        assert abs(one - rest) < 1e-9


def test_separable_mixtures_stay_inconclusive():
    rng = np.random.default_rng(89)
    for _ in range(1000):
        k = int(rng.integers(1, 4))
        rho = np.zeros((4, 4), dtype=complex)
        weights = rng.dirichlet(np.ones(k))
        for mix in range(k):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            v = np.kron(a, b)
            rho += weights[mix] * np.outer(v, v.conj())
        verdict = ppt.ppt_check(rho, [2, 2], [1])
        assert verdict.verdict == "ppt_inconclusive"
        assert verdict.min_eigenvalue >= -1e-9
