import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import concentration_oracle, measurement_vector_oracles
from witwire import cli
from witwire import concentration as conc
from witwire.linalg import dagger
from witwire.states import bell, projector


def test_measurement_vector_identity_schmidt():
    for d in [2, 3]:
        psi_mat = np.eye(d, dtype=complex) / np.sqrt(d)
        vec, norm = conc.measurement_vector(psi_mat, "m")
        assert abs(norm - np.sqrt(d)) < 1e-12
        assert np.max(np.abs(vec / norm - bell("psi_plus", d))) < 1e-12


def test_measurement_vector_diagonal_case():
    psi_mat = np.diag([np.sqrt(0.9), np.sqrt(0.1)]).astype(complex)
    vec, _ = conc.measurement_vector(psi_mat, "m")
    expected = np.kron(
        np.eye(2), np.diag([1.0 / np.sqrt(0.9), 1.0 / np.sqrt(0.1)])
    ) @ bell("psi_plus", 2)
    assert np.max(np.abs(vec - expected)) < 1e-12


def test_measurement_vector_dual_construction_agrees():
    rng = np.random.default_rng(101)
    for d in [2, 3, 4]:
        for kind in ("m", "M"):
            for _ in range(20):
                psi_mat = conc.random_schmidt_operator(d, rng)
                vec, norm = conc.measurement_vector(psi_mat, kind)
                # raw entries scale with the inverse (squared) singular
                # values, so the gap is taken relative to the norm
                for ref in measurement_vector_oracles(psi_mat, kind):
                    scale = np.linalg.norm(ref)
                    assert np.max(np.abs(vec - ref)) <= 1e-10 * scale
                    assert abs(norm - scale) <= 1e-10 * scale


def test_measurement_vector_rejects_bad_kind():
    psi_mat = np.eye(2, dtype=complex) / np.sqrt(2.0)
    with pytest.raises(ValueError):
        conc.measurement_vector(psi_mat, "x")


def test_concentrate_identity_is_swapping():
    # Psi = 1/sqrt(2) makes |phi> maximally entangled already; the
    # measurement then teleports it onto (A, B') with probability 1/4
    psi_mat = np.eye(2, dtype=complex) / np.sqrt(2.0)
    for kind in ("m", "M"):
        res = conc.concentrate(psi_mat, kind)
        assert abs(res.probability - 0.25) < 1e-10
        assert abs(res.fidelity_with_target - 1.0) < 1e-10
        target = projector(bell("psi_plus", 2))
        assert np.max(np.abs(projector(res.output) - target)) < 1e-10


def test_concentrate_random_reaches_target():
    rng = np.random.default_rng(103)
    for d in [2, 3]:
        for kind in ("m", "M"):
            for _ in range(15):
                psi_mat = conc.random_schmidt_operator(d, rng)
                res = conc.concentrate(psi_mat, kind)
                assert abs(res.fidelity_with_target - 1.0) < 1e-9
                assert 0.0 < res.probability <= 1.0 + 1e-12
                assert res.output.shape == (d * d,)
                assert abs(np.linalg.norm(res.output) - 1.0) < 1e-9


def test_bookkeeping_ratio_kind_m_is_d():
    rng = np.random.default_rng(107)
    for d in [2, 3, 4]:
        psi_mat = conc.random_schmidt_operator(d, rng)
        raw_weight = conc.probability_consistency(psi_mat, "m")[0]
        # raw weight d^-3 gives ratio 1/(d^2 d^-3) = d, above 1: the raw
        # numbers are bookkeeping, not probabilities
        assert abs(raw_weight - d ** -3) < 1e-9
        assert abs(1.0 / (d**2 * raw_weight) - d) < 1e-6


def test_probability_consistency_closed_form():
    rng = np.random.default_rng(109)
    for d in [2, 3]:
        for kind in ("m", "M"):
            for _ in range(10):
                psi_mat = conc.random_schmidt_operator(d, rng)
                lhs, rhs, delta = conc.probability_consistency(psi_mat, kind)
                assert delta < 1e-9
                expected = d ** -3 if kind == "m" else d ** -2
                assert abs(rhs - expected) < 1e-9


def test_random_schmidt_operator_contract():
    rng = np.random.default_rng(113)
    for d in [2, 3, 4]:
        for _ in range(20):
            psi_mat = conc.random_schmidt_operator(d, rng)
            tr = np.trace(psi_mat.conj().T @ psi_mat).real
            assert abs(tr - 1.0) < 1e-12
            assert np.linalg.cond(psi_mat) <= conc.CONDITION_CAP
    # plain integer seeds are accepted too
    a = conc.random_schmidt_operator(2, 12345)
    b = conc.random_schmidt_operator(2, 12345)
    assert np.array_equal(a, b)


def test_concentrate_rejects_unnormalized_input():
    with pytest.raises(ValueError):
        conc.concentrate(np.eye(2, dtype=complex), "m")


def _assert_matches_oracle(psi_mat, kind, tol=1e-10):
    res = conc.concentrate(psi_mat, kind)
    output, probability, fidelity, raw_weight = concentration_oracle(psi_mat, kind)
    assert np.max(np.abs(projector(res.output) - output)) < tol
    assert abs(res.probability - probability) < tol
    assert abs(res.fidelity_with_target - fidelity) < tol
    assert abs(conc.probability_consistency(psi_mat, kind)[0] - raw_weight) < tol


def test_concentrate_matches_dense_oracle():
    rng = np.random.default_rng(127)
    for d, count in ((2, 10), (3, 4), (4, 1)):
        for kind in ("m", "M"):
            for _ in range(count):
                _assert_matches_oracle(conc.random_schmidt_operator(d, rng), kind)


@st.composite
def schmidt_operators(draw):
    d = draw(st.sampled_from([2, 3]))
    parts = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    re = np.array(draw(st.lists(parts, min_size=d * d, max_size=d * d)))
    im = np.array(draw(st.lists(parts, min_size=d * d, max_size=d * d)))
    mat = (re + 1j * im).reshape(d, d)
    assume(np.linalg.norm(mat) > 1e-3 and np.linalg.cond(mat) <= conc.CONDITION_CAP)
    return mat / np.linalg.norm(mat)


# cond 94.5: a double-precision dense oracle was off here by 3.1e-10 on
# the output projector, 2.5e-10 on the fidelity and 2.7e-10 on the raw weight
ILL_CONDITIONED_PSI = np.array(
    [[-0.27348092412970043 - 0.2831956044955965j, 0.04814212260100115 - 0.483941916419658j],
     [-0.5001641660037816 - 0.015497368389674453j, -0.3867390909833062 - 0.4566393603482073j]]
)


@settings(max_examples=60, deadline=None)
@given(schmidt_operators(), st.sampled_from(["m", "M"]))
@example(ILL_CONDITIONED_PSI, "M")
def test_concentrate_matches_dense_oracle_property(psi_mat, kind):
    _assert_matches_oracle(psi_mat, kind)


def test_concentrate_beyond_two_copy_dense_limit():
    # no d^4 x d^4 matrix is formed, so only the d^2 output amplitudes cap d
    rng = np.random.default_rng(131)
    for d in (5, 16):
        for kind in ("m", "M"):
            psi_mat = conc.random_schmidt_operator(d, rng)
            res = conc.concentrate(psi_mat, kind)
            assert res.output.shape == (d * d,)
            assert abs(res.fidelity_with_target - 1.0) < 1e-9
            assert 0.0 < res.probability <= 1.0 + 1e-12
            _, _, delta = conc.probability_consistency(psi_mat, kind)
            assert delta < 1e-9


def test_concentrate_rejects_output_above_max_dim(monkeypatch, capsys):
    psi_mat = np.eye(17, dtype=complex) / np.sqrt(17.0)  # 17^2 = 289 > MAX_DIM
    for call in (conc.concentrate, conc.probability_consistency, conc.measurement_vector):
        with pytest.raises(ValueError, match="MAX_DIM"):
            call(psi_mat, "m")

    # and before any draw: a large d almost never gives a draw within CONDITION_CAP
    def forbidden(*args, **kwargs):
        raise AssertionError("a Psi was drawn")

    monkeypatch.setattr(conc, "_condition_number", forbidden)
    with pytest.raises(ValueError, match=re.escape("output state dimension 17^2 exceeds MAX_DIM=256")):
        conc.random_schmidt_operator(17, 0)
    assert cli.main(["concentrate", "--d", "200"]) == 2
    assert capsys.readouterr().err == "error: output state dimension 200^2 exceeds MAX_DIM=256\n"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_psi_raises_by_name(bad):
    psi_mat = np.eye(2, dtype=complex) / np.sqrt(2.0)
    psi_mat[0, 1] = bad
    for call in (conc.concentrate, conc.probability_consistency, conc.measurement_vector):
        for kind in ("m", "M"):
            with pytest.raises(ValueError, match="non-finite"):
                call(psi_mat, kind)


@pytest.mark.parametrize("d", [2.5, "3", True])
def test_a_d_that_is_not_an_integer_is_refused_by_name_before_any_draw(monkeypatch, d):
    # 2.5 passed the range checks and raised a bare TypeError from numpy; "3" one from <
    def forbidden(*args, **kwargs):
        raise AssertionError("a Psi was drawn")

    monkeypatch.setattr(conc, "_condition_number", forbidden)
    with pytest.raises(ValueError, match="^" + re.escape(f"d: expected an integer, got {d!r}") + "$"):
        conc.random_schmidt_operator(d, 0)


@pytest.mark.parametrize("d", [-1, 0, 1])
def test_local_dimension_below_two_is_refused_by_name(d, capsys):
    message = f"local dimension must be >= 2, got {d}"
    with pytest.raises(ValueError, match=message):
        conc.random_schmidt_operator(d, 5)
    if d >= 0:  # a d x d Psi exists; for d = 1 it even has unit norm
        psi_mat = np.eye(d, dtype=complex)
        for call in (conc.concentrate, conc.probability_consistency, conc.measurement_vector):
            for kind in ("m", "M"):
                with pytest.raises(ValueError, match=message):
                    call(psi_mat, kind)
    for kind in ("m", "M"):
        assert cli.main(["concentrate", "--d", str(d), "--kind", kind, "--samples", "1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_concentration_path_never_calls_kron(monkeypatch):
    # neither a Kronecker product nor a density matrix: the path is d x d algebra
    rng = np.random.default_rng(137)
    cases = [conc.random_schmidt_operator(d, rng) for d in (2, 3, 4)]

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"np.{name} on the concentration path")

        return call

    monkeypatch.setattr(np, "kron", forbidden("kron"))
    monkeypatch.setattr(np, "outer", forbidden("outer"))
    for psi_mat in cases:
        for kind in ("m", "M"):
            conc.concentrate(psi_mat, kind)
            conc.probability_consistency(psi_mat, kind)
            conc.measurement_vector(psi_mat, kind)


CALLS = (conc.concentrate, conc.probability_consistency, conc.measurement_vector)


def _evict():
    """Make the next call on any other (Psi, kind) a fresh one."""
    conc.measurement_vector(np.diag([0.6, 0.8]).astype(complex), "m")


def test_each_call_validates_psi_once(monkeypatch):
    counts = {"check": 0, "inverse": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(conc, "check_schmidt_operator", counting("check", conc.check_schmidt_operator))
    monkeypatch.setattr(np.linalg, "inv", counting("inverse", np.linalg.inv))
    psi_mat = conc.random_schmidt_operator(3, 151)
    # a fresh (Psi, kind) validates and inverts Psi^dag once, for both
    # kinds (kind "M" squares that inverse); the same (Psi, kind) called
    # again right after, by any entry point, does neither
    for first in CALLS:
        for then in CALLS:
            for kind in ("m", "M"):
                _evict()
                counts.update(check=0, inverse=0)
                first(psi_mat, kind)
                assert counts == {"check": 1, "inverse": 1}, (first.__name__, kind)
                then(psi_mat, kind)
                assert counts == {"check": 1, "inverse": 1}, (first.__name__, then.__name__, kind)
    # the pair every caller makes inverts once in total, and equal bytes
    # in another array are the same Psi
    _evict()
    counts.update(check=0, inverse=0)
    conc.concentrate(psi_mat, "m")
    conc.probability_consistency(psi_mat.copy(), "m")
    assert counts == {"check": 1, "inverse": 1}
    # the other kind, or other bytes, is a fresh call
    conc.concentrate(psi_mat, "M")
    assert counts == {"check": 2, "inverse": 2}
    conc.concentrate(psi_mat.T.copy(), "M")
    assert counts == {"check": 3, "inverse": 3}
    # a call that raises keeps nothing, so the last good Psi is still kept
    with pytest.raises(ValueError, match="measurement kind"):
        conc.concentrate(psi_mat, "x")
    conc.probability_consistency(psi_mat.T, "M")
    assert counts == {"check": 4, "inverse": 3}


@pytest.mark.parametrize("kind", [["m"], None], ids=["list", "none"])
@pytest.mark.parametrize("call", CALLS, ids=lambda f: f.__name__)
def test_a_kind_that_is_not_a_string_is_refused_by_name(call, kind):
    # refused before the kept result's key, where an unhashable kind would raise TypeError
    with pytest.raises(ValueError, match=rf"^measurement kind must be 'm' or 'M', got {re.escape(repr(kind))}$"):
        call(conc.random_schmidt_operator(2, 3), kind)


def _results(psi_mat, kind) -> list:
    """Every public output for (Psi, kind), in one list of arrays and floats."""
    res = conc.concentrate(psi_mat, kind)
    return [
        res.output,
        res.probability,
        res.fidelity_with_target,
        *conc.probability_consistency(psi_mat, kind),
        *conc.measurement_vector(psi_mat, kind),
    ]


def _fresh_results(psi_mat, kind) -> list:
    """``_results`` in the same order, with every call a fresh one."""
    out = []
    for call in CALLS:
        _evict()
        res = call(psi_mat, kind)
        if isinstance(res, conc.ConcentrationResult):
            out += [res.output, res.probability, res.fidelity_with_target]
        else:
            out += list(res)
    return out


def _assert_same_bits(a: list, b: list):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        x, y = np.asarray(x), np.asarray(y)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_psi_changed_in_place_gets_the_fresh_result():
    rng = np.random.default_rng(157)
    for kind in ("m", "M"):
        psi_mat = conc.random_schmidt_operator(3, rng)
        other = conc.random_schmidt_operator(3, rng)
        expected = _fresh_results(other, kind)
        _results(psi_mat, kind)
        psi_mat[...] = other  # the same object, now holding other's entries
        _assert_same_bits(_results(psi_mat, kind), expected)


@pytest.mark.parametrize("bad", ["nan", "ill-conditioned"])
def test_bad_psi_raises_on_back_to_back_calls(bad):
    if bad == "nan":
        psi_mat = np.eye(2, dtype=complex) / np.sqrt(2.0)
        psi_mat[1, 0] = np.nan
        match = "non-finite"
    else:
        psi_mat = np.diag([1.0, 1e-13]).astype(complex)
        psi_mat /= np.linalg.norm(psi_mat)
        match = "ill-conditioned"
    for call in CALLS:
        for kind in ("m", "M"):
            for _ in range(2):
                with pytest.raises(ValueError, match=match):
                    call(psi_mat, kind)


def test_writing_into_returned_arrays_leaves_later_results_unchanged():
    rng = np.random.default_rng(163)
    for d in (2, 3, 4):
        psi_mat = conc.random_schmidt_operator(d, rng)
        for kind in ("m", "M"):
            expected = _fresh_results(psi_mat, kind)
            res = conc.concentrate(psi_mat, kind)
            res.output[...] = 7.0
            vec, _ = conc.measurement_vector(psi_mat, kind)
            vec[...] = 7.0
            _assert_same_bits(_results(psi_mat, kind), expected)
            # nor does writing into the Psi the kept result was made from
            mine = psi_mat.copy()
            _evict()
            conc.concentrate(mine, kind)
            mine[...] = 7.0
            _assert_same_bits(_results(psi_mat, kind), expected)


@settings(max_examples=40, deadline=None)
@given(schmidt_operators(), st.sampled_from(["m", "M"]))
def test_results_after_a_hit_equal_a_fresh_call_bit_for_bit(psi_mat, kind):
    expected = _fresh_results(psi_mat, kind)
    _evict()
    # concentrate misses; measurement_vector and probability_consistency hit
    _assert_same_bits(_results(psi_mat, kind), expected)


def test_ill_conditioned_psi_is_refused_by_every_call():
    # cond(Psi) = 1e13 is past the 1e12 limit of the guarded inverse
    near_singular = np.diag([1.0, 1e-13]).astype(complex)
    near_singular /= np.linalg.norm(near_singular)
    for call in (conc.concentrate, conc.probability_consistency, conc.measurement_vector):
        for kind in ("m", "M"):
            with pytest.raises(ValueError, match="ill-conditioned"):
                call(near_singular, kind)
    # Psi^dag Psi^dag = s I is perfectly conditioned while Psi is not:
    # every call inverts Psi^dag itself, so every call refuses Psi
    swap = np.array([[0.0, 1.0], [1e-13, 0.0]], dtype=complex)
    swap /= np.linalg.norm(swap)
    assert np.linalg.cond(dagger(swap) @ dagger(swap)) < 2.0
    for call in (conc.concentrate, conc.probability_consistency, conc.measurement_vector):
        for kind in ("m", "M"):
            with pytest.raises(ValueError, match="ill-conditioned"):
                call(swap, kind)


def test_a_bad_inverse_is_refused_by_the_residual_gate(monkeypatch):
    good = conc.random_schmidt_operator(3, 173)
    bad = conc.random_schmidt_operator(3, 179)
    conc.concentrate(good, "M")
    exact = np.linalg.inv

    def off(a):
        inv = exact(a)
        inv[0, 1] += 1e-6
        return inv

    monkeypatch.setattr(np.linalg, "inv", off)
    for call in CALLS:
        for kind in ("m", "M"):
            with pytest.raises(ValueError, match="^inversion residual"):
                call(bad, kind)

    def forbidden(*args, **kwargs):
        raise AssertionError("inverted again")

    # the refusals kept nothing, so the good Psi is still kept and hits
    monkeypatch.setattr(np.linalg, "inv", forbidden)
    conc.probability_consistency(good, "M")
    conc.measurement_vector(good, "M")


def test_threads_sharing_the_kept_result_get_their_own_psi_results():
    # the kept key and result are one tuple, replaced whole, so a thread
    # that hits reads the result made for its own key
    rng = np.random.default_rng(167)
    cases = [(conc.random_schmidt_operator(d, rng), kind) for d in (2, 3) for kind in ("m", "M")]
    expected = [_fresh_results(psi_mat, kind) for psi_mat, kind in cases]
    errors = []

    def work(offset):
        try:
            for step in range(60):
                i = (offset + step // 2) % len(cases)
                _assert_same_bits(_results(*cases[i]), expected[i])
        except Exception as exc:  # a thread's exception would otherwise only be printed
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
