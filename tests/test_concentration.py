import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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


@settings(max_examples=60, deadline=None)
@given(schmidt_operators(), st.sampled_from(["m", "M"]))
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


def test_concentrate_rejects_output_above_max_dim():
    psi_mat = np.eye(17, dtype=complex) / np.sqrt(17.0)  # 17^2 = 289 > MAX_DIM
    for call in (conc.concentrate, conc.probability_consistency, conc.measurement_vector):
        with pytest.raises(ValueError, match="MAX_DIM"):
            call(psi_mat, "m")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_psi_raises_by_name(bad):
    psi_mat = np.eye(2, dtype=complex) / np.sqrt(2.0)
    psi_mat[0, 1] = bad
    for call in (conc.concentrate, conc.probability_consistency, conc.measurement_vector):
        for kind in ("m", "M"):
            with pytest.raises(ValueError, match="non-finite"):
                call(psi_mat, kind)


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


def test_each_call_validates_psi_once(monkeypatch):
    counts = {"check": 0, "inverse": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(conc, "check_schmidt_operator", counting("check", conc.check_schmidt_operator))
    monkeypatch.setattr(conc, "inverse", counting("inverse", conc.inverse))
    psi_mat = conc.random_schmidt_operator(3, 151)
    # both kinds invert Psi^dag once; kind "M" squares that inverse
    for call in (conc.concentrate, conc.probability_consistency, conc.measurement_vector):
        for kind in ("m", "M"):
            counts.update(check=0, inverse=0)
            call(psi_mat, kind)
            assert counts == {"check": 1, "inverse": 1}, (call.__name__, kind)


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
