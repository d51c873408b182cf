import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from witwire import concentration as conc
from witwire import linalg
from witwire.ppt import check_density_matrix
from witwire.witnesses import PAULI_X


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def test_dagger_is_conjugate_transpose():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.array_equal(linalg.dagger(a), a.conj().T)
    assert np.allclose(linalg.dagger(linalg.dagger(a)), a)


def test_hermiticity_defect_and_predicate():
    rng = np.random.default_rng(11)
    h = random_hermitian(rng, 4)
    assert linalg.hermiticity_defect(h) <= 1e-15
    assert linalg.hermiticity_defect(h) <= linalg.HERMITICITY_TOL
    bumped = h.copy()
    bumped[0, 1] += 1e-6
    assert not linalg.hermiticity_defect(bumped) <= linalg.HERMITICITY_TOL
    assert linalg.hermiticity_defect(bumped) > 1e-7


def test_check_hermitian_refuses_a_defect_above_its_bound_only():
    h = random_hermitian(np.random.default_rng(13), 4)
    near, far = h.copy(), h.copy()
    near[0, 1] += 1e-11
    far[0, 1] += 1e-9
    linalg.check_hermitian(near, "near")
    with pytest.raises(ValueError, match="far is not Hermitian"):
        linalg.check_hermitian(far, "far")


def test_hermitian_eig_reconstructs():
    rng = np.random.default_rng(23)
    for n in [2, 3, 5, 8]:
        for _ in range(20):
            h = random_hermitian(rng, n)
            vals, vecs = linalg.hermitian_eig(h)
            assert np.all(np.diff(vals) >= 0)  # ascending
            recon = vecs @ np.diag(vals) @ vecs.conj().T
            assert np.max(np.abs(recon - h)) < 1e-12
            assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(n))) < 1e-12


def test_hermitian_eig_rejects_non_hermitian():
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.hermitian_eig(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hermitian_eig_rejects_non_finite(bad):
    a = np.eye(4, dtype=complex) / 4.0
    a[0, 0] = bad
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.hermitian_eig(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "gate",
    [
        linalg.hermitian_eig,
        lambda a: check_density_matrix(a, [2, 2]),
        lambda a: linalg.check_hermitian(a, "matrix"),
    ],
    ids=["hermitian_eig", "check_density_matrix", "check_hermitian"],
)
def test_every_hermiticity_gate_names_non_finite_input(gate, bad):
    a = np.eye(4, dtype=complex) / 4.0
    a[1, 2] = bad
    with pytest.raises(ValueError, match="not Hermitian: it has non-finite entries"):
        gate(a)


def test_min_eigenvalue_known_values():
    assert abs(linalg.min_eigenvalue(np.diag([3.0, -1.0, 1.0])) + 1.0) < 1e-14
    xx = np.kron(PAULI_X, PAULI_X)
    assert abs(linalg.min_eigenvalue(xx) + 1.0) < 1e-14


# The guarded inverse is concentration's: Psi^dag is inverted in one
# place, behind Psi's own gates, for every entry point and both kinds.
ENTRY_POINTS = (conc.concentrate, conc.probability_consistency, conc.measurement_vector)


def _evict():
    """Make the next call on any other (Psi, kind) a fresh one."""
    conc.measurement_vector(np.diag([0.6, 0.8]).astype(complex), "m")


def _forbid_inverse(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the input reached the inverse")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(np.linalg, "inv", forbidden)


def _refused_by_every_entry_point(psi_mat, match):
    for call in ENTRY_POINTS:
        for kind in ("m", "M"):
            with pytest.raises(ValueError, match=match):
                call(psi_mat, kind)


def test_inverse_roundtrip():
    rng = np.random.default_rng(31)
    for n in [2, 3, 4, 6]:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a += 3.0 * np.eye(n)  # keep it comfortably invertible
        psi_mat = a / np.linalg.norm(a)
        psi_dag = linalg.dagger(psi_mat)
        for kind, inverted in (("m", psi_dag), ("M", psi_dag @ psi_dag)):
            inv = conc.measurement_vector(psi_mat, kind)[0].reshape(n, n) * np.sqrt(n)
            assert np.max(np.abs(inverted @ inv - np.eye(n))) < 1e-10
            assert np.max(np.abs(inv @ inverted - np.eye(n))) < 1e-10


def test_inverse_rejects_singular():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    _refused_by_every_entry_point(singular / np.linalg.norm(singular), "singular or ill-conditioned")


def test_inverse_refuses_the_zero_and_the_empty_matrix(monkeypatch):
    _forbid_inverse(monkeypatch)
    _refused_by_every_entry_point(np.zeros((3, 3), dtype=complex), r"^Tr\(Psi\^dag Psi\) = 0\.0,")
    _refused_by_every_entry_point(np.zeros((0, 0), dtype=complex), "^local dimension must be >= 2, got 0$")


def test_inverse_refuses_an_inverse_that_overflowed(monkeypatch):
    # as if 1/a had overflowed: the residual is NaN, which the gate refuses
    exact = np.linalg.inv

    def overflowed(a):
        inv = exact(a)
        inv[0, 0] = np.inf
        return inv

    _evict()
    monkeypatch.setattr(np.linalg, "inv", overflowed)
    with np.errstate(invalid="ignore"):  # 0 * inf in the residual product
        _refused_by_every_entry_point(np.eye(2, dtype=complex) / np.sqrt(2.0), "^inversion residual nan exceeds")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_inverse_names_non_finite_entries(n, bad, monkeypatch):
    a = np.eye(n, dtype=complex)
    a[0, n - 1] = bad
    _forbid_inverse(monkeypatch)
    _refused_by_every_entry_point(a, "^Psi has non-finite entries$")


@st.composite
def small_square_matrices(draw):
    """Random or rank-deficient d x d complex matrices, 2 <= d <= 4, with a Frobenius norm to divide by."""
    d = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["random", "rank_deficient"]))
    parts = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)

    def block(rows, cols):
        re = draw(st.lists(parts, min_size=rows * cols, max_size=rows * cols))
        im = draw(st.lists(parts, min_size=rows * cols, max_size=rows * cols))
        return (np.array(re) + 1j * np.array(im)).reshape(rows, cols)

    if kind == "random":
        a = block(d, d)
    else:
        rank = draw(st.integers(1, d - 1))
        a = block(d, rank) @ block(rank, d)
    assume(np.linalg.norm(a) > 1e-100)  # a zero or underflowing norm leaves no Psi = a / |a|
    return a


@settings(max_examples=200, deadline=None)
@given(small_square_matrices())
@example(np.array([[0.0, 8j], [4.19761955e-308j, 0.0]]))  # the ratio overflows to inf
def test_inverse_gates_on_exactly_np_linalg_cond(a):
    psi_mat = a / np.linalg.norm(a)
    psi_dag = linalg.dagger(psi_mat)
    ratio = conc._condition_number(psi_dag)
    cond = np.linalg.cond(psi_dag)
    assert ratio == cond or (np.isinf(ratio) and np.isinf(cond))
    if not cond < conc.CONDITION_LIMIT:
        _refused_by_every_entry_point(psi_mat, "singular or ill-conditioned")
        return
    for call in ENTRY_POINTS:
        for kind in ("m", "M"):
            try:
                out = call(psi_mat, kind)
            except ValueError as exc:  # past the condition gate only the residual gate remains,
                # and concentrate's refusal of a vanishing outcome probability
                assert "inversion residual" in str(exc) or (
                    call is conc.concentrate and "measurement outcome has probability" in str(exc)
                )
                continue
            if call is conc.measurement_vector and kind == "m":
                assert np.array_equal(out[0], np.linalg.inv(psi_dag).reshape(-1) / np.sqrt(psi_mat.shape[0]))
