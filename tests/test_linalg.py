import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from witwire import linalg
from witwire.ppt import check_density_matrix


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
    xx = np.kron(linalg.PAULI_X, linalg.PAULI_X)
    assert abs(linalg.min_eigenvalue(xx) + 1.0) < 1e-14


def test_inverse_roundtrip():
    rng = np.random.default_rng(31)
    for n in [2, 3, 4, 6]:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a += 3.0 * np.eye(n)  # keep it comfortably invertible
        inv = linalg.inverse(a)
        assert np.max(np.abs(a @ inv - np.eye(n))) < 1e-10
        assert np.max(np.abs(inv @ a - np.eye(n))) < 1e-10


def test_inverse_rejects_singular():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(ValueError):
        linalg.inverse(singular)


def test_inverse_refuses_the_zero_and_the_empty_matrix():
    with pytest.raises(ValueError, match="condition estimate inf"):
        linalg.inverse(np.zeros((3, 3), dtype=complex))
    with pytest.raises(ValueError, match="empty matrix"):
        linalg.inverse(np.zeros((0, 0), dtype=complex))


def test_inverse_refuses_an_inverse_that_overflowed():
    # well conditioned (cond 1), but 1/a overflows and the residual is NaN
    with pytest.raises(ValueError, match="inversion residual nan"):
        linalg.inverse(np.array([[2.22507386e-313j]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_inverse_names_non_finite_entries(n, bad):
    a = np.eye(n, dtype=complex)
    a[0, n - 1] = bad
    with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        linalg.inverse(a)


@st.composite
def small_square_matrices(draw):
    """Random, rank-deficient or all-zero d x d complex matrices, d <= 4."""
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "rank_deficient", "zero"] if d > 1 else ["random", "zero"]))
    if kind == "zero":
        return np.zeros((d, d), dtype=complex)
    parts = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)

    def block(rows, cols):
        re = draw(st.lists(parts, min_size=rows * cols, max_size=rows * cols))
        im = draw(st.lists(parts, min_size=rows * cols, max_size=rows * cols))
        return (np.array(re) + 1j * np.array(im)).reshape(rows, cols)

    if kind == "random":
        return block(d, d)
    rank = draw(st.integers(0, d - 1))
    return block(d, rank) @ block(rank, d)


@settings(max_examples=200, deadline=None)
@given(small_square_matrices())
@example(np.array([[0.0, 8j], [4.19761955e-308j, 0.0]]))  # the ratio overflows to inf
def test_inverse_gates_on_exactly_np_linalg_cond(a):
    ratio = linalg.condition_number(a)
    cond = np.linalg.cond(a)
    assert ratio == cond or (np.isinf(ratio) and np.isinf(cond))
    if not cond < linalg.CONDITION_LIMIT:
        with pytest.raises(ValueError, match="singular or ill-conditioned"):
            linalg.inverse(a)
        return
    try:
        inv = linalg.inverse(a)
    except ValueError as exc:  # past the condition gate only the residual gate remains
        assert "inversion residual" in str(exc)
    else:
        assert np.array_equal(inv, np.linalg.inv(a))


def test_pauli_matrices():
    for p in (linalg.PAULI_X, linalg.PAULI_Y, linalg.PAULI_Z):
        assert np.allclose(p @ p, np.eye(2))
        assert linalg.hermiticity_defect(p) <= linalg.HERMITICITY_TOL
        assert abs(np.trace(p)) < 1e-15
