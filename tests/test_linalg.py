import numpy as np
import pytest

from witwire import linalg
from witwire.multipartite import check_density_matrix


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


def test_pauli_matrices():
    for p in (linalg.PAULI_X, linalg.PAULI_Y, linalg.PAULI_Z):
        assert np.allclose(p @ p, np.eye(2))
        assert linalg.hermiticity_defect(p) <= linalg.HERMITICITY_TOL
        assert abs(np.trace(p)) < 1e-15
