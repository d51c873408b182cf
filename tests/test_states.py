import numpy as np
import pytest

from witwire import states
from witwire.multipartite import check_density_matrix


def test_bell_psi_plus_any_dimension():
    for d in [2, 3, 5]:
        v = states.bell("psi_plus", d)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-14
        # uniform weight on the diagonal kets |ii>
        for i in range(d):
            assert abs(v[i * d + i] - 1.0 / np.sqrt(d)) < 1e-14
        assert np.count_nonzero(v) == d


def test_bell_qubit_states():
    psi_minus = states.bell("psi_minus")
    phi_plus = states.bell("phi_plus")
    root2 = np.sqrt(2.0)
    assert np.allclose(psi_minus, np.array([1.0, 0.0, 0.0, -1.0]) / root2)
    assert np.allclose(phi_plus, np.array([0.0, 1.0, 1.0, 0.0]) / root2)
    # the off-diagonal pair exists only for qubits
    with pytest.raises(ValueError):
        states.bell("phi_plus", 3)
    with pytest.raises(ValueError):
        states.bell("nope")


def test_projector():
    v = states.bell("psi_plus", 3)
    p = states.projector(v)
    assert abs(np.trace(p) - 1.0) < 1e-14
    assert np.max(np.abs(p @ p - p)) < 1e-14


def test_ghz_and_w_state():
    ghz = states.ghz()
    assert abs(np.linalg.norm(ghz) - 1.0) < 1e-14
    assert abs(ghz[0] - 1.0 / np.sqrt(2.0)) < 1e-14
    assert abs(ghz[7] - 1.0 / np.sqrt(2.0)) < 1e-14
    w = states.w_state()
    assert abs(np.linalg.norm(w) - 1.0) < 1e-14
    # support on |001>, |010>, |100>
    assert np.count_nonzero(w) == 3
    for idx in (1, 2, 4):
        assert abs(w[idx] - 1.0 / np.sqrt(3.0)) < 1e-14


def test_sigma_is_a_pure_state_with_imaginary_coherences():
    sigma = states.sigma_imaginarity()
    check_density_matrix(sigma, [2, 2])
    assert np.max(np.abs(sigma @ sigma - sigma)) < 1e-14  # rank one
    assert abs(sigma[1, 2] - 0.5j) < 1e-14
    # the real part alone is a valid (mixed) state
    check_density_matrix(sigma.real.astype(complex), [2, 2])


def test_parameterized_families_are_density_matrices():
    rng = np.random.default_rng(5)
    for name, fam in states.FAMILIES.items():
        lo, hi = fam.param_range
        for p in [lo, hi, *rng.uniform(lo, hi, size=5)]:
            rho = fam(float(p))
            check_density_matrix(rho, list(fam.dims))
        with pytest.raises(ValueError):
            fam(lo - 0.25)
        with pytest.raises(ValueError):
            fam(hi + 0.25)


def test_werner_w_endpoints():
    pure = states.werner_w(0.0)
    assert np.max(np.abs(pure - states.projector(states.bell("psi_plus", 2)))) < 1e-14
    mixed = states.werner_w(1.0)
    assert np.max(np.abs(mixed - np.eye(4) / 4.0)) < 1e-14


def test_werner_a_endpoints():
    assert np.max(np.abs(states.werner_a(0.0) - np.eye(4) / 4.0)) < 1e-14
    top = states.werner_a(1.0)
    assert np.max(np.abs(top - states.projector(states.bell("psi_minus", 2)))) < 1e-14


def test_noisy_w_endpoints():
    clean = states.noisy_w(0.0)
    assert np.max(np.abs(clean - states.projector(states.w_state()))) < 1e-14
    assert np.max(np.abs(states.noisy_w(1.0) - np.eye(8) / 8.0)) < 1e-14


def test_fixed_states_table():
    for name, (rho, dims) in states.FIXED_STATES.items():
        check_density_matrix(rho, list(dims))
    assert "ghz" in states.FIXED_STATES
    assert "sigma" in states.FIXED_STATES
    assert states.FIXED_STATES["bell_psi_plus"][1] == (2, 2)


def test_shared_states_are_read_only_and_families_return_fresh_arrays():
    for rho, _ in states.FIXED_STATES.values():
        with pytest.raises(ValueError, match="read-only"):
            rho[0, 0] = 1.0
    for family in states.FAMILIES.values():
        rho = family(0.3)
        rho[0, 0] = 7.0  # the caller owns what a family returns
        assert family(0.3)[0, 0] != 7.0


@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize(
    "entry",
    [lambda d: states.bell("psi_plus", d), lambda d: states.check_schmidt_operator(np.eye(d))],
    ids=["bell", "check_schmidt_operator"],
)
def test_local_dimension_rule_has_one_message(entry, d):
    with pytest.raises(ValueError, match=f"^local dimension must be >= 2, got {d}$"):
        entry(d)
