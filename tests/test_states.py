from dataclasses import fields, replace

import numpy as np
import pytest

from oracles import FAMILY_ORACLES
from witwire import states
from witwire.concentration import check_schmidt_operator
from witwire.ppt import check_density_matrix


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
    werner_w = states.FAMILIES["werner_w"]
    pure = werner_w(0.0)
    assert np.max(np.abs(pure - states.projector(states.bell("psi_plus", 2)))) < 1e-14
    mixed = werner_w(1.0)
    assert np.max(np.abs(mixed - np.eye(4) / 4.0)) < 1e-14


def test_werner_a_endpoints():
    werner_a = states.FAMILIES["werner_a"]
    assert np.max(np.abs(werner_a(0.0) - np.eye(4) / 4.0)) < 1e-14
    top = werner_a(1.0)
    assert np.max(np.abs(top - states.projector(states.bell("psi_minus", 2)))) < 1e-14


def test_noisy_w_endpoints():
    noisy_w = states.FAMILIES["noisy_w"]
    clean = noisy_w(0.0)
    assert np.max(np.abs(clean - states.projector(states.w_state()))) < 1e-14
    assert np.max(np.abs(noisy_w(1.0) - np.eye(8) / 8.0)) < 1e-14


@pytest.mark.parametrize("name", sorted(FAMILY_ORACLES))
def test_families_match_their_formulas_bit_for_bit(name):
    family, formula = states.FAMILIES[name], FAMILY_ORACLES[name]
    special = [0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0), 0.5]
    for p in [*special, *np.random.default_rng(17).uniform(0.0, 1.0, 500)]:
        assert family(p).tobytes() == formula(float(p)).tobytes(), p


def test_family_parameter_outside_the_unit_interval_is_refused():
    werner_w = states.FAMILIES["werner_w"]
    with pytest.raises(ValueError, match=r"^parameter w=1\.5 outside \[0\.0, 1\.0\]$"):
        werner_w(1.5)
    with pytest.raises(ValueError, match=r"^parameter w=nan outside"):
        werner_w(float("nan"))
    # the sub-range a sweep covers does not narrow where the family is defined
    narrow = replace(werner_w, param_range=(0.2, 0.4))
    assert np.array_equal(narrow(0.9), werner_w(0.9))


def test_family_ends_are_read_only_copies():
    ends = (np.eye(4, dtype=complex) / 4.0, np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    family = states.StateFamily("toy", (2, 2), "t", (0.0, 1.0), ends)
    ends[0][0, 0] = 7.0  # the caller's arrays stay the caller's
    assert family(0.0)[0, 0] == 0.25
    for end in family.ends:
        with pytest.raises(ValueError, match="read-only"):
            end[0, 0] = 1.0
    assert len(fields(states.StateFamily)) == 5


@pytest.mark.parametrize(
    "end, message",
    [(np.array(0.25), "expected a square matrix"), (np.eye(8) / 8.0, r"has shape \(8, 8\)")],
    ids=["scalar", "wrong_dims"],
)
def test_family_ends_must_be_operators_on_its_dims(end, message):
    # a scalar end would broadcast into every entry of p * rho1 + (1 - p) * rho0
    with pytest.raises(ValueError, match=message):
        states.StateFamily("toy", (2, 2), "t", (0.0, 1.0), (np.eye(4) / 4.0, end))


def test_family_ends_must_be_hermitian():
    # a real, non-symmetric end used to be swept as its symmetric part
    end = np.diag([1.0, 0.0, 0.0, 0.0])
    end[0, 3] = 0.2
    with pytest.raises(ValueError, match=r"^family toy end is not Hermitian: max\|A - A\^dag\| = 2\.000e-01"):
        states.StateFamily("toy", (2, 2), "t", (0.0, 1.0), (np.eye(4) / 4.0, end))
    with pytest.raises(ValueError, match=r"^family toy end is not Hermitian: it has non-finite entries$"):
        states.StateFamily("toy", (2, 2), "t", (0.0, 1.0), (np.full((4, 4), np.nan), end.T @ end))


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
    [lambda d: states.bell("psi_plus", d), lambda d: check_schmidt_operator(np.eye(d))],
    ids=["bell", "check_schmidt_operator"],
)
def test_local_dimension_rule_has_one_message(entry, d):
    with pytest.raises(ValueError, match=f"^local dimension must be >= 2, got {d}$"):
        entry(d)
