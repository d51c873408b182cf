"""``ppt``'s partial transpose and density-matrix check, against the index-loop oracle."""

import numpy as np
import pytest

from witwire import ppt

from oracles import partial_transpose_oracle


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_density(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_partial_transpose_matches_oracle():
    rng = np.random.default_rng(53)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        dims = [int(rng.integers(2, 4)) for _ in range(n)]
        k = int(rng.integers(1, n + 1))
        slots = sorted(rng.permutation(n)[:k].tolist())
        a = random_matrix(rng, int(np.prod(dims)))
        got = ppt.partial_transpose(a, dims, slots)
        want = partial_transpose_oracle(a, dims, slots)
        assert np.max(np.abs(got - want)) < 1e-12


def test_partial_transpose_involution_and_full():
    rng = np.random.default_rng(59)
    dims = [2, 2, 3]
    a = random_matrix(rng, 12)
    twice = ppt.partial_transpose(ppt.partial_transpose(a, dims, [1]), dims, [1])
    assert np.max(np.abs(twice - a)) == 0.0
    everything = ppt.partial_transpose(a, dims, [0, 1, 2])
    assert np.max(np.abs(everything - a.T)) == 0.0


@pytest.mark.parametrize(
    "slots", [[], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]], ids=lambda s: "pt" + "".join(map(str, s))
)
def test_partial_transpose_acts_slot_by_slot_on_a_product(slots):
    # slot 0 is the leftmost kron factor: transposing slot s transposes
    # the s-th factor of A (x) B (x) C and leaves the others alone
    rng = np.random.default_rng(61)
    dims = [2, 3, 2]
    factors = [random_matrix(rng, d) for d in dims]
    got = ppt.partial_transpose(np.kron(np.kron(*factors[:2]), factors[2]), dims, slots)
    want = [f.T if s in slots else f for s, f in enumerate(factors)]
    assert np.max(np.abs(got - np.kron(np.kron(*want[:2]), want[2]))) < 1e-14


def test_partial_transpose_of_a_bell_state_is_half_the_swap():
    # |phi+><phi+| with its second qubit transposed is SWAP / 2
    phi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    swap = np.eye(4)[[0, 2, 1, 3]]
    got = ppt.partial_transpose(np.outer(phi, phi.conj()), [2, 2], [1])
    assert np.max(np.abs(got - swap / 2.0)) < 1e-15


def test_complementary_partial_transposes_are_transposes_of_each_other():
    rng = np.random.default_rng(71)
    dims = [3, 2, 2]
    a = random_matrix(rng, 12)
    some = ppt.partial_transpose(a, dims, [0, 2])
    rest = ppt.partial_transpose(a, dims, [1])
    assert np.max(np.abs(some - rest.T)) == 0.0


def test_partial_transpose_ignores_slot_order_and_reads_numpy_ints():
    rng = np.random.default_rng(73)
    dims = [2, 3, 2]
    a = random_matrix(rng, 12)
    want = ppt.partial_transpose(a, dims, [0, 2])
    assert np.array_equal(ppt.partial_transpose(a, dims, [2, 0]), want)
    assert np.array_equal(ppt.partial_transpose(a, dims, np.array([2, 0])), want)


def test_check_density_matrix():
    rng = np.random.default_rng(67)
    rho = random_density(rng, 6)
    ppt.check_density_matrix(rho, [2, 3])
    with pytest.raises(ValueError):
        ppt.check_density_matrix(rho * 2.0, [2, 3])  # trace 2
    bad = rho.copy()
    bad[0, 1] += 0.1  # hermiticity broken
    with pytest.raises(ValueError):
        ppt.check_density_matrix(bad, [2, 3])
    neg = np.diag([1.5, -0.5, 0.0, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        ppt.check_density_matrix(neg, [2, 3])


def test_check_density_matrix_rejects_non_finite():
    for bad in (np.nan, np.inf):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 0] = bad
        with pytest.raises(ValueError):
            ppt.check_density_matrix(rho, [2, 2])


# a 2x2 operator on dims [2, 1]: one slot holds less than a qubit
@pytest.mark.parametrize(
    "entry",
    [
        lambda m: ppt.partial_transpose(m, [2, 1], [1]),
        lambda m: ppt.check_density_matrix(m, [2, 1]),
    ],
    ids=["partial_transpose", "check_density_matrix"],
)
def test_every_entry_point_refuses_a_unit_dimension_with_the_shared_message(entry):
    with pytest.raises(ValueError, match="^local dimension must be >= 2, got 1$"):
        entry(np.eye(2, dtype=complex) / 2.0)


# a 4x4 operator on dims [2, 3], whose product is 6
@pytest.mark.parametrize(
    "entry",
    [
        lambda m: ppt.partial_transpose(m, [2, 3], [1]),
        lambda m: ppt.check_density_matrix(m, [2, 3]),
    ],
    ids=["partial_transpose", "check_density_matrix"],
)
def test_every_entry_point_refuses_a_shape_that_does_not_match_dims(entry):
    with pytest.raises(ValueError) as exc:
        entry(np.eye(4, dtype=complex) / 4.0)
    assert str(exc.value) == "operator has shape (4, 4), expected (6, 6) for dims [2, 3]"


@pytest.mark.parametrize(
    "slots, message",
    [
        ([0, 0], r"^repeated slot in \[0, 0\]$"),
        ([2], r"^slot index out of range in \[2\] for 2 slots$"),
        ([-1], r"^slot index out of range in \[-1\] for 2 slots$"),
        ([1.0], r"^slots \[1.0\] are not all ints$"),
        ([True], r"^slots \[True\] are not all ints$"),
    ],
)
@pytest.mark.parametrize(
    "entry",
    [
        lambda s: ppt.partial_transpose(np.eye(4, dtype=complex), [2, 2], s),
    ],
    ids=["partial_transpose"],
)
def test_every_slot_entry_point_refuses_with_the_shared_message(entry, slots, message):
    with pytest.raises(ValueError, match=message):
        entry(slots)
