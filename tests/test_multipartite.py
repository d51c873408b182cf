import numpy as np
import pytest

from witwire import multipartite as mp

from oracles import (
    embed_oracle,
    partial_trace_oracle,
    partial_transpose_oracle,
    permute_oracle,
)


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_density(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_permute_swap_two_qubits():
    # |01><01| under a swap of the two slots becomes |10><10|
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0
    swapped = mp.permute_subsystems(rho, [2, 2], [1, 0])
    expected = np.zeros((4, 4), dtype=complex)
    expected[2, 2] = 1.0
    assert np.array_equal(swapped, expected)


def test_permute_identity_and_inverse():
    rng = np.random.default_rng(3)
    dims = [2, 3, 2]
    a = random_matrix(rng, 12)
    assert np.array_equal(mp.permute_subsystems(a, dims, [0, 1, 2]), a)
    perm = [2, 0, 1]
    moved = mp.permute_subsystems(a, dims, perm)
    inv = [perm.index(t) for t in range(3)]
    back = mp.permute_subsystems(moved, [dims[i] for i in inv], inv)
    assert np.max(np.abs(back - a)) == 0.0


def test_permute_matches_oracle():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        dims = [int(rng.integers(2, 4)) for _ in range(n)]
        perm = list(rng.permutation(n))
        a = random_matrix(rng, int(np.prod(dims)))
        got = mp.permute_subsystems(a, dims, perm)
        want = permute_oracle(a, dims, perm)
        assert np.max(np.abs(got - want)) < 1e-12


def test_embed_single_slot_matches_kron():
    rng = np.random.default_rng(29)
    x = random_matrix(rng, 2)
    full = mp.embed(x, [2], [1], [2, 2])
    assert np.max(np.abs(full - np.kron(np.eye(2), x))) < 1e-14
    full0 = mp.embed(x, [2], [0], [2, 2])
    assert np.max(np.abs(full0 - np.kron(x, np.eye(2)))) < 1e-14


def test_embed_matches_oracle():
    rng = np.random.default_rng(37)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        dims = [int(rng.integers(2, 4)) for _ in range(n)]
        k = int(rng.integers(1, n + 1))
        slots = list(rng.permutation(n)[:k])
        local_dims = [dims[s] for s in slots]
        local = random_matrix(rng, int(np.prod(local_dims)))
        got = mp.embed(local, local_dims, slots, dims)
        want = embed_oracle(local, local_dims, slots, dims)
        assert np.max(np.abs(got - want)) < 1e-12


def test_embed_rejects_bad_slots():
    x = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        mp.embed(x, [2], [0, 0], [2, 2])  # repeated slot
    with pytest.raises(ValueError):
        mp.embed(x, [3], [0], [2, 2])  # dim mismatch


def test_partial_trace_bell_state():
    psi = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    rho = np.outer(psi, psi.conj())
    reduced = mp.partial_trace(rho, [2, 2], [1])
    assert np.max(np.abs(reduced - np.eye(2) / 2.0)) < 1e-14


def test_partial_trace_matches_oracle():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        dims = [int(rng.integers(2, 4)) for _ in range(n)]
        k = int(rng.integers(1, n))
        traced = sorted(rng.permutation(n)[:k].tolist())
        a = random_matrix(rng, int(np.prod(dims)))
        got = mp.partial_trace(a, dims, traced)
        want = partial_trace_oracle(a, dims, traced)
        assert np.max(np.abs(got - want)) < 1e-12
        # tracing preserves the full trace
        assert abs(np.trace(got) - np.trace(a)) < 1e-10


def test_partial_transpose_matches_oracle():
    rng = np.random.default_rng(53)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        dims = [int(rng.integers(2, 4)) for _ in range(n)]
        k = int(rng.integers(1, n + 1))
        slots = sorted(rng.permutation(n)[:k].tolist())
        a = random_matrix(rng, int(np.prod(dims)))
        got = mp.partial_transpose(a, dims, slots)
        want = partial_transpose_oracle(a, dims, slots)
        assert np.max(np.abs(got - want)) < 1e-12


def test_partial_transpose_involution_and_full():
    rng = np.random.default_rng(59)
    dims = [2, 2, 3]
    a = random_matrix(rng, 12)
    twice = mp.partial_transpose(mp.partial_transpose(a, dims, [1]), dims, [1])
    assert np.max(np.abs(twice - a)) == 0.0
    everything = mp.partial_transpose(a, dims, [0, 1, 2])
    assert np.max(np.abs(everything - a.T)) == 0.0


def test_check_density_matrix():
    rng = np.random.default_rng(67)
    rho = random_density(rng, 6)
    mp.check_density_matrix(rho, [2, 3])
    with pytest.raises(ValueError):
        mp.check_density_matrix(rho * 2.0, [2, 3])  # trace 2
    bad = rho.copy()
    bad[0, 1] += 0.1  # hermiticity broken
    with pytest.raises(ValueError):
        mp.check_density_matrix(bad, [2, 3])
    neg = np.diag([1.5, -0.5, 0.0, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        mp.check_density_matrix(neg, [2, 3])


def test_check_density_matrix_rejects_non_finite():
    for bad in (np.nan, np.inf):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 0] = bad
        with pytest.raises(ValueError):
            mp.check_density_matrix(rho, [2, 2])


# a 2x2 operator on dims [2, 1]: one slot holds less than a qubit
@pytest.mark.parametrize(
    "entry",
    [
        lambda m: mp.permute_subsystems(m, [2, 1], [1, 0]),
        lambda m: mp.embed(m, [2, 1], [0, 1], [2, 1]),
        lambda m: mp.partial_trace(m, [2, 1], [1]),
        lambda m: mp.partial_transpose(m, [2, 1], [1]),
        lambda m: mp.check_density_matrix(m, [2, 1]),
    ],
    ids=["permute_subsystems", "embed", "partial_trace", "partial_transpose", "check_density_matrix"],
)
def test_every_entry_point_refuses_a_unit_dimension_with_the_shared_message(entry):
    with pytest.raises(ValueError, match="^local dimension must be >= 2, got 1$"):
        entry(np.eye(2, dtype=complex) / 2.0)


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
        lambda s: mp.embed(np.eye(2 ** len(s), dtype=complex), [2] * len(s), s, [2, 2]),
        lambda s: mp.partial_trace(np.eye(4, dtype=complex), [2, 2], s),
        lambda s: mp.partial_transpose(np.eye(4, dtype=complex), [2, 2], s),
    ],
    ids=["embed", "partial_trace", "partial_transpose"],
)
def test_every_slot_entry_point_refuses_with_the_shared_message(entry, slots, message):
    with pytest.raises(ValueError, match=message):
        entry(slots)
