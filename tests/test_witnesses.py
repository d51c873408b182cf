import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import min_product_expectation_oracle, product_state_batch
from witwire import witnesses
from witwire.linalg import HERMITICITY_TOL, hermitian_eig, hermiticity_defect
from witwire.states import projector, w_state


def eigs(name, b=None):
    vals, _ = hermitian_eig(witnesses.catalog(name, b=b).matrix)
    return vals


def test_pauli_matrices():
    for p in (witnesses.PAULI_X, witnesses.PAULI_Y, witnesses.PAULI_Z):
        assert np.allclose(p @ p, np.eye(2))
        assert hermiticity_defect(p) <= HERMITICITY_TOL
        assert abs(np.trace(p)) < 1e-15


def test_pair_witness_spectra():
    # the identity-plus-two-Pauli-terms entries all share one negative direction
    for name in ("W", "W1", "W4"):
        assert np.max(np.abs(eigs(name) - np.array([-1.0, 1.0, 1.0, 3.0]))) < 1e-12
    # the partially transposed projectors sit at trace 2
    for name in ("V", "W2", "W3"):
        assert np.max(np.abs(eigs(name) - np.array([-1.0, 1.0, 1.0, 1.0]))) < 1e-12
        assert abs(np.trace(witnesses.catalog(name).matrix).real - 2.0) < 1e-12


def test_p_is_positive_semidefinite():
    vals = eigs("P")
    assert vals[0] > -1e-12
    assert witnesses.catalog("P").kind == "positive_semidefinite"


def test_p_b_family():
    # b=1 collapses to P scaled by 1/4
    p = witnesses.catalog("P").matrix
    p1 = witnesses.catalog("P_b", b=1.0).matrix
    assert np.max(np.abs(p1 - p / 4.0)) < 1e-14
    for b in (1.0, 2.0, 10.0, 100.0):
        vals = eigs("P_b", b=b)
        assert vals[0] > -1e-12
    with pytest.raises(ValueError):
        witnesses.catalog("P_b")  # parameter required
    with pytest.raises(ValueError):
        witnesses.catalog("P_b", b=0.5)  # below the PSD range
    with pytest.raises(ValueError):
        witnesses.catalog("W", b=2.0)  # parameter rejected


@pytest.mark.parametrize("b", [math.nan, math.inf])
def test_p_b_rejects_a_non_finite_b(b):
    # NaN fails no "b < 1" test, and inf builds inf / inf = NaN entries
    with pytest.raises(ValueError, match="finite b >= 1"):
        witnesses.catalog("P_b", b=b)


def test_three_party_projector_witness():
    spec = witnesses.catalog("WW1")
    assert spec.dims == (2, 2, 2)
    vals, _ = hermitian_eig(spec.matrix)
    assert abs(vals[0] + 1.0 / 3.0) < 1e-12
    assert np.max(np.abs(vals[1:] - 2.0 / 3.0)) < 1e-12
    # explicitly 2/3 - projector onto the tripartite W state
    recon = (2.0 / 3.0) * np.eye(8) - projector(w_state())
    assert np.max(np.abs(spec.matrix - recon)) < 1e-14


def test_catalog_names_and_case():
    names = witnesses.catalog_names()
    assert "W" in names and "WW1" in names
    a = witnesses.catalog("w1").matrix
    b = witnesses.catalog("W1").matrix
    assert np.array_equal(a, b)
    with pytest.raises(ValueError, match="W,"):
        witnesses.catalog("W99")


def test_product_state_batch_is_normalized():
    rng = np.random.default_rng(71)
    batch = product_state_batch([2, 3], 50, rng)
    assert batch.shape == (50, 6)
    norms = np.linalg.norm(batch, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_product_state_batch_keeps_the_two_draw_stream():
    # real parts then imaginary parts of each party, as two separate draws
    dims, count = [2, 3, 2], 40
    batch = product_state_batch(dims, count, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    want = np.ones((count, 1), dtype=complex)
    for d in dims:
        loc = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
        loc /= np.linalg.norm(loc, axis=1, keepdims=True)
        want = (want[:, :, None] * loc[:, None, :]).reshape(count, -1)
    assert np.max(np.abs(batch - want)) < 1e-15


def test_min_product_expectation_nonnegative_for_witnesses():
    # block positivity: product states never see the negative eigenvalue
    for name in ("W", "V", "W1", "W2", "W3", "W4", "WW1"):
        spec = witnesses.catalog(name)
        low = witnesses.min_product_expectation(
            spec.matrix, list(spec.dims), samples=4000, seed=97
        )
        assert low >= -1e-9, name


def test_min_product_expectation_sees_entangled_directions():
    # a projector onto an entangled state, negated, dips well below zero
    # on product states only boundedly; compare against the full minimum
    spec = witnesses.catalog("W")
    vals, _ = hermitian_eig(spec.matrix)
    low = witnesses.min_product_expectation(spec.matrix, [2, 2], 4000, seed=3)
    assert low > vals[0] + 0.5  # strictly inside the spectral range


@settings(max_examples=30, deadline=None)
@given(
    dims=st.sampled_from([[2], [3], [2, 2], [2, 3], [3, 2], [2, 2, 2], [2, 3, 2]]),
    samples=st.sampled_from([1, witnesses._CHUNK - 1, witnesses._CHUNK, witnesses._CHUNK + 1, 4 * witnesses._CHUNK + 1]),
    seed=st.integers(0, 2**32 - 1),
    entries=st.integers(0, 2**32 - 1),
)
def test_min_product_expectation_matches_the_product_vector_oracle(dims, samples, seed, entries):
    # the same seeded samples, across chunk edges, as normalized product vectors
    total = int(np.prod(dims))
    rng = np.random.default_rng(entries)
    a = rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total))
    m = (a + a.conj().T) * rng.uniform(0.1, 10.0)
    got = witnesses.min_product_expectation(m, dims, samples, seed)
    want = min_product_expectation_oracle(m, dims, samples, seed)
    assert abs(got - want) <= 1e-12 * (1.0 + np.max(np.abs(m)))


def test_min_product_expectation_rejects_non_finite_entries():
    m = np.eye(4, dtype=complex)
    m[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        witnesses.min_product_expectation(m, [2, 2], 100, seed=0)


def test_min_product_expectation_rejects_a_shape_that_does_not_match_dims():
    with pytest.raises(ValueError, match=r"shape \(4, 4\), expected \(6, 6\)"):
        witnesses.min_product_expectation(np.eye(4), [2, 3], 100, seed=0)
    with pytest.raises(ValueError, match="nonempty"):
        witnesses.min_product_expectation(np.eye(1), [], 100, seed=0)


@pytest.mark.parametrize(
    "dims, samples, seed, message",
    [
        ([2.9, 2.1], 100, 0, "dims[0]: expected an integer, got 2.9"),
        ([True, 4], 100, 0, "dims[0]: expected an integer, got True"),
        ([2, "2"], 100, 0, "dims[1]: expected an integer, got '2'"),
        ([2, 2], 2.5, 0, "samples: expected an integer, got 2.5"),
        ([2, 2], True, 0, "samples: expected an integer, got True"),
        ([2, 2], 100, 2.5, "seed: expected an integer, got 2.5"),
        ([2, 2], 100, True, "seed: expected an integer, got True"),
        ([2, 2], 100, -1, "seed must be >= 0, got -1"),
    ],
    ids=["float_dims", "bool_dim", "string_dim", "float_samples", "bool_samples", "float_seed", "bool_seed", "negative_seed"],
)
def test_min_product_expectation_refuses_a_non_integer_dim(dims, samples, seed, message):
    # int() would read [2.9, 2.1] as [2, 2], and [True, 4] as one 4-level party;
    # samples=2.5 and seed=2.5 raised a bare TypeError, and seed=True ran seed 1
    with pytest.raises(ValueError) as exc:
        witnesses.min_product_expectation(witnesses.catalog("W").matrix, dims, samples, seed)
    assert str(exc.value) == message


def test_min_product_expectation_reads_numpy_integer_dims_as_their_values():
    w = witnesses.catalog("W").matrix
    want = witnesses.min_product_expectation(w, [2, 2], 100, seed=0)
    assert witnesses.min_product_expectation(w, np.array([2, 2]), 100, seed=0) == want


def test_a_multi_chunk_call_leaves_no_thread_behind_and_repeats_bit_for_bit():
    w = witnesses.catalog("W3").matrix
    before = threading.active_count()
    first = witnesses.min_product_expectation(w, [2, 2], 4 * witnesses._CHUNK + 1, seed=5)
    assert threading.active_count() == before
    for _ in range(3):
        assert witnesses.min_product_expectation(w, [2, 2], 4 * witnesses._CHUNK + 1, seed=5) == first


@pytest.mark.parametrize("chunks, cpus", [(1, 8), (5, 2), (5, 3), (5, 8)])
def test_the_minimum_does_not_depend_on_how_many_cpus_share_the_chunks(monkeypatch, chunks, cpus):
    # the calling thread and min(chunks, cpus) - 1 helpers, each on its own residue class
    w = witnesses.catalog("WW1")
    args = (w.matrix, list(w.dims), (chunks - 1) * witnesses._CHUNK + 1, 12)
    monkeypatch.setattr(witnesses, "_usable_cpus", lambda: 1)
    serial = witnesses.min_product_expectation(*args)
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(witnesses, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(threading, "Thread", Counted)
    assert witnesses.min_product_expectation(*args) == serial
    assert len(started) == min(chunks, cpus) - 1
    assert not any(t.is_alive() for t in started)


def test_a_helper_threads_error_is_raised_in_the_caller_and_no_thread_outlives_the_call(monkeypatch):
    residue_minimum = witnesses._residue_minimum

    def failing(t, dims, samples, seed, first, step):
        if first == 1:
            raise RuntimeError("helper 1 failed")
        return residue_minimum(t, dims, samples, seed, first, step)

    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(witnesses, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(witnesses, "_residue_minimum", failing)
    monkeypatch.setattr(threading, "Thread", Counted)
    w = witnesses.catalog("W3")
    with pytest.raises(RuntimeError, match="^helper 1 failed$"):
        witnesses.min_product_expectation(w.matrix, list(w.dims), 2 * witnesses._CHUNK, seed=0)
    assert len(started) == 1
    assert not any(t.is_alive() for t in started)


def test_importing_witwire_leaves_concurrent_futures_out():
    # concurrent.futures imports logging, a few ms on every process start
    env = dict(os.environ, PYTHONPATH=str(Path(witnesses.__file__).resolve().parents[1]))
    code = "import sys, witwire\nprint('concurrent.futures' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_min_product_expectation_rejects_a_non_hermitian_matrix():
    m = witnesses.catalog("W").matrix.copy()
    m[0, 1] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        witnesses.min_product_expectation(m, [2, 2], 100, seed=0)


def test_validate_witness_reports():
    for name in ("W", "V", "W1", "W2", "W3", "W4", "WW1"):
        rep = witnesses.validate_witness(witnesses.catalog(name), samples=4000, seed=11)
        assert rep.passed, name
        assert rep.min_eigenvalue < -1e-9
        assert rep.min_product_expectation >= -1e-9
    psd = witnesses.validate_witness(witnesses.catalog("P"), samples=100, seed=11)
    assert psd.passed
    assert psd.kind == "positive_semidefinite"


def test_validate_witness_counts_an_eigenvalue_below_its_floor_as_negative():
    # a positive semidefinite entry fails on an eigenvalue of -1e-8, not on one of -1e-10
    for low, passed in ((-1e-10, True), (-1e-8, False)):
        matrix = np.diag([1.0, 1.0, 1.0, low]).astype(complex)
        spec = witnesses.WitnessSpec("near_psd", matrix, (2, 2), "positive_semidefinite")
        assert witnesses.validate_witness(spec, samples=100, seed=11).passed is passed


def test_validate_witness_fails_a_witness_below_zero_on_every_product_state():
    # -1e-7 I has the value -1e-7 on every product state, so no sample can miss it
    spec = witnesses.WitnessSpec("shifted", -1e-7 * np.eye(4, dtype=complex), (2, 2), "witness")
    report = witnesses.validate_witness(spec, samples=100, seed=11)
    assert abs(report.min_product_expectation + 1e-7) < 1e-15
    assert not report.passed


def test_fixed_catalog_matrices_are_read_only():
    before = witnesses.catalog("W").matrix.copy()
    with pytest.raises(ValueError):
        witnesses.catalog("W").matrix[0, 0] = 99.0
    assert np.array_equal(witnesses.catalog("W").matrix, before)
    # P_b is built per call, from a copy of the shared core
    pb = witnesses.catalog("P_b", b=2.0).matrix
    pb[0, 0] = 0.0
    assert witnesses.catalog("P").matrix[0, 0] == 1.0
