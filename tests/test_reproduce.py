"""Checks along a family are read off one sweep per wiring."""

import json
import re

import numpy as np
import pytest

import witwire
import witwire.reproduce as reproduce_module
from witwire import detection
from witwire.reproduce import reproduce, three_copy_cyclic
from witwire.scenario import json_text
from witwire.states import FAMILIES


# compiling each wiring again at each of 101 grid points took 965 and 810 compiles;
# ex3 took 67 while a 54-entry ordering table supplied its two recorded orderings
@pytest.mark.parametrize("example_id, most", [("ex3", 15), ("ex5", 10)])
def test_reproduce_compiles_each_wiring_once(monkeypatch, example_id, most):
    calls = []
    compile_wiring = detection.compile_wiring

    def counting(spec):
        calls.append(spec)
        return compile_wiring(spec)

    monkeypatch.setattr(detection, "compile_wiring", counting)
    assert reproduce(example_id)["all_pass"]
    assert 0 < len(calls) <= most


FLOORS = {
    "single_copy_min": ("ex3", ("W1", "W2", "W3"), "werner_w", 1, (2, 2), [((0, 0), (0, 1))]),
    "two_copy_cross_pairs_min": (
        "ex3", ("W1", "W2", "W3"), "werner_w", 2, (2, 2), [((0, 0), (1, 1)), ((0, 1), (1, 0))]
    ),
    "uncrossed_triples_min": (
        "ex5", ("W3", "W4"), "noisy_w", 2, (2, 2, 2), [((0, 0), (0, 1)), ((0, 2), (1, 0)), ((1, 1), (1, 2))]
    ),
}


@pytest.mark.parametrize("check", sorted(FLOORS))
def test_floor_is_the_per_point_grid_minimum(check):
    example_id, names, family, copies, base_dims, groups = FLOORS[check]
    direct = min(
        v
        for p in np.linspace(0.0, 1.0, 101)
        for v in detection.ordering_matrix(
            names, FAMILIES[family], float(p), copies, base_dims, {"plain": groups}
        ).values()
    )
    value = next(c["value"] for c in reproduce(example_id)["checks"] if c["name"] == check)
    assert abs(value - direct) <= 1e-12


# float.hex of every numeric check at the default seed, recorded once kind
# "M" squared the single guarded inverse of Psi^dag and the fidelity was
# read off the output ket; any change to these bits is deliberate
CONCENTRATION_VALUES = {
    "fidelity_max_gap_d2_m": "0x1.ffffffffffffep-51",
    "fidelity_max_gap_d2_M": "0x1.0000000000004p-51",
    "fidelity_max_gap_d3_m": "0x1.ffffffffffffep-51",
    "fidelity_max_gap_d3_M": "0x1.0000000000004p-51",
    "fidelity_max_gap_d4_m": "0x1.ffffffffffffep-51",
    "fidelity_max_gap_d4_M": "0x1.0000000000004p-51",
    "bookkeeping_max_delta": "0x1.e400000000004p-48",
}


def test_concentration_checks_keep_their_recorded_bits():
    report = reproduce("concentration")
    values = {c["name"]: c["value"].hex() for c in report["checks"] if isinstance(c["value"], float)}
    assert values == CONCENTRATION_VALUES
    assert report["all_pass"]


def test_the_reproduce_module_is_reachable_by_import_as():
    # the package once bound ``reproduce`` to the function, which hid the
    # module: ``r.three_copy_cyclic`` raised AttributeError
    import witwire.reproduce as r

    assert r.three_copy_cyclic is three_copy_cyclic
    assert r.reproduce is reproduce
    assert witwire.reproduce is r
    assert "reproduce" not in witwire.__all__ and "REPRODUCE_IDS" in witwire.__all__


@pytest.mark.parametrize(
    "seed, message",
    [
        (-1, "seed must be >= 0, got -1"),
        ("abc", "seed: expected an integer, got 'abc'"),
        (True, "seed: expected an integer, got True"),
        (2.5, "seed: expected an integer, got 2.5"),
    ],
    ids=["negative", "string", "bool", "float"],
)
def test_reproduce_refuses_a_bad_seed_before_any_runner(monkeypatch, seed, message):
    # -1 and "abc" were echoed into the report, True ran seed 1, and 2.5 raised
    # a bare TypeError from numpy in ex2
    def forbidden(seed):
        raise AssertionError("a runner ran")

    monkeypatch.setitem(reproduce_module._RUNNERS, "ex2", forbidden)
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        reproduce("ex2", seed=seed)


def test_reproduce_writes_a_numpy_integer_seed_as_a_json_integer():
    # np.int64(3) went into the report as is, and json_text could not serialize it
    report = reproduce("ex1", seed=np.int64(3))
    assert type(report["seed"]) is int
    assert json.loads(json_text(report))["seed"] == 3


def test_a_point_check_on_a_grid_scenario_is_refused_by_name():
    # an assert guarded it, which python -O strips
    with pytest.raises(ValueError, match=r"^scenario 'ex4_p_w3' sweeps a grid"):
        reproduce_module._point("ex4_p_w3")
