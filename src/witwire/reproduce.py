"""Canonical reproduction runs: one check table per worked example.

Each id loads its shipped scenario files, evaluates them, and grades
the results against fixed expected values at fixed tolerances.  Every
check along a family (a closed-form gap, a floor over all placements of
some witnesses) is read off ``detection.sweep`` reports, so each wiring
is compiled once and evaluated at copies+1 points, whatever the grid.
The report is a plain dict ready for JSON serialization; every numeric
value in it is rounded to 15 significant digits so repeated runs with
the same seed emit identical bytes.
"""

from __future__ import annotations

import itertools
import math
from importlib import resources

import numpy as np

from . import concentration as conc
from . import detection, ppt
from .linalg import checked_seed
from .scenario import Scenario, parse_scenario, round15, run_scenario
from .states import FAMILIES, sigma_imaginarity

DEFAULT_SEED = 20240817

# random Schmidt operators drawn per (d, kind) cell of the concentration table
CONCENTRATION_SAMPLES = 100


def load_scenario(name: str) -> Scenario:
    text = (
        resources.files("witwire").joinpath("scenarios").joinpath(name + ".json")
    ).read_text(encoding="utf-8")
    return parse_scenario(text)


def shipped_scenario_names() -> list[str]:
    base = resources.files("witwire").joinpath("scenarios")
    names = [entry.name[:-5] for entry in base.iterdir() if entry.name.endswith(".json")]
    return sorted(names)


# Closed-form expectation values of the worked examples' wirings, written
# out by hand: the independent side of each closed-form gap check.


def three_copy_cyclic(w: float) -> float:
    """Cyclic W1/W2/W3 wiring on three copies of werner_w."""
    return (
        2.0 * ((2.0 - w) / 4.0) ** 3
        - 4.0 * ((1.0 - w) / 2.0) ** 3
        + 6.0 * w * (2.0 - w) ** 2 / 64.0
        + 6.0 * w**2 * (2.0 - w) / 64.0
        + 2.0 * w**3 / 64.0
    )


def p_w3_cross(a: float) -> float:
    """P on the (A, B') pair and W3 on (B, A'), two copies of werner_a."""
    return (3.0 - 5.0 * a**2) / 4.0


def pb_w3_cross(a: float, b: float) -> float:
    """P_b on the (A, B') pair and W3 on (B, A'), two copies of werner_a."""
    if not 1.0 <= b < math.inf:  # negated, so NaN fails too
        raise ValueError(f"tuning parameter b must be finite and >= 1, got {b}")
    return ((1.0 - 6.0 * b) * a**2 + 2.0 * b + 1.0) / (16.0 * b)


def noisy_w_projector(c: float) -> float:
    """Single-copy expectation of the WW1 witness on noisy_w."""
    return 7.0 * c / 8.0 - 1.0 / 3.0


def _eq(name: str, value: float, expected: float, tol: float) -> dict:
    return {
        "name": name,
        "value": round15(value),
        "expected": round15(expected),
        "tol": tol,
        "pass": bool(abs(value - expected) <= tol),
    }


def _floor(name: str, value: float, floor: float) -> dict:
    return {"name": name, "value": round15(value), "floor": floor, "pass": bool(value >= floor)}


def _limit(name: str, value: float, limit: float) -> dict:
    return {"name": name, "value": round15(value), "limit": limit, "pass": bool(value <= limit)}


def _recorded(name: str, value: float) -> dict:
    return {"name": name, "value": round15(value), "recorded": True, "pass": True}


def _point(name: str) -> float:
    run = run_scenario(load_scenario(name))
    if run.kind != "point":
        raise ValueError(f"scenario {name!r} sweeps a grid; a check here reads one fixed value")
    return run.point_value


def _max_gap(report: detection.DetectionReport, f) -> float:
    """max |value - f(param)| over a sweep report's grid."""
    return max(abs(v - f(p)) for p, v in zip(report.params, report.values))


def _single_threshold(report: detection.DetectionReport, where: str) -> float:
    if len(report.thresholds) != 1:
        raise ValueError(
            f"{where}: expected exactly one sign change, found {len(report.thresholds)}"
        )
    return report.thresholds[0]


def _sweep_min(names, family, copies: int, base_dims, groups) -> float:
    """Least value on the family's 101-point grid of any choice of ``names`` on the slot groups."""
    values: list[float] = []
    for combo in itertools.product(names, repeat=len(groups)):
        spec = detection.wiring(copies, base_dims, list(zip(combo, groups)))
        values += detection.sweep(spec, family, 101).values
    return min(values)


def _ex1(seed: int) -> tuple[list[dict], list[str]]:
    checks = [
        _eq("w_single_trace", _point("ex1_w_single"), 1.0, 1e-10),
        _eq("v_single_trace", _point("ex1_v_single"), 1.0, 1e-10),
        _eq("cross_wiring", _point("ex1_cross"), -0.5, 1e-10),
    ]
    return checks, []


def _ex2(seed: int) -> tuple[list[dict], list[str]]:
    checks = [
        _eq("w_single_trace", _point("ex2_w_single"), 0.0, 1e-10),
        _eq("v_single_trace", _point("ex2_v_single"), 1.0, 1e-10),
        _eq("same_party_wiring", _point("ex2_same_party"), 0.5, 1e-10),
        _eq("cross_wiring", _point("ex2_cross"), -0.5, 1e-10),
    ]
    # real symmetric observables cannot see the imaginary part of sigma
    sigma = sigma_imaginarity()
    real_part = sigma.real.astype(complex)
    w_r = np.random.default_rng(seed).standard_normal((1000, 4, 4))
    w_r = (w_r + w_r.transpose(0, 2, 1)) / 2.0
    gaps = np.einsum("nij,ji->n", w_r, sigma) - np.einsum("nij,ji->n", w_r, real_part)
    checks.append(_limit("real_witness_equality_max_gap", float(np.abs(gaps).max()), 1e-10))
    verdict = ppt.ppt_check(real_part, [2, 2], [1])
    checks.append(
        {
            "name": "real_part_ppt_verdict",
            "value": verdict.verdict,
            "expected": "ppt_inconclusive",
            "pass": bool(verdict.verdict == "ppt_inconclusive"),
        }
    )
    return checks, []


def _ex3(seed: int) -> tuple[list[dict], list[str]]:
    run = run_scenario(load_scenario("ex3_cyclic"))
    _, report = run.reports[0]
    checks = [
        _eq("cyclic_at_zero", report.values[0], -0.25, 1e-10),
        _eq(
            "cyclic_threshold",
            _single_threshold(report, "ex3_cyclic"),
            1.0 - 2.0 ** (-1.0 / 3.0),  # the closed form is ((w - 1)^3 + 1/2) / 2
            1e-12,
        ),
    ]
    family = FAMILIES["werner_w"]
    gap = _max_gap(report, three_copy_cyclic)
    checks.append(_limit("closed_form_max_gap", gap, 1e-8))
    names = ("W1", "W2", "W3")
    single_min = _sweep_min(names, family, 1, (2, 2), [((0, 0), (0, 1))])
    checks.append(_floor("single_copy_min", single_min, -1e-9))
    pair_min = _sweep_min(names, family, 2, (2, 2), [((0, 0), (1, 1)), ((0, 1), (1, 0))])
    checks.append(_floor("two_copy_cross_pairs_min", pair_min, -1e-9))
    root = ppt.ppt_threshold(family, [1])
    checks.append(_eq("ppt_threshold", root, 2.0 / 3.0, 1e-12))
    # candidate "plain" three-copy orderings at w=0, recorded for
    # comparison with the cyclic value above; nothing singles out one
    # of these as canonical, so neither is asserted against
    candidates = {
        "per_copy": [((0, 0), (0, 1)), ((1, 0), (1, 1)), ((2, 0), (2, 1))],
        "same_party": [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((2, 0), (2, 1))],
    }
    for label, groups in candidates.items():
        value = detection.expectation(detection.wiring(3, (2, 2), list(zip(names, groups))), family(0.0))
        checks.append(_recorded(f"{label}_ordering_at_zero", value))
    return checks, []


def _ex4(seed: int) -> tuple[list[dict], list[str]]:
    run = run_scenario(load_scenario("ex4_p_w3"))
    _, report = run.reports[0]
    checks = [
        _eq("p_w3_threshold", _single_threshold(report, "ex4_p_w3"), math.sqrt(3.0 / 5.0), 1e-12),
    ]
    gap = _max_gap(report, p_w3_cross)
    checks.append(_limit("closed_form_max_gap", gap, 1e-8))

    run_b = run_scenario(load_scenario("ex4_pb_w3"))
    gap_b = 0.0
    for b, rep in run_b.reports:
        expected_root = math.sqrt((2.0 * b + 1.0) / (6.0 * b - 1.0))
        checks.append(
            _eq(f"pb_threshold_b_{b:g}", _single_threshold(rep, f"ex4_pb_w3 b={b:g}"), expected_root, 1e-12)
        )
        gap_b = max(gap_b, _max_gap(rep, lambda a: pb_w3_cross(a, b)))
    checks.append(_limit("pb_closed_form_max_gap", gap_b, 1e-8))

    single = detection.wiring(1, (2, 2), [("W3", [(0, 0), (0, 1)])])
    rep_w3 = detection.sweep(single, FAMILIES["werner_a"], 101)
    trace_gap = _max_gap(rep_w3, lambda a: (1.0 + a) / 2.0)
    checks.append(_limit("w3_single_trace_max_gap", trace_gap, 1e-10))
    return checks, []


def _ex5(seed: int) -> tuple[list[dict], list[str]]:
    notes: list[str] = []
    # the plain tensor product of three pair witnesses in slot order:
    # slots (A,B), (C,A'), (B',C') -- no crossing, and no detection
    plain = [((0, 0), (0, 1)), ((0, 2), (1, 0)), ((1, 1), (1, 2))]
    floor_val = _sweep_min(("W3", "W4"), FAMILIES["noisy_w"], 2, (2, 2, 2), plain)
    checks = [_floor("uncrossed_triples_min", floor_val, -1e-9)]

    run_cross = run_scenario(load_scenario("ex5_cross"))
    _, rep_cross = run_cross.reports[0]
    root = _single_threshold(rep_cross, "ex5_cross")
    checks.append(_eq("cross_threshold_dense", root, 2.0 / 5.0, 1e-12))
    notes.append(
        "reference threshold 0.406 not confirmed: the dense sign change "
        f"sits at {round15(root)}. The reference value descends from a "
        "closed-form polynomial whose printed terms are all nonnegative on "
        "[0, 1], so that expression cannot change sign and its root cannot "
        "be checked against; the dense trace is authoritative here, and its "
        "root is asserted against the exact value 2/5 instead."
    )
    checks.append(_eq("cross_at_zero", rep_cross.values[0], -4.0 / 9.0, 1e-10))

    run_ww1 = run_scenario(load_scenario("ex5_ww1"))
    _, rep_ww1 = run_ww1.reports[0]
    checks.append(
        _eq("ww1_threshold", _single_threshold(rep_ww1, "ex5_ww1"), 8.0 / 21.0, 1e-12)
    )
    gap = _max_gap(rep_ww1, noisy_w_projector)
    checks.append(_limit("ww1_closed_form_max_gap", gap, 1e-8))
    return checks, notes


def _ghz(seed: int) -> tuple[list[dict], list[str]]:
    same = _point("ghz_same_party")
    cyclic = _point("ghz_cyclic")
    heavy = _point("ghz_same_party_heavy")
    checks = [
        _eq("same_party_wiring", same, -0.5, 1e-10),
        _eq("cyclic_wiring", cyclic, -0.5, 1e-10),
        _limit("same_party_is_negative", same, -1e-9),
        _limit("cyclic_is_negative", cyclic, -1e-9),
        _eq("heavy_same_party_wiring", heavy, 0.5, 1e-10),
        _floor("heavy_same_party_nonnegative", heavy, -1e-9),
    ]
    return checks, []


def _concentration(seed: int) -> tuple[list[dict], list[str]]:
    checks = []
    worst_delta = 0.0
    for d in (2, 3, 4):
        for kind_index, kind in enumerate(("m", "M")):
            rng = np.random.default_rng([seed, d, kind_index])
            worst_fid = 0.0
            prob_ok = True
            for _ in range(CONCENTRATION_SAMPLES):
                psi = conc.random_schmidt_operator(d, rng)
                res = conc.concentrate(psi, kind)
                worst_fid = max(worst_fid, abs(res.fidelity_with_target - 1.0))
                prob_ok = prob_ok and 0.0 < res.probability <= 1.0 + conc.PROBABILITY_SLACK
                _, _, delta = conc.probability_consistency(psi, kind)
                worst_delta = max(worst_delta, delta)
            checks.append(_limit(f"fidelity_max_gap_d{d}_{kind}", worst_fid, conc.FIDELITY_TOL))
            checks.append(
                {
                    "name": f"probability_in_unit_interval_d{d}_{kind}",
                    "value": bool(prob_ok),
                    "pass": bool(prob_ok),
                }
            )
    checks.append(_limit("bookkeeping_max_delta", worst_delta, 1e-9))
    return checks, []


_RUNNERS = {
    "ex1": _ex1,
    "ex2": _ex2,
    "ex3": _ex3,
    "ex4": _ex4,
    "ex5": _ex5,
    "ghz": _ghz,
    "concentration": _concentration,
}

REPRODUCE_IDS = tuple(_RUNNERS)


def reproduce(example_id: str, seed: int = DEFAULT_SEED) -> dict:
    """Run one example's canonical computation and grade it; ``seed`` is an integer >= 0."""
    if example_id not in _RUNNERS:
        raise ValueError(
            f"unknown example id {example_id!r}; known: {', '.join(REPRODUCE_IDS)}"
        )
    seed = checked_seed(seed)
    checks, notes = _RUNNERS[example_id](seed)
    report = {
        "id": example_id,
        "seed": seed,
        "checks": checks,
        "notes": notes,
        "all_pass": bool(all(c["pass"] for c in checks)),
    }
    failed = [c["name"] for c in checks if not c["pass"]]
    if failed:
        report["failed_checks"] = failed
    return report
