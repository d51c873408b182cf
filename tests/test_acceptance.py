"""Acceptance gate: the ten shipping criteria, one test per criterion.

Each test prints exactly one summary line, `acceptance NN <label>: PASS`
or `... FAIL (<details>)`, and the assert carries the same details on
failure.  Tolerances are pinned here and are not imported from the
library, so loosening a library constant cannot silently weaken the
gate.
"""

import json
import math

import numpy as np

from witwire import cli, detection, ppt
from witwire.concentration import concentrate, probability_consistency, random_schmidt_operator
from witwire.ppt import partial_transpose
from witwire.reproduce import load_scenario, reproduce, three_copy_cyclic
from witwire.scenario import run_scenario
from witwire.states import FAMILIES, FIXED_STATES, sigma_imaginarity
from witwire.witnesses import catalog, min_product_expectation

from oracles import partial_transpose_oracle

SEED = 20240817


def _report(number, label, failures):
    status = "FAIL" if failures else "PASS"
    detail = f" ({'; '.join(failures)})" if failures else ""
    print(f"acceptance {number:02d} {label}: {status}{detail}")
    assert not failures, f"acceptance {number:02d} {label}{detail}"


def test_01_example_one_exact_values():
    failures = []
    rho = FIXED_STATES["bell_psi_plus"][0]
    w_val = detection.expectation(
        detection.wiring(1, [2, 2], [("W", [(0, 0), (0, 1)])]), rho
    )
    v_val = detection.expectation(
        detection.wiring(1, [2, 2], [("V", [(0, 0), (0, 1)])]), rho
    )
    cross = detection.expectation(
        detection.wiring(2, [2, 2], [("W", [(0, 0), (1, 1)]), ("V", [(0, 1), (1, 0)])]),
        rho,
    )
    if abs(w_val - 1.0) > 1e-10:
        failures.append(f"Tr(W rho) = {w_val!r}, expected 1")
    if abs(v_val - 1.0) > 1e-10:
        failures.append(f"Tr(V rho) = {v_val!r}, expected 1")
    if abs(cross + 0.5) > 1e-10:
        failures.append(f"cross wiring = {cross!r}, expected -0.5")
    _report(1, "example-1 exact values", failures)


def test_02_example_two_imaginarity():
    failures = []
    sigma = sigma_imaginarity()
    w_val = detection.expectation(
        detection.wiring(1, [2, 2], [("W", [(0, 0), (0, 1)])]), sigma
    )
    v_val = detection.expectation(
        detection.wiring(1, [2, 2], [("V", [(0, 0), (0, 1)])]), sigma
    )
    same = detection.expectation(
        detection.wiring(2, [2, 2], [("W", [(0, 0), (1, 0)]), ("V", [(0, 1), (1, 1)])]),
        sigma,
    )
    cross = detection.expectation(
        detection.wiring(2, [2, 2], [("W", [(0, 0), (1, 1)]), ("V", [(0, 1), (1, 0)])]),
        sigma,
    )
    if abs(w_val) > 1e-10:
        failures.append(f"Tr(W sigma) = {w_val!r}")
    if abs(v_val - 1.0) > 1e-10:
        failures.append(f"Tr(V sigma) = {v_val!r}")
    if abs(same - 0.5) > 1e-10:
        failures.append(f"same-party ordering = {same!r}, expected +0.5")
    if abs(cross + 0.5) > 1e-10:
        failures.append(f"cross ordering = {cross!r}, expected -0.5")

    real_part = sigma.real.astype(complex)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        w_r = rng.standard_normal((4, 4))
        w_r = (w_r + w_r.T) / 2.0
        gap = abs(complex(np.trace(w_r @ sigma)) - complex(np.trace(w_r @ real_part)))
        worst = max(worst, gap)
    if worst > 1e-10:
        failures.append(f"real-witness gap {worst:.3e} above 1e-10")
    verdict = ppt.ppt_check(real_part, [2, 2], [1])
    if verdict.verdict != "ppt_inconclusive":
        failures.append(f"Re(sigma) PPT verdict {verdict.verdict}")
    _report(2, "example-2 imaginary coherences", failures)


def test_03_example_three_cyclic_wiring():
    failures = []
    scen = load_scenario("ex3_cyclic")
    family = FAMILIES["werner_w"]
    grid = np.linspace(0.0, 1.0, 101)

    at_zero = detection.expectation(scen.wiring, family(0.0))
    if abs(at_zero + 0.25) > 1e-10:
        failures.append(f"value at w=0 is {at_zero!r}, expected -0.25")

    poly_gap = max(
        abs(
            detection.expectation(scen.wiring, family(float(w)))
            - three_copy_cyclic(float(w))
        )
        for w in grid
    )
    if poly_gap > 1e-8:
        failures.append(f"closed-form gap {poly_gap:.3e} above 1e-8")

    report = detection.sweep(scen.wiring, family, grid_points=201)
    if len(report.thresholds) != 1:
        failures.append(f"{len(report.thresholds)} sign changes, expected 1")
    else:
        root = report.thresholds[0]
        if abs(root - (1.0 - 2.0 ** (-1.0 / 3.0))) > 1e-12:
            failures.append(f"root {root!r} not within 1 - 2^(-1/3) +- 1e-12")

    single_min = min(
        float(np.trace(catalog(name).matrix @ family(float(w))).real)
        for name in ("W1", "W2", "W3")
        for w in grid
    )
    if single_min < -1e-9:
        failures.append(f"single-copy minimum {single_min!r} below -1e-9")

    cross = {"cross": [((0, 0), (1, 1)), ((0, 1), (1, 0))]}
    pair_min = min(
        v
        for w in grid
        for v in detection.ordering_matrix(
            ("W1", "W2", "W3"), family, float(w), 2, (2, 2), cross
        ).values()
    )
    if pair_min < -1e-9:
        failures.append(f"two-copy cross-pair minimum {pair_min!r} below -1e-9")

    root_ppt = ppt.ppt_threshold(family, [1])
    if abs(root_ppt - 2.0 / 3.0) > 1e-12:
        failures.append(f"PPT threshold {root_ppt!r} not 2/3 +- 1e-12")
    _report(3, "example-3 three-copy cyclic", failures)


def test_04_example_four_psd_pair():
    failures = []
    family = FAMILIES["werner_a"]
    grid = np.linspace(0.0, 1.0, 101)
    wiring_p = detection.wiring(
        2, [2, 2], [("P", [(0, 0), (1, 1)]), ("W3", [(0, 1), (1, 0)])]
    )
    poly_gap = max(
        abs(
            detection.expectation(wiring_p, family(float(a)))
            - (3.0 - 5.0 * float(a) ** 2) / 4.0
        )
        for a in grid
    )
    if poly_gap > 1e-8:
        failures.append(f"(3-5a^2)/4 gap {poly_gap:.3e} above 1e-8")

    report = detection.sweep(wiring_p, family, grid_points=201)
    root = report.thresholds[0] if report.thresholds else float("nan")
    if abs(root - math.sqrt(3.0 / 5.0)) > 1e-12:
        failures.append(f"root {root!r} not sqrt(3/5) +- 1e-12")

    for b in (1.0, 2.0, 10.0, 100.0):
        wiring_b = detection.wiring(
            2, [2, 2], [("P_b", [(0, 0), (1, 1)], b), ("W3", [(0, 1), (1, 0)])]
        )
        rep_b = detection.sweep(wiring_b, family, grid_points=201)
        want = math.sqrt((2.0 * b + 1.0) / (6.0 * b - 1.0))
        got = rep_b.thresholds[0] if rep_b.thresholds else float("nan")
        if abs(got - want) > 1e-12:
            failures.append(f"b={b:g} root {got!r}, expected {want!r}")

    w3 = catalog("W3").matrix
    trace_gap = max(
        abs(float(np.trace(w3 @ family(float(a))).real) - (1.0 + float(a)) / 2.0)
        for a in grid
    )
    if trace_gap > 1e-10:
        failures.append(f"Tr(W3 rho_a) gap {trace_gap:.3e} above 1e-10")
    _report(4, "example-4 tunable PSD pair", failures)


def test_05_ghz_two_copy_wirings():
    failures = []
    ghz = FIXED_STATES["ghz"][0]
    same = detection.expectation(
        detection.wiring(
            2,
            [2, 2, 2],
            [
                ("W4", [(0, 0), (1, 0)]),
                ("W3", [(0, 1), (1, 1)]),
                ("W3", [(0, 2), (1, 2)]),
            ],
        ),
        ghz,
    )
    cyclic = detection.expectation(
        detection.wiring(
            2,
            [2, 2, 2],
            [
                ("W4", [(0, 0), (1, 1)]),
                ("W3", [(0, 1), (1, 2)]),
                ("W3", [(0, 2), (1, 0)]),
            ],
        ),
        ghz,
    )
    heavy = detection.expectation(
        detection.wiring(
            2,
            [2, 2, 2],
            [
                ("W4", [(0, 0), (1, 0)]),
                ("W4", [(0, 1), (1, 1)]),
                ("W3", [(0, 2), (1, 2)]),
            ],
        ),
        ghz,
    )
    if not same < -1e-9:
        failures.append(f"same-party wiring {same!r} not negative")
    if not cyclic < -1e-9:
        failures.append(f"cyclic wiring {cyclic!r} not negative")
    if not heavy >= -1e-9:
        failures.append(f"two-W4 wiring {heavy!r} unexpectedly negative")
    # magnitudes frozen after the first verified dense run
    if abs(same + 0.5) > 1e-10:
        failures.append(f"same-party golden {same!r}, expected -0.5")
    if abs(cyclic + 0.5) > 1e-10:
        failures.append(f"cyclic golden {cyclic!r}, expected -0.5")
    if abs(heavy - 0.5) > 1e-10:
        failures.append(f"two-W4 golden {heavy!r}, expected +0.5")
    _report(5, "ghz two-copy wirings", failures)


def test_06_example_five_three_party_cross():
    failures = []
    family = FAMILIES["noisy_w"]
    grid = np.linspace(0.0, 1.0, 101)

    plain = {"plain": [((0, 0), (0, 1)), ((0, 2), (1, 0)), ((1, 1), (1, 2))]}
    triple_min = min(
        v
        for c in grid
        for v in detection.ordering_matrix(
            ("W3", "W4"), family, float(c), 2, (2, 2, 2), plain
        ).values()
    )
    if triple_min < -1e-9:
        failures.append(f"uncrossed triple minimum {triple_min!r} below -1e-9")

    cross_scen = load_scenario("ex5_cross")
    rep = detection.sweep(cross_scen.wiring, family, grid_points=201)
    if len(rep.thresholds) != 1:
        failures.append(f"{len(rep.thresholds)} cross sign changes, expected 1")
    else:
        root = rep.thresholds[0]
        if abs(root - 0.406) <= 0.002:
            pass  # reference value confirmed by the dense run
        else:
            # fallback branch: the report must flag the discrepancy and
            # record the dense root instead of asserting the reference
            full = reproduce("ex5")
            names = {c["name"] for c in full["checks"]}
            recorded = "cross_threshold_dense" in names
            flagged = any("not confirmed" in note for note in full["notes"])
            if not recorded:
                failures.append("dense root not recorded in the ex5 report")
            if not flagged:
                failures.append("ex5 report does not flag the reference discrepancy")
            if not full["all_pass"]:
                failures.append("ex5 report not passing in fallback mode")

    ww1_scen = load_scenario("ex5_ww1")
    rep_ww1 = detection.sweep(ww1_scen.wiring, family, grid_points=201)
    got = rep_ww1.thresholds[0] if rep_ww1.thresholds else float("nan")
    if abs(got - 8.0 / 21.0) > 1e-12:
        failures.append(f"projector-witness root {got!r} not 8/21 +- 1e-12")
    if not got < 0.39:  # consistent with detection below c ~ 0.38
        failures.append(f"projector-witness root {got!r} not below 0.39")
    _report(6, "example-5 three-party wirings", failures)


def test_07_witness_validity_suite():
    failures = []
    for name in ("W", "V", "W1", "W2", "W3", "W4", "WW1"):
        spec = catalog(name)
        vals = np.linalg.eigvalsh(spec.matrix)
        if not vals[0] < -1e-9:
            failures.append(f"{name} min eigenvalue {vals[0]!r} not negative")
        low = min_product_expectation(
            spec.matrix, list(spec.dims), samples=100000, seed=SEED
        )
        if low < -1e-9:
            failures.append(f"{name} product minimum {low!r} below -1e-9")
    for name in ("W", "W1"):
        vals = np.linalg.eigvalsh(catalog(name).matrix)
        if abs(vals[0] + 1.0) > 1e-9:
            failures.append(f"{name} min eigenvalue {vals[0]!r} not -1")
    if np.linalg.eigvalsh(catalog("P").matrix)[0] < -1e-10:
        failures.append("P not positive semidefinite")
    for b in (1.0, 2.0, 10.0, 100.0):
        if np.linalg.eigvalsh(catalog("P_b", b=b).matrix)[0] < -1e-10:
            failures.append(f"P_b at b={b:g} not positive semidefinite")
    _report(7, "witness validity suite", failures)


def test_08_concentration_protocol():
    failures = []
    worst_delta = 0.0
    for d in (2, 3, 4):
        for kind_index, kind in enumerate(("m", "M")):
            rng = np.random.default_rng([SEED, d, kind_index])
            worst_fid = 0.0
            for _ in range(100):
                psi_mat = random_schmidt_operator(d, rng)
                res = concentrate(psi_mat, kind)
                worst_fid = max(worst_fid, abs(res.fidelity_with_target - 1.0))
                if not 0.0 < res.probability <= 1.0 + 1e-12:
                    failures.append(
                        f"d={d} kind={kind} probability {res.probability!r}"
                    )
                    break
                _, _, delta = probability_consistency(psi_mat, kind)
                worst_delta = max(worst_delta, delta)
            if worst_fid > 1e-9:
                failures.append(f"d={d} kind={kind} fidelity gap {worst_fid:.3e}")
    if worst_delta > 1e-9:
        failures.append(f"bookkeeping delta {worst_delta:.3e} above 1e-9")
    _report(8, "concentration protocol", failures)


def test_09_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(SEED)

    def random_system():
        n = int(rng.integers(1, 5))
        dims = [int(rng.integers(2, 4)) for _ in range(n)]
        total = int(np.prod(dims))
        mat = rng.standard_normal((total, total)) + 1j * rng.standard_normal(
            (total, total)
        )
        return n, dims, mat

    worst = 0.0
    for _ in range(200):
        n, dims, mat = random_system()
        # the draws of the retired permute, embed and partial-trace checks, kept in
        # order so that the partial transpose sees the same 200 systems as before
        rng.permutation(n)
        k = int(rng.integers(1, n + 1))
        lt = int(np.prod([dims[s] for s in rng.permutation(n)[:k]]))
        rng.standard_normal((lt, lt))
        rng.standard_normal((lt, lt))
        if n > 1:
            rng.integers(1, n)
            rng.permutation(n)

        kp = int(rng.integers(1, n + 1))
        transposed = sorted(rng.permutation(n)[:kp].tolist())
        gap = np.max(
            np.abs(
                partial_transpose(mat, dims, transposed)
                - partial_transpose_oracle(mat, dims, transposed)
            )
        )
        worst = max(worst, float(gap))

    if worst > 1e-10:
        failures.append(f"partial_transpose disagrees with oracle by {worst:.3e}")
    _report(9, "oracle equivalence", failures)


def test_10_reproduce_determinism(capsys):
    failures = []
    for example_id in ("ex1", "ex2", "ghz"):
        outputs = []
        for _ in range(2):
            code = cli.main(["reproduce", example_id, "--seed", str(SEED)])
            outputs.append(capsys.readouterr().out)
            if code != 0:
                failures.append(f"{example_id} exited {code}")
        if outputs[0] != outputs[1]:
            failures.append(f"{example_id} output differs between runs")
        try:
            json.loads(outputs[0])
        except json.JSONDecodeError:
            failures.append(f"{example_id} output is not valid JSON")
    with capsys.disabled():
        _report(10, "reproduce determinism", failures)
