"""Tests of the benchmark itself: seeded inputs, checkers, trace wrapping.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import witwire.detection  # noqa: E402


def _descs(workload: str, seed: int, tmp_path: Path, tag: str) -> list:
    bench = workloads.Bench(workload, seed, tmp_path / tag)
    return [(job.kind, repr(job.desc)) for job in bench.make_round(1)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_job_lists(workload, tmp_path):
    first = _descs(workload, 7, tmp_path, "a")
    assert first == _descs(workload, 7, tmp_path, "b")
    assert first != _descs(workload, 8, tmp_path, "c")


def test_wirings_round_shape(tmp_path):
    jobs = workloads.Bench("wirings", 3, tmp_path).make_round(1)
    dims = [2 ** (len(j.desc["base"]) * j.desc["copies"]) for j in jobs if j.kind == "expectation"]
    assert (dims.count(256), len(jobs)) == (48, 216)
    assert {j.kind for j in jobs} == {"expectation", "ordering", "validate"}
    crossing = [
        any(len({s // len(j.desc["base"]) for s in slots}) > 1 for _, _, slots in j.desc["placed"])
        for j in jobs if j.kind == "expectation" and j.desc["copies"] > 1
    ]
    assert any(crossing) and not all(crossing)


def test_reference_contraction_matches_known_values():
    mat = lambda name: workloads._catalog_matrix(name, None)  # noqa: E731
    ex3 = [(mat("W1"), [0, 3]), (mat("W2"), [2, 5]), (mat("W3"), [1, 4])]
    rho = workloads.FAMILY["werner_w"](0.0)
    assert checks.contract(rho, (2, 2), 3, ex3).real == pytest.approx(-0.25, abs=1e-12)
    ex5 = [(mat("W4"), [0, 4]), (mat("W3"), [1, 5]), (mat("W3"), [2, 3])]
    rho = workloads.FAMILY["noisy_w"](0.0)
    assert checks.contract(rho, (2, 2, 2), 2, ex5).real == pytest.approx(-4.0 / 9.0, abs=1e-12)
    assert checks.EX3_CUBIC_ROOT == pytest.approx(0.2062995, abs=1e-7)
    noisy = checks.ppt_root(workloads.FAMILY["noisy_w"], (2, 2, 2), 2)
    assert noisy == pytest.approx(0.7904107, abs=1e-7)


def test_checkers_reject_values_just_past_tolerance():
    r = 0.4
    assert checks.roots_error([r + 0.9e-6], [r]) is None
    assert checks.roots_error([r + 1.1e-6], [r]) is not None
    assert checks.roots_error([], [r]) is not None
    assert checks.roots_error([r, 0.9], [r]) is not None
    assert checks.close_error(0.5 + 0.9e-10, 0.5) is None
    assert checks.close_error(0.5 + 1.1e-10, 0.5) is not None
    assert checks.close_error(float("nan"), 0.5) is not None
    assert checks.concentration_error(1.0 - 0.9e-9, 0.3, 0.9e-9) is None
    assert checks.concentration_error(1.0 - 1.1e-9, 0.3, 0.0) is not None
    assert checks.concentration_error(1.0, 1.0 + 1e-12, 0.0) is None
    assert checks.concentration_error(1.0, 1.0 + 1.1e-12, 0.0) is not None
    assert checks.concentration_error(1.0, 0.0, 0.0) is not None
    assert checks.concentration_error(1.0, 0.3, 1.1e-9) is not None
    assert checks.same_bytes_error({"a": b"1"}, {"a": b"1"}) is None
    assert checks.same_bytes_error({"a": b"1"}, {"a": b"2"}) is not None


def test_sweep_and_ppt_job_checks_reject_perturbed_output(tmp_path):
    bench = workloads.Bench("sweep", 5, tmp_path)
    jobs = bench.make_round(1)
    for name in ("ex4_p_w3", "ex5_ww1"):  # rung 0 brackets the root, then none
        job = next(j for j in jobs if j.desc.get("scenario") == name and j.desc["points"] < 40)
        assert job.check(job.run()) is None
        out = tmp_path / "round1" / str(jobs.index(job)) / "out" / f"{name}.json"
        data = json.loads(out.read_text())
        if name == "ex4_p_w3":
            data["thresholds"][0]["root"] += 1.1e-6
        else:
            assert data["thresholds"] == []
            data["thresholds"].append({"root": 0.5 * (job.desc["lo"] + job.desc["hi"])})
        out.write_text(json.dumps(data))
        assert job.check(0) is not None
    ppt = next(j for j in jobs if j.kind == "ppt" and j.desc["family"] == "noisy_w")
    assert ppt.check(ppt.run()) is None
    out = tmp_path / "round1" / str(jobs.index(ppt)) / "ppt.json"
    data = json.loads(out.read_text())
    data["threshold"] += 1.1e-6
    out.write_text(json.dumps(data))
    assert ppt.check(0) is not None
    repeat = jobs[-1]
    assert repeat.desc.get("repeat")
    jobs[0].run()
    assert repeat.check(repeat.run()) is None
    (tmp_path / "round1" / str(len(jobs) - 1) / "out" / "ex3_cyclic.csv").write_text("changed\n")
    assert repeat.check(0) is not None


def test_wirings_and_concentration_job_checks_reject_perturbed_output(tmp_path):
    jobs = workloads.Bench("wirings", 5, tmp_path).make_round(1)
    for job in (j for j in jobs if j.kind == "expectation"):
        value = job.run()
        assert job.check(value) is None
        assert job.check(value + 1.1e-10) is not None
    ordering = next(j for j in jobs if j.kind == "ordering")
    table = ordering.run()
    assert ordering.check(table) is None
    table[next(iter(table))] += 1.1e-10
    assert ordering.check(table) is not None
    validate = next(j for j in jobs if j.kind == "validate")
    report = validate.run()
    assert validate.check(report) is None
    assert validate.check(dataclasses.replace(report, passed=False)) is not None
    conc = workloads.Bench("concentration", 5, tmp_path).make_round(1)[0]
    fid, prob, delta = conc.run()
    assert conc.check((fid, prob, delta)) is None
    assert conc.check((1.0 - 1.1e-9, prob, delta)) is not None
    assert conc.check((fid, prob, delta + 1.1e-9)) is not None


def test_timings_pool_every_scaled_latency():
    per_round = [[1.0, 10.0], [3.0, 30.0], [2.0, 20.0]]
    assert worker.scaled_latencies(per_round) == [1.0, 10.0, 3.0, 30.0, 2.0, 20.0]
    scales = [[1.0, 1.0], [0.5, 0.5], [1.0, 1.0]]
    assert worker.scaled_latencies(per_round, scales) == [1.0, 10.0, 1.5, 15.0, 2.0, 20.0]
    t = worker.timings(per_round, scales)
    assert t["wall_s"] == 49.5 / 3
    assert t["job_p50_ms"] == 6000.0
    # one slow job in one round moves the tail and the wall time
    slow = worker.timings([[1.0, 10.0], [3.0, 30.0], [2.0, 200.0]], scales)
    assert slow["job_p90_ms"] > t["job_p90_ms"] and slow["wall_s"] > t["wall_s"]


def test_audit_catches_an_unwrapped_reference():
    tracer = tracing.Tracer()
    original = witwire.detection.expectation
    tracer.install()
    try:
        assert witwire.detection.expectation is not original
        assert witwire.scenario.expectation is witwire.detection.expectation
        tracer.audit()
        witwire.detection._stray_expectation = original
        with pytest.raises(tracing.AuditError, match="_stray_expectation"):
            tracer.audit()
    finally:
        witwire.detection.__dict__.pop("_stray_expectation", None)
        tracer.uninstall()
    assert witwire.detection.expectation is original


def test_traced_jobs_nest_and_report_every_layer_metric(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for workload in workloads.WORKLOADS:
            bench = workloads.Bench(workload, 9, tmp_path / workload)
            for i, job in enumerate(bench.warmup_jobs()):
                with tracer.job((workload, i)):
                    out = job.run()
                assert job.check(out) is None
    finally:
        tracer.uninstall()
    assert tracing.nesting_error(tracer.spans) is None
    metrics = tracing.layer_metrics(tracer.spans, 1, 1.0, 1.0)
    assert list(metrics) == [name for name, _ in tracing.PER_LAYER]
    for layer in ("detection.assemble.calls", "concentration.concentrate.calls", "cli.main.self_s"):
        assert metrics[layer] > 0
    bad = [list(s) for s in tracer.spans]
    child = next(i for i, s in enumerate(bad) if s[tracing.PARENT] is not None)
    bad[child][tracing.END] = bad[bad[child][tracing.PARENT]][tracing.END] + 1.0
    assert tracing.nesting_error(bad) is not None


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
