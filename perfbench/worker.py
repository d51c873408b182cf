"""One benchmark worker process: set up, run rounds of one workload, report.

run.py starts each worker as a fresh process with the BLAS thread count
pinned in its environment and ``--spawned-at`` set to the wall-clock
time just before the start, so ``setup_s`` covers interpreter start,
``import witwire``, scenario parsing and one warm-up job of each kind.
The benchmark's own input generation and checking are subtracted from
it.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_ROUNDS = 10  # so that every run holds at least ten jobs beyond p90
# reference_time() on a 2-vCPU x86-64 box (OpenBLAS, one thread) at its
# fastest; reported times are scaled to a machine this fast
REFERENCE_S = 0.0125
REF_EVERY_S = 0.25  # between jobs, time the reference at least this often
_REF_LARGE = (np.arange(256 * 256) % 7 - 3.0).reshape(256, 256) * (1 + 1j) / 256
_REF_SMALL = np.eye(4, dtype=complex) + 0.5j


def reference_time() -> float:
    """Time a fixed mix of NumPy and Python work: the machine's current speed.

    A shared machine can run up to 1.5x slower for a minute at a time,
    and BLAS products, small-array NumPy calls and pure-Python loops slow
    down by about the same factor, so this mix tracks the speed that
    every job sees.
    """
    t0 = time.perf_counter()
    for _ in range(2):
        _REF_LARGE @ _REF_LARGE
    for _ in range(400):
        np.kron(_REF_SMALL, _REF_SMALL).trace()
    x = 0
    for i in range(20000):
        x += i * i
    return time.perf_counter() - t0


def run_job(job, tracer=None, job_id=None) -> tuple[float, str | None]:
    """Run one job timed, then check it untimed; returns (latency_s, error)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = job.run()
        else:
            with tracer.job(job_id):
                out = job.run()
    except Exception as exc:  # a failing job is counted, not fatal
        return time.perf_counter() - t0, f"{job.kind} raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    try:
        return latency, job.check(out)
    except Exception as exc:
        return latency, f"{job.kind} check raised {type(exc).__name__}: {exc}"


def run_rounds(bench, first_round: int, seconds: float, min_rounds: int = 1, tracer=None) -> dict:
    """Whole rounds until ``seconds`` have passed and ``min_rounds`` rounds ran.

    reference_time() is taken before every round, between jobs whenever
    REF_EVERY_S have passed since the last one, and once more at the end.  ``per_round``
    holds each round's job latencies and ``scales`` the factor that
    takes each latency to the reference speed: REFERENCE_S over the mean
    of the reference times just before and just after the job.
    """
    per_round, brackets, marks, errors = [], [], [], []
    deadline = time.perf_counter() + seconds
    last_mark = 0.0
    r = first_round
    while len(per_round) < min_rounds or time.perf_counter() < deadline:
        latencies, before = [], []
        for i, job in enumerate(bench.make_round(r)):
            if i == 0 or time.perf_counter() - last_mark >= REF_EVERY_S:
                marks.append(reference_time())
                last_mark = time.perf_counter()
            before.append(len(marks) - 1)
            latency, err = run_job(job, tracer, (r, i))
            latencies.append(latency)
            if err:
                errors.append(f"round {r} job {i}: {err}")
        bench.end_round(r)
        per_round.append(latencies)
        brackets.append(before)
        r += 1
    marks.append(reference_time())
    scales = [[REFERENCE_S / ((marks[k] + marks[k + 1]) / 2) for k in b] for b in brackets]
    return {
        "per_round": per_round, "scales": scales, "marks": marks,
        "errors": errors, "next_round": r,
    }


def _jobs(res: dict) -> int:
    return sum(map(len, res["per_round"]))


def _sysconf(name: int) -> int | None:
    """glibc sysconf for the cache sizes, which Python's os.sysconf lacks."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
        value = libc.sysconf(name)
    except (OSError, AttributeError):
        return None
    return value if value > 0 else None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "l2_bytes": _sysconf(191),  # _SC_LEVEL2_CACHE_SIZE
        "l3_bytes": _sysconf(194),  # _SC_LEVEL3_CACHE_SIZE
        "git_commit": _git_commit(),
        "seed": seed,
    }


def scaled_latencies(per_round: list[list[float]], scales: list[list[float]] | None = None) -> list[float]:
    """Every job latency of the run, each multiplied by its factor to the
    reference speed when ``scales`` is given."""
    if scales is None:
        return [x for r in per_round for x in r]
    return [x * f for r, fs in zip(per_round, scales) for x, f in zip(r, fs)]


def timings(per_round: list[list[float]], scales: list[list[float]] | None = None) -> dict:
    """wall_s is the mean time of one round, the fixed job set; the
    percentiles are over every job latency of the run."""
    latencies = scaled_latencies(per_round, scales)
    return {
        "wall_s": sum(latencies) / len(per_round),
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
    }


def _summary(res: dict) -> dict:
    out = timings(res["per_round"], res["scales"])
    out.update(
        raw=timings(res["per_round"]), jobs=_jobs(res),
        rounds=len(res["per_round"]), per_round=res["per_round"], scales=res["scales"],
        reference_times=res["marks"],
    )
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spawned-at", type=float, required=True)
    args = p.parse_args(argv)

    import witwire
    import workloads

    if Path(witwire.__file__).resolve().parent != ROOT / "src" / "witwire":
        raise SystemExit(f"witwire imported from {witwire.__file__}, not from this checkout")
    work_dir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        excluded = time.perf_counter()
        bench = workloads.Bench(args.workload, args.seed, work_dir)
        warmups = bench.warmup_jobs()
        excluded = time.perf_counter() - excluded
        errors = []
        for job in warmups:
            t0 = time.perf_counter()
            latency, err = run_job(job)
            excluded += time.perf_counter() - t0 - latency  # the check
            errors += [f"warm-up: {err}"] if err else []
        t0 = time.perf_counter()
        bench.end_round(0)
        excluded += time.perf_counter() - t0
        setup_s = time.time() - args.spawned_at - excluded
        scale = REFERENCE_S / statistics.median(reference_time() for _ in range(3))
        result = {
            "setup_s": setup_s * scale, "raw_setup_s": setup_s,
            "attempted": len(warmups), "errors": errors,
        }
        if args.trace and not args.setup_only:
            result.update(traced_run(bench, args, result))
        elif not args.setup_only:
            res = run_rounds(bench, 1, args.seconds, MIN_ROUNDS)
            result.update(_summary(res))
            result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["attempted"] += _jobs(res)
            result["errors"] += res["errors"]
        result["env"] = environment(args.seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def traced_run(bench, args, result: dict) -> dict:
    """Half the time untraced, half traced; per-layer metrics per traced round.

    Adds the jobs run to ``result``'s ``attempted`` and ``errors``.
    """
    import tracing

    plain = run_rounds(bench, 1, args.seconds / 2, MIN_ROUNDS // 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_rounds(bench, plain["next_round"], args.seconds / 2, MIN_ROUNDS // 2, tracer)
    finally:
        tracer.uninstall()
    overhead = (
        timings(traced["per_round"], traced["scales"])["wall_s"]
        / timings(plain["per_round"], plain["scales"])["wall_s"]
    )
    result["attempted"] += _jobs(plain) + _jobs(traced)
    result["errors"] += plain["errors"] + traced["errors"]
    tracer.write(OUT / f"trace-{args.workload}.jsonl")
    rounds = len(traced["per_round"])
    scale = REFERENCE_S / statistics.median(traced["marks"])
    units = dict(tracing.PER_LAYER)
    layers = tracing.layer_metrics(tracer.spans, rounds, scale, overhead)
    return {
        "layers": {name: {"value": v, "unit": units[name]} for name, v in layers.items()},
        "missing_layers": tracer.missing,
        "spans": len(tracer.spans),
        "rounds": rounds,
        "trace_error": tracing.nesting_error(tracer.spans),
    }


if __name__ == "__main__":
    sys.exit(main())
