"""witwire benchmark: three seeded workloads, end-to-end or traced.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in fresh worker processes (worker.py) with the BLAS
thread count pinned.  With ``--trace 0`` the result holds the end-to-end
metrics: ``setup_s`` is the median over SETUP_PROBES set-up-only
workers, half started before and half after the measuring worker, and
the measuring worker itself; the other metrics come from the measuring
worker.  With ``--trace 1`` one worker runs half its time
untraced and half traced and the result holds the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the run exits
non-zero, without that line, if witwire's sources are not beside the
benchmark or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("sweep", "wirings", "concentration")
BLAS_THREADS = 1  # fixed on every commit; D=256 job times depend on it
SETUP_PROBES = 4
WORKER_SLACK_S = 140  # a worker may run this much longer than --seconds

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(time.time())],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
        timeout=seconds + WORKER_SLACK_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload; returns the result object plus the worker's details."""
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        main = spawn(base + ["--trace", "1"], seconds)
        metrics = main["layers"]
        setups = [main["setup_s"]]
    else:
        # probes before and after the measuring worker, so that the median
        # samples more than one moment of a machine whose speed drifts
        probes = [spawn(base + ["--setup-only"], seconds) for _ in range(SETUP_PROBES // 2)]
        main = spawn(base, seconds)
        probes += [spawn(base + ["--setup-only"], seconds) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        setups = [p["setup_s"] for p in probes] + [main["setup_s"]]
        main["errors"] += [e for p in probes for e in p["errors"]]
        main["attempted"] += sum(p["attempted"] for p in probes)
        values = dict(main, setup_s=statistics.median(setups))
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    failed = len(main["errors"])
    result = {
        "correct": failed == 0 and not main.get("trace_error"),
        "attempted": main["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    detail = dict(main, workload=workload, setup_samples=setups, result=result)
    detail["fail_ratio"] = failed / main["attempted"]
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-trace{trace}.json").write_text(json.dumps(detail, indent=2) + "\n")
    return detail


def report(detail: dict) -> None:
    """Human-readable lines for one workload."""
    name = detail["workload"]
    print(f"[{name}] env {json.dumps(detail['env'], sort_keys=True)}")
    for err in detail["errors"][:10]:
        print(f"[{name}] FAILED {err}")
    if detail.get("trace_error"):
        print(f"[{name}] TRACE {detail['trace_error']}")
    print(f"[{name}] {detail['attempted']} jobs, {detail['rounds']} rounds measured; fail_ratio {detail['fail_ratio']} (1)")
    for metric, m in detail["result"]["metrics"].items():
        print(f"[{name}] {metric} {m['value']} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "witwire" / "__init__.py").is_file():
        print(f"error: witwire sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    details = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    for detail in details:
        report(detail)
    results = [d["result"] for d in details]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{d['workload']}.{k}": v for d in details for k, v in d["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
