"""Seeded inputs and job lists for the three benchmark workloads.

Every workload is a closed loop with one client: each job starts when
the previous one returns.  A *round* is the workload's fixed, checked
job set, drawn from (seed, workload, round index) outside any timed
region; witwire only sees the generated inputs (scenario files,
wirings, density matrices, Schmidt operators).  Job sizes are
stratified, so a round costs nearly the same on every seed while the
seed still picks every input value.

sweep
    Why: one wiring evaluated hundreds of times along a noise parameter,
    the parameter-scan-with-thresholds job users wait on.  Loads
    detection (sweep, find_threshold, expectation, assemble), states
    families, scenario parsing and rendering, CLI file output and ppt.
    Bypasses concentration.
wirings
    Why: one-off evaluations of fresh random wirings, with no reuse
    across parameter values; a quarter of the jobs sit at D=256.  Loads
    witnesses.catalog, detection.assemble and multipartite.embed /
    tensor_power, plus ordering tables and witness validation (many
    product vectors against one small operator).  Bypasses scenario,
    cli, ppt and concentration.
concentration
    Why: the two-copy protocol, which uses no detection, witness or
    scenario code.  Loads concentration, linalg.inverse,
    states.schmidt_state and the 256x256 multipartite products at d=4.
    Bypasses detection, witnesses, scenario and cli.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
import witwire
from witwire import cli, concentration, detection, states, witnesses

WORKLOADS = ("sweep", "wirings", "concentration")

SWEEP_SCENARIOS = ("ex3_cyclic", "ex4_p_w3", "ex4_pb_w3", "ex5_cross", "ex5_ww1")
POINT_LADDER = (24, 48, 96, 192)  # one sweep job per rung and scenario per round
# each rung's point count is drawn once per run within +-3%, so every
# round does the same work
POINT_JITTER = 0.03
ROOT_MARGIN = 0.02  # sub-range ends stay this far from every root
PPT_FAMILIES = ("werner_w", "werner_a", "noisy_w")

CATALOG = ("W", "V", "W1", "W2", "W3", "W4", "P", "P_b", "WW1")
PAIR_WITNESSES = CATALOG[:-1]
# (base dims, copies, witnesses placed, jobs per round); 48 of the 216
# jobs in a round are at D=256.  Percentiles are steadiest inside a
# large class of like jobs, so the counts put job_p50_ms among the
# D=16 jobs with two witnesses and job_p90_ms among the D=256 jobs with
# the most witnesses; the 9 validate jobs, the slowest, stay well under
# a tenth of the round.
WIRING_CLASSES = (
    [((2, 2), 4, n, 12) for n in (1, 2, 3, 4)]
    + [((2, 2), 3, n, 6) for n in (1, 2, 3)]
    + [((2, 2, 2), 2, n, 6) for n in (1, 2, 3)]
    + [((2, 2), 2, n, 30) for n in (1, 2)]
    + [((2, 2), 1, 1, 30), ((2, 2, 2), 1, 1, 30)]
)
# the ordering tables of ex3 and ex5, at a seeded parameter value
ORDERING_TABLES = (
    ("ex3_cross", ("W1", "W2", "W3"), "werner_w", 2, (2, 2),
     {"cross": [((0, 0), (1, 1)), ((0, 1), (1, 0))]}),
    ("ex3_orderings", ("W1", "W2", "W3"), "werner_w", 3, (2, 2),
     {"per_copy": [((0, 0), (0, 1)), ((1, 0), (1, 1)), ((2, 0), (2, 1))],
      "same_party": [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((2, 0), (2, 1))]}),
    ("ex5_plain", ("W3", "W4"), "noisy_w", 2, (2, 2, 2),
     {"plain_tensor": [((0, 0), (0, 1)), ((0, 2), (1, 0)), ((1, 1), (1, 2))]}),
)
# `witwire validate` samples 100000 product states by default, in chunks
# of 20000; each validate job draws its count within +-3% of that
VALIDATE_SAMPLES = 100000
VALIDATE_JITTER = 0.03
CONCENTRATION_DIMS = (2, 3, 4)
CONCENTRATION_REPEATS = 4  # jobs per (d, kind) per round
SCHMIDT_CONDITION_CAP = 1e2  # witwire's kind-M cross-check needs cond <= 1e2


@dataclass
class Job:
    kind: str
    desc: dict  # the job's inputs, for logs and determinism checks
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


# ---------------------------------------------------------------------------
# The benchmark's own state constructions: they are the inputs of the
# wirings workload and the states of its reference contraction.

def _projector(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def _basis_sum(n_qubits: int, indices: tuple[int, ...]) -> np.ndarray:
    v = np.zeros(2**n_qubits, dtype=complex)
    v[list(indices)] = 1.0
    return v / math.sqrt(len(indices))


_PSI_PLUS = _basis_sum(2, (0, 3))
_PSI_MINUS = np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) / math.sqrt(2.0)
_W = _basis_sum(3, (1, 2, 4))
_SIGMA = 0.5 * np.array(
    [[0, 0, 0, 0], [0, 1, 1j, 0], [0, -1j, 1, 0], [0, 0, 0, 0]], dtype=complex
)
FIXED = {
    (2, 2): {
        "bell_psi_plus": _projector(_PSI_PLUS),
        "bell_psi_minus": _projector(_PSI_MINUS),
        "bell_phi_plus": _projector(_basis_sum(2, (1, 2))),
        "sigma": _SIGMA,
    },
    (2, 2, 2): {"ghz": _projector(_basis_sum(3, (0, 7))), "w_state": _projector(_W)},
}
FAMILY = {
    "werner_w": lambda w: w * np.eye(4) / 4 + (1 - w) * _projector(_PSI_PLUS),
    "werner_a": lambda a: a * _projector(_PSI_MINUS) + (1 - a) * np.eye(4) / 4,
    "noisy_w": lambda c: (1 - c) * _projector(_W) + c * np.eye(8) / 8,
}
FAMILIES_BY_BASE = {(2, 2): ("werner_w", "werner_a"), (2, 2, 2): ("noisy_w",)}


def _cli(args: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(args)


def _read_dir(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def _catalog_matrix(name: str, b: float | None) -> np.ndarray:
    return witnesses.catalog(name, b=b).matrix


class Bench:
    """Round generator for one workload and seed.

    ``work_dir`` receives the sweep workload's scenario and output
    files; each round's files are removed by ``end_round``.
    """

    def __init__(self, workload: str, seed: int, work_dir: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.workload = workload
        self.seed = seed
        self.work_dir = Path(work_dir)
        if workload == "sweep":
            shipped = Path(witwire.__file__).parent / "scenarios"
            self._shipped = {
                name: json.loads((shipped / f"{name}.json").read_text(encoding="utf-8"))
                for name in SWEEP_SCENARIOS
            }
            rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
            self._points = {
                (name, rung): int(round(rung * math.exp(rng.uniform(-POINT_JITTER, POINT_JITTER))))
                for name in SWEEP_SCENARIOS
                for rung in POINT_LADDER
            }
            self._ppt_roots = {
                "werner_w": 2.0 / 3.0,
                "werner_a": 1.0 / 3.0,
                "noisy_w": checks.ppt_root(FAMILY["noisy_w"], (2, 2, 2), 2),
            }

    def make_round(self, r: int) -> list[Job]:
        rng = np.random.default_rng([self.seed, WORKLOADS.index(self.workload), r])
        make = {
            "sweep": self._sweep_round,
            "wirings": self._wirings_round,
            "concentration": self._concentration_round,
        }[self.workload]
        return make(rng, r)

    def warmup_jobs(self) -> list[Job]:
        """The first job of each kind from round 0; timed rounds start at 1."""
        seen: dict[str, Job] = {}
        for job in self.make_round(0):
            seen.setdefault(job.kind, job)
        return list(seen.values())

    def end_round(self, r: int) -> None:
        shutil.rmtree(self.work_dir / f"round{r}", ignore_errors=True)

    # -- sweep -------------------------------------------------------------

    def _sweep_round(self, rng: np.random.Generator, r: int) -> list[Job]:
        rdir = self.work_dir / f"round{r}"
        jobs: list[Job] = []
        for si, name in enumerate(SWEEP_SCENARIOS):
            scen = self._shipped[name]
            bs = scen.get("witness_param", {}).get("values", [None])
            per_entry = [checks.sweep_roots(name, b) for b in bs]
            low = min(min(rs) for rs in per_entry)
            high = max(max(rs) for rs in per_entry)
            for k, rung in enumerate(POINT_LADDER):
                points = self._points[(name, rung)]
                if k == si % len(POINT_LADDER):
                    lo, hi = _rootless_range(rng, low, high)
                else:
                    lo = float(rng.uniform(0.0, low - ROOT_MARGIN))
                    hi = float(rng.uniform(high + ROOT_MARGIN, 1.0))
                jobs.append(self._sweep_job(rdir / str(len(jobs)), name, lo, hi, points, per_entry))
        for fam in PPT_FAMILIES:
            jobs.append(self._ppt_job(rdir / str(len(jobs)), fam))
        jobs.append(self._repeat_job(rdir / str(len(jobs)), rdir / "0", jobs[0]))
        return jobs

    def _sweep_job(self, jdir, name, lo, hi, points, per_entry) -> Job:
        scen = dict(self._shipped[name])
        scen["family"] = dict(scen["family"], start=lo, stop=hi)
        jdir.mkdir(parents=True)
        path = jdir / "scenario.json"
        path.write_text(json.dumps(scen, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        out = jdir / "out"
        args = ["sweep", str(path), "--points", str(points), "--out", str(out)]

        def check(rc: int) -> str | None:
            if rc != 0:
                return f"witwire sweep exited {rc}"
            files = _read_dir(out)
            data = json.loads(files[f"{name}.json"])
            entries = data.get("sweeps", [data])
            if len(entries) != len(per_entry):
                return f"{len(entries)} sweeps written, expected {len(per_entry)}"
            for entry, roots in zip(entries, per_entry):
                found = [t["root"] for t in entry["thresholds"]]
                err = checks.roots_error(found, [x for x in roots if lo <= x <= hi])
                if err:
                    return err
            rows = files[f"{name}.csv"].count(b"\n") - 1
            if rows != points * len(entries):
                return f"{rows} CSV rows, expected {points * len(entries)}"
            return None

        desc = {"scenario": name, "lo": lo, "hi": hi, "points": points}
        return Job("sweep", desc, lambda: _cli(args), check)

    def _ppt_job(self, jdir: Path, family: str) -> Job:
        jdir.mkdir(parents=True)
        out = jdir / "ppt.json"
        args = ["ppt", family, "--out", str(out)]
        expected = self._ppt_roots[family]

        def check(rc: int) -> str | None:
            if rc != 0:
                return f"witwire ppt exited {rc}"
            found = json.loads(out.read_text(encoding="utf-8"))["threshold"]
            return checks.close_error(found, expected, checks.ROOT_TOL)

        return Job("ppt", {"family": family}, lambda: _cli(args), check)

    def _repeat_job(self, jdir: Path, first_dir: Path, first: Job) -> Job:
        """Job 0 of the round once more; it must write byte-identical files."""
        jdir.mkdir(parents=True)
        path = first_dir / "scenario.json"
        out = jdir / "out"
        args = ["sweep", str(path), "--points", str(first.desc["points"]), "--out", str(out)]

        def check(rc: int) -> str | None:
            if rc != 0:
                return f"witwire sweep exited {rc}"
            return checks.same_bytes_error(_read_dir(first_dir / "out"), _read_dir(out))

        return Job("sweep", dict(first.desc, repeat=True), lambda: _cli(args), check)

    # -- wirings -----------------------------------------------------------

    def _wirings_round(self, rng: np.random.Generator, r: int) -> list[Job]:
        jobs = []
        for base, copies, n_placed, count in WIRING_CLASSES:
            for _ in range(count):
                jobs.append(self._expectation_job(rng, base, copies, n_placed, len(jobs)))
        for table in ORDERING_TABLES:
            jobs.append(_ordering_job(table, float(rng.uniform(0.0, 1.0))))
        for name in CATALOG:
            b = _draw_b(rng) if name == "P_b" else None
            samples = int(round(VALIDATE_SAMPLES * math.exp(rng.uniform(-VALIDATE_JITTER, VALIDATE_JITTER))))
            jobs.append(_validate_job(name, b, samples, int(rng.integers(2**31))))
        return jobs

    def _expectation_job(self, rng, base, copies, n_placed, job_no) -> Job:
        n = len(base)
        free = list(range(n * copies))
        placed = []  # (name, b, flat slots)
        for j in range(n_placed):
            reserve = 2 * (n_placed - j - 1)
            if len(free) - 3 >= reserve and rng.uniform() < 0.25:
                name = "WW1"
                slots = [free[i] for i in rng.choice(len(free), 3, replace=False)]
            else:
                name = str(rng.choice(PAIR_WITNESSES))
                slots = _pair_slots(rng, free, n, cross=(job_no + j) % 2 == 0)
            for s in slots:
                free.remove(s)
            placed.append((name, _draw_b(rng) if name == "P_b" else None, slots))
        if rng.uniform() < 0.5:
            state = str(rng.choice(FAMILIES_BY_BASE[base]))
            param = float(rng.uniform(0.0, 1.0))
            rho = FAMILY[state](param).astype(complex)
        else:
            state = str(rng.choice(sorted(FIXED[base])))
            param = None
            rho = FIXED[base][state]
        spec = detection.wiring(
            copies, base, [(name, [divmod(s, n) for s in slots], b) for name, b, slots in placed]
        )

        def check(value: float) -> str | None:
            ref = checks.contract(
                rho, base, copies, [(_catalog_matrix(name, b), slots) for name, b, slots in placed]
            )
            return checks.close_error(value, ref.real)

        desc = {"base": base, "copies": copies, "placed": placed, "state": state, "param": param}
        return Job("expectation", desc, lambda: detection.expectation(spec, rho), check)

    # -- concentration -----------------------------------------------------

    def _concentration_round(self, rng: np.random.Generator, r: int) -> list[Job]:
        jobs = []
        for _ in range(CONCENTRATION_REPEATS):
            for d in CONCENTRATION_DIMS:
                for kind in ("m", "M"):
                    jobs.append(_concentration_job(schmidt_operator(d, rng), kind))
        return jobs


def _draw_b(rng: np.random.Generator) -> float:
    return float(math.exp(rng.uniform(0.0, math.log(100.0))))


def _rootless_range(rng: np.random.Generator, low: float, high: float) -> tuple[float, float]:
    """A sub-range of [0, 1] at least 0.1 wide that brackets no root."""
    sides = [(a, b) for a, b in ((0.0, low - ROOT_MARGIN), (high + ROOT_MARGIN, 1.0)) if b - a >= 0.1]
    a, b = sides[int(rng.integers(len(sides)))]
    width = float(rng.uniform(0.1, b - a))
    lo = float(rng.uniform(a, b - width))
    return lo, lo + width


def _pair_slots(rng: np.random.Generator, free: list[int], n: int, cross: bool) -> list[int]:
    """Two free slots, on different copies when ``cross`` and on one copy otherwise."""
    first = free[int(rng.integers(len(free)))]
    rest = [s for s in free if s != first]
    wanted = [s for s in rest if (s // n != first // n) == cross] or rest
    return [first, wanted[int(rng.integers(len(wanted)))]]


def _ordering_job(table, param: float) -> Job:
    label, names, family, copies, base, orderings = table
    n = len(base)
    rho = FAMILY[family](param)

    def check(result: dict) -> str | None:
        want = len(names) ** len(next(iter(orderings.values()))) * len(orderings)
        if len(result) != want:
            return f"{len(result)} table entries, expected {want}"
        for (combo, order), value in result.items():
            placed = [
                (_catalog_matrix(name, None), [c * n + p for c, p in group])
                for name, group in zip(combo, orderings[order])
            ]
            err = checks.close_error(value, checks.contract(rho, base, copies, placed).real)
            if err:
                return f"{combo} {order}: {err}"
        return None

    def run() -> dict:
        return detection.ordering_matrix(
            names, states.FAMILIES[family], param, copies, base, orderings
        )

    return Job("ordering", {"table": label, "param": param}, run, check)


def _validate_job(name: str, b: float | None, samples: int, seed: int) -> Job:
    def run():
        return witnesses.validate_witness(witnesses.catalog(name, b=b), samples, seed)

    def check(report) -> str | None:
        if not report.passed:
            return f"validate_witness({name}) did not pass"
        return None

    desc = {"witness": name, "b": b, "samples": samples, "seed": seed}
    return Job("validate", desc, run, check)


def schmidt_operator(d: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian d x d operator, Tr(Psi^dag Psi) = 1, condition <= 1e2."""
    while True:
        mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if np.linalg.cond(mat) <= SCHMIDT_CONDITION_CAP:
            return mat / np.linalg.norm(mat)


def _concentration_job(psi: np.ndarray, kind: str) -> Job:
    def run() -> tuple[float, float, float]:
        res = concentration.concentrate(psi, kind)
        _, _, delta = concentration.probability_consistency(psi, kind)
        return res.fidelity_with_target, res.probability, delta

    desc = {"d": psi.shape[0], "kind": kind, "psi": tuple(complex(x) for x in psi.ravel())}
    return Job("concentrate", desc, run, lambda out: checks.concentration_error(*out))
