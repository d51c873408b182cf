"""Spans around the calls into each witwire layer, recorded from outside.

``Tracer.install`` wraps every layer function listed in ``LAYERS`` at
every ``witwire.*`` module attribute (and class attribute) that refers
to it, so calls through ``from .x import f`` aliases are seen too.
``audit`` then scans the same namespaces and fails if any reference to
an original function is left unwrapped.

Spans are kept in memory as lists ``[name, start, end, parent, job,
out_bytes, key]`` and turned into per-layer metrics (calls, self time,
bytes returned) at the end.  Spans are only recorded while a job is
open, so the benchmark's own checks, which may call witwire to look up
catalog matrices, never appear in the trace.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (span name, module, attribute path); two entries may share a span name
LAYERS = (
    ("linalg.inverse", "witwire.linalg", "inverse"),
    ("linalg.hermitian_eig", "witwire.linalg", "hermitian_eig"),
    ("multipartite.embed", "witwire.multipartite", "embed"),
    ("multipartite.tensor_power", "witwire.multipartite", "tensor_power"),
    ("multipartite.partial_trace", "witwire.multipartite", "partial_trace"),
    ("multipartite.partial_transpose", "witwire.multipartite", "partial_transpose"),
    ("states.family", "witwire.states", "StateFamily.__call__"),
    ("states.schmidt_state", "witwire.states", "schmidt_state"),
    ("witnesses.catalog", "witwire.witnesses", "catalog"),
    ("witnesses.min_product_expectation", "witwire.witnesses", "min_product_expectation"),
    ("detection.expectation", "witwire.detection", "expectation"),
    ("detection.assemble", "witwire.detection", "assemble"),
    ("detection.find_threshold", "witwire.detection", "find_threshold"),
    ("detection.sweep", "witwire.detection", "sweep"),
    ("detection.ordering_matrix", "witwire.detection", "ordering_matrix"),
    ("ppt.ppt_threshold", "witwire.ppt", "ppt_threshold"),
    ("ppt.min_pt_eigenvalue", "witwire.ppt", "min_pt_eigenvalue"),
    ("concentration.concentrate", "witwire.concentration", "concentrate"),
    ("concentration.measurement_vector", "witwire.concentration", "measurement_vector"),
    ("concentration.probability_consistency", "witwire.concentration", "probability_consistency"),
    ("scenario.parse_scenario", "witwire.scenario", "parse_scenario"),
    ("scenario.run_scenario", "witwire.scenario", "run_scenario"),
    ("scenario.render", "witwire.scenario", "run_to_csv"),
    ("scenario.render", "witwire.scenario", "run_to_json"),
    ("cli.main", "witwire.cli", "main"),
)

# per-layer metrics, all per round: (name, unit)
PER_LAYER = (
    ("linalg.inverse.calls", "1/round"),
    ("linalg.inverse.self_s", "s/round"),
    ("linalg.hermitian_eig.calls", "1/round"),
    ("linalg.hermitian_eig.self_s", "s/round"),
    ("multipartite.embed.calls", "1/round"),
    ("multipartite.embed.self_s", "s/round"),
    ("multipartite.embed.out_bytes", "B/round"),
    ("multipartite.tensor_power.calls", "1/round"),
    ("multipartite.tensor_power.self_s", "s/round"),
    ("multipartite.tensor_power.out_bytes", "B/round"),
    ("multipartite.partial_trace.self_s", "s/round"),
    ("multipartite.partial_transpose.calls", "1/round"),
    ("multipartite.partial_transpose.self_s", "s/round"),
    ("states.family.calls", "1/round"),
    ("states.family.self_s", "s/round"),
    ("states.schmidt_state.self_s", "s/round"),
    ("witnesses.catalog.calls", "1/round"),
    ("witnesses.catalog.self_s", "s/round"),
    ("witnesses.min_product_expectation.self_s", "s/round"),
    ("detection.expectation.calls", "1/round"),
    ("detection.expectation.self_s", "s/round"),
    ("detection.assemble.calls", "1/round"),
    ("detection.assemble.self_s", "s/round"),
    ("detection.assemble.out_bytes", "B/round"),
    ("detection.find_threshold.calls", "1/round"),
    ("detection.find_threshold.self_s", "s/round"),
    ("detection.find_threshold.evals_per_call", "evals/call"),
    ("detection.sweep.self_s", "s/round"),
    ("detection.ordering_matrix.self_s", "s/round"),
    ("detection.expectation.per_wiring", "calls/wiring"),
    ("detection.catalog_per_expectation", "lookups/call"),
    ("ppt.ppt_threshold.calls", "1/round"),
    ("ppt.ppt_threshold.self_s", "s/round"),
    ("ppt.min_pt_eigenvalue.calls", "1/round"),
    ("concentration.concentrate.calls", "1/round"),
    ("concentration.concentrate.self_s", "s/round"),
    ("concentration.measurement_vector.calls", "1/round"),
    ("concentration.measurement_vector.self_s", "s/round"),
    ("concentration.probability_consistency.self_s", "s/round"),
    ("scenario.parse_scenario.self_s", "s/round"),
    ("scenario.run_scenario.self_s", "s/round"),
    ("scenario.render.self_s", "s/round"),
    ("scenario.render.out_bytes", "B/round"),
    ("cli.main.self_s", "s/round"),
    ("job.self_s", "s/round"),
    ("trace.overhead_ratio", "traced/untraced"),
)

JOB = "job"
EVALUATIONS = ("detection.expectation", "ppt.min_pt_eigenvalue")
NAME, START, END, PARENT, JOB_ID, OUT_BYTES, KEY = range(7)


class AuditError(RuntimeError):
    pass


def _out_bytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, tuple):
        return sum(v.nbytes for v in value if isinstance(v, np.ndarray))
    return 0


def _wiring_key(args, kwargs):
    spec = args[0] if args else kwargs.get("spec")
    try:
        hash(spec)
    except TypeError:  # a raw-matrix witness makes the spec unhashable
        return id(spec)
    return spec


def _namespaces():
    """Every witwire module, and every class defined in one."""
    mods = [m for name, m in list(sys.modules.items()) if name == "witwire" or name.startswith("witwire.")]
    classes = {
        id(v): v
        for m in mods
        for v in vars(m).values()
        if isinstance(v, type) and v.__module__.startswith("witwire")
    }
    return mods + list(classes.values())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._job = None
        self._originals: dict[int, object] = {}  # id(original) -> original
        self._patched: list[tuple[object, str, object]] = []  # (namespace, attr, original)

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def job(self, job_id):
        """Open the root span of one job; layer spans are recorded only inside."""
        self._job = job_id
        span = [JOB, time.perf_counter(), 0.0, None, job_id, 0, None]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            self._job = None

    def _wrap(self, name: str, fn, key=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0, self._stack[-1], self._job, 0,
                    key(args, kwargs) if key else None]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            span[OUT_BYTES] = _out_bytes(out)
            return out

        return wrapper

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function wherever a witwire namespace refers to it."""
        import witwire  # noqa: F401  (loads every submodule)

        wrappers: dict[int, object] = {}
        for name, module, path in LAYERS:
            owner = sys.modules.get(module)
            for part in path.split(".")[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, path.split(".")[-1], None)
            if not callable(fn):
                self.missing.append(f"{module}.{path}")
                continue
            self._originals[id(fn)] = fn
            key = _wiring_key if name == "detection.expectation" else None
            wrappers[id(fn)] = self._wrap(name, fn, key)
        for ns in _namespaces():
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers and value is self._originals[id(value)]:
                    setattr(ns, attr, wrappers[id(value)])
                    self._patched.append((ns, attr, value))
        self.audit()

    def audit(self) -> None:
        """Raise AuditError if a witwire namespace still holds an original."""
        left = [
            f"{getattr(ns, '__name__', ns)}.{attr}"
            for ns in _namespaces()
            for attr, value in vars(ns).items()
            if id(value) in self._originals and self._originals[id(value)] is value
        ]
        if left:
            raise AuditError("unwrapped references to layer functions: " + ", ".join(sorted(left)))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
                    "parent": s[PARENT], "job": str(s[JOB_ID]), "out_bytes": s[OUT_BYTES],
                }) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def nesting_error(spans: list[list]) -> str | None:
    """Check that each child lies inside its parent, in the same job, and
    after its previous sibling.  Then a span's self time is its duration
    minus time its children really took, never negative, and the child and
    self times of each job add up to the job span's duration."""
    last_end: dict[int, float] = {}
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p is None:
            continue
        parent = spans[p]
        if s[START] < parent[START] or s[END] > parent[END] or s[JOB_ID] != parent[JOB_ID]:
            return f"span {i} ({s[NAME]}) lies outside its parent {p} ({parent[NAME]})"
        if s[START] < last_end.get(p, parent[START]):
            return f"span {i} ({s[NAME]}) overlaps a sibling"
        last_end[p] = s[END]
    return None


def layer_metrics(
    spans: list[list], rounds: int, speed_scale: float, overhead_ratio: float
) -> dict[str, float]:
    """Every PER_LAYER metric, per round of the traced pass.

    Self times are multiplied by ``speed_scale``, the factor that scales
    the run's times to the reference machine speed.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    out_bytes: dict[str, int] = defaultdict(int)
    evals = 0
    wirings = set()
    catalog_in_expectation = 0
    for s, t in zip(spans, selfs):
        name = s[NAME]
        calls[name] += 1
        self_s[name] += t
        out_bytes[name] += s[OUT_BYTES]
        parent = s[PARENT]
        if name in EVALUATIONS and parent is not None and spans[parent][NAME] == "detection.find_threshold":
            evals += 1
        if name == "detection.expectation":
            wirings.add((s[JOB_ID], s[KEY]))
        if name == "witnesses.catalog":
            while parent is not None and spans[parent][NAME] != "detection.expectation":
                parent = spans[parent][PARENT]
            catalog_in_expectation += parent is not None

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    n_exp = calls["detection.expectation"]
    derived = {
        "detection.find_threshold.evals_per_call": ratio(evals, calls["detection.find_threshold"]),
        "detection.expectation.per_wiring": ratio(n_exp, len(wirings)),
        "detection.catalog_per_expectation": ratio(catalog_in_expectation, n_exp),
        "trace.overhead_ratio": overhead_ratio,
    }
    out = {}
    for metric, _ in PER_LAYER:
        if metric in derived:
            out[metric] = derived[metric]
            continue
        layer, kind = metric.rsplit(".", 1)
        table = {"calls": calls, "self_s": self_s, "out_bytes": out_bytes}[kind]
        out[metric] = table[layer] / rounds * (speed_scale if kind == "self_s" else 1.0)
    return out
