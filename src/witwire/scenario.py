"""Scenario files: the input form of a wiring evaluation.

A scenario names a state (fixed, at one parameter value, or on a
parameter grid), a wiring, and optional output sinks.  The format is
JSON with a strict schema: unknown fields are rejected rather than
ignored, so a typo like "witnes" fails loudly instead of silently
evaluating something else.  The library reads scenario files; it
does not write them.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import PurePath

from .detection import Assignment, DetectionReport, WiringSpec, expectation, sweep
from .linalg import checked_integer
from .states import FAMILIES, FIXED_STATES
from .witnesses import canonical_name

SCENARIO_VERSION = 1


@dataclass(frozen=True)
class FamilyRef:
    """A fixed state, a family at one value, or a grid; valid by construction.

    It refuses, in the parser's words, every reference the parser would;
    a grid outside [0, 1] is left to ``detection.sweep``'s ``bounds``.
    """

    name: str
    value: float | None = None
    start: float | None = None
    stop: float | None = None
    points: int | None = None

    def __post_init__(self) -> None:
        if self.points is not None:  # the parser reads it before any rule below
            checked_integer(self.points, "family.points")
        grid = [v is not None for v in (self.start, self.stop, self.points)]
        if self.value is not None and any(grid):
            raise ValueError("family: give either a fixed value or a grid, not both")
        if any(grid) and not all(grid):
            raise ValueError("family: a grid needs all of start, stop, points")
        if self.name in FIXED_STATES and self.mode != "fixed":
            raise ValueError(f"family: state {self.name!r} takes no parameter")
        if self.name not in FIXED_STATES and self.name not in FAMILIES:
            known = sorted(FAMILIES) + sorted(FIXED_STATES)
            raise ValueError(f"family: unknown name {self.name!r}; known: {', '.join(known)}")
        if self.name in FAMILIES and self.mode == "fixed":
            raise ValueError(f"family: {self.name!r} is parameterized; give value or start/stop/points")
        if self.mode == "grid" and self.points < 2:
            raise ValueError(f"family: grid needs points >= 2, got {self.points}")
        if self.mode == "grid" and self.stop < self.start:
            raise ValueError(f"family.stop: {self.stop} is below family.start {self.start}")

    @property
    def mode(self) -> str:
        if self.value is not None:
            return "value"
        if self.start is not None:
            return "grid"
        return "fixed"


@dataclass(frozen=True)
class WitnessParam:
    witness: str
    name: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class OutputSink:
    format: str
    path: str


@dataclass(frozen=True)
class Scenario:
    version: int
    name: str
    seed: int
    family: FamilyRef
    wiring: WiringSpec
    witness_param: WitnessParam | None = None
    outputs: tuple[OutputSink, ...] = field(default_factory=tuple)


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ValueError(f"{where}: unknown field(s) {', '.join(unknown)}")
    missing = sorted(required - set(obj))
    if missing:
        raise ValueError(f"{where}: missing required field(s) {', '.join(missing)}")


def _number(value, where: str) -> float:
    # finite JSON numbers only: float() would read "0.25" as 0.25 and true as 1.0; the
    # negated bound also turns away NaN, Infinity and integers too large for a float
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not abs(value) <= sys.float_info.max
    ):
        raise ValueError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _string(value, where: str) -> str:
    # str() would read ["ex4"] as "['ex4']" and write that into the outputs
    if not isinstance(value, str):
        raise ValueError(f"{where}: expected a string, got {value!r}")
    return value


def _parse_family(obj: dict) -> FamilyRef:
    _require_keys(obj, {"name", "value", "start", "stop", "points"}, {"name"}, "family")
    name = _string(obj["name"], "family.name")
    reads = {"value": _number, "start": _number, "stop": _number, "points": checked_integer}
    return FamilyRef(name, **{k: read(obj[k], f"family.{k}") for k, read in reads.items() if k in obj})


def _parse_wiring(obj: dict) -> WiringSpec:
    _require_keys(obj, {"copies", "base_dims", "assignments"}, {"copies", "base_dims", "assignments"}, "wiring")
    assignments = []
    if not isinstance(obj["assignments"], list) or not obj["assignments"]:
        raise ValueError("wiring.assignments: expected a non-empty list")
    for idx, a in enumerate(obj["assignments"]):
        where = f"wiring.assignments[{idx}]"
        _require_keys(a, {"witness", "slots", "param"}, {"witness", "slots"}, where)
        param = None if a.get("param") is None else _number(a["param"], f"{where}.param")
        assignments.append(Assignment(_string(a["witness"], f"{where}.witness"), a["slots"], param))
    try:
        return WiringSpec(obj["copies"], obj["base_dims"], tuple(assignments))
    except ValueError as exc:  # WiringSpec names the field; this adds where it sits
        raise ValueError(f"wiring.{exc}") from None


def parse_scenario(text: str) -> Scenario:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"scenario is not valid JSON: {exc}") from exc
    _require_keys(
        obj,
        {"version", "name", "seed", "family", "wiring", "witness_param", "outputs"},
        {"version", "name", "seed", "family", "wiring"},
        "scenario",
    )
    if checked_integer(obj["version"], "version") != SCENARIO_VERSION:
        raise ValueError(f"unsupported scenario version {obj['version']}")
    family = _parse_family(obj["family"])
    wiring = _parse_wiring(obj["wiring"])
    witness_param = None
    if "witness_param" in obj:
        wp = obj["witness_param"]
        _require_keys(wp, {"witness", "name", "values"}, {"witness", "name", "values"}, "witness_param")
        if not isinstance(wp["values"], list) or not wp["values"]:
            raise ValueError("witness_param.values: expected a non-empty list")
        name, fam = _string(wp["name"], "witness_param.name"), FAMILIES.get(family.name)
        if name in ("points", "thresholds", "value", fam and fam.param_name):
            raise ValueError(f"witness_param.name: {name!r} names a field of the sweep's output")
        witness_param = WitnessParam(
            witness=_string(wp["witness"], "witness_param.witness"),
            name=name,
            values=tuple(
                _number(v, f"witness_param.values[{i}]") for i, v in enumerate(wp["values"])
            ),
        )
    sinks, outputs, paths = obj.get("outputs", []), [], set()
    if not isinstance(sinks, list):
        raise ValueError(f"outputs: expected a list of sinks, got {sinks!r}")
    for idx, sink in enumerate(sinks):
        where = f"outputs[{idx}]"
        _require_keys(sink, {"format", "path"}, {"format", "path"}, where)
        if sink["format"] not in ("csv", "json"):
            raise ValueError(f"{where}.format: expected 'csv' or 'json', got {sink['format']!r}")
        # a sink writes under the output directory, and to a file no other sink writes
        path = PurePath(sink["path"]) if isinstance(sink["path"], str) else None
        if path is None or not path.parts or path.anchor or ".." in path.parts:
            raise ValueError(f"{where}.path: expected a relative file path without '..', got {sink['path']!r}")
        if path in paths:
            raise ValueError(f"{where}.path: {sink['path']!r} is already written by an earlier sink")
        paths.add(path)
        outputs.append(OutputSink(format=sink["format"], path=sink["path"]))
    return Scenario(
        version=SCENARIO_VERSION,
        name=_string(obj["name"], "name"),
        seed=checked_integer(obj["seed"], "seed"),
        family=family,
        wiring=wiring,
        witness_param=witness_param,
        outputs=tuple(outputs),
    )


# ---------------------------------------------------------------------------
# Running scenarios.

@dataclass(frozen=True)
class ScenarioRun:
    """Evaluated scenario: one fixed value, one sweep, or one sweep per b."""

    scenario: Scenario
    point_value: float | None = None
    reports: tuple[tuple[float | None, DetectionReport], ...] = ()

    @property
    def kind(self) -> str:
        return "sweep" if self.scenario.family.mode == "grid" else "point"


def _with_witness_param(wiring: WiringSpec, target: str, value: float) -> WiringSpec:
    canon = canonical_name(target)
    hits = [canonical_name(a.witness) == canon for a in wiring.assignments]
    if not any(hits):
        raise ValueError(f"witness_param targets {target!r} but no assignment uses it")
    replaced = tuple(
        Assignment(a.witness, a.slots, value) if hit else a
        for a, hit in zip(wiring.assignments, hits)
    )
    return WiringSpec(wiring.copies, wiring.base_dims, replaced)


def run_scenario(s: Scenario, points_override: int | None = None) -> ScenarioRun:
    """Evaluate the scenario: the state's dims must be the wiring's base dims in every mode."""
    fam = s.family
    if fam.mode == "fixed":
        rho, dims = FIXED_STATES[fam.name]
    else:
        family = FAMILIES[fam.name]
        dims = family.dims
    if tuple(dims) != tuple(s.wiring.base_dims):
        raise ValueError(
            f"state {fam.name} has dims {list(dims)}, wiring expects {list(s.wiring.base_dims)}"
        )
    if fam.mode != "grid":
        if s.witness_param is not None:
            raise ValueError(f"witness_param needs a parameter grid; state {fam.name} has one point")
        if points_override is not None:
            raise ValueError(f"scenario {s.name!r} has no parameter grid to resize")
        if fam.mode == "value":
            rho = family(fam.value)
        return ScenarioRun(s, point_value=expectation(s.wiring, rho))
    points = points_override if points_override is not None else fam.points
    bounds = (fam.start, fam.stop)
    if s.witness_param is None:
        return ScenarioRun(s, reports=((None, sweep(s.wiring, family, points, bounds)),))
    reports = []
    for b in s.witness_param.values:
        wired = _with_witness_param(s.wiring, s.witness_param.witness, b)
        reports.append((b, sweep(wired, family, points, bounds)))
    return ScenarioRun(s, reports=tuple(reports))


# ---------------------------------------------------------------------------
# Output formatting, shared with the CLI: 15 significant digits, '.' decimal
# point always (str.format on floats does not consult the locale).

def fmt(x: float) -> str:
    return f"{float(x):.15g}"


def round15(x: float) -> float:
    return float(fmt(x))


def json_text(obj: dict) -> str:
    """A JSON report as written: two-space indent, sorted keys, one trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def threshold_dict(root: float) -> dict:
    # every root is exact, so the bracket [lo, hi] the format carries is the root itself
    r = round15(root)
    return {"root": r, "lo": r, "hi": r}


def run_to_csv(run: ScenarioRun) -> str:
    """CSV table for a sweep: `param,value`, or `<p>,<b>,value` for a b-axis.

    Each number is formatted once, as `fmt` formats it: the grid that
    every b shares once per run, each b once per report, each value once
    per cell.
    """
    s = run.scenario
    if run.kind == "point":
        lines = ["param,value"]
        # fixed states have no parameter; leave the column empty
        pv = fmt(s.family.value) if s.family.mode == "value" else ""
        lines.append(f"{pv},{fmt(run.point_value)}")
        return "\n".join(lines) + "\n"
    if s.witness_param is None:
        lines = ["param,value"]
        _, report = run.reports[0]
        lines += ["%.15g,%.15g" % pv for pv in zip(report.params, report.values)]
        return "\n".join(lines) + "\n"
    pname = FAMILIES[s.family.name].param_name
    lines = [f"{pname},{s.witness_param.name},value"]
    grid, cells = None, []
    for b, report in run.reports:
        if report.params != grid:  # every b of a run shares one grid
            grid = report.params
            cells = ["%.15g," % p for p in grid]
        b_cell = fmt(b) + ","
        lines += ["%s%.15g" % pv for pv in zip([c + b_cell for c in cells], report.values)]
    return "\n".join(lines) + "\n"


def run_to_json(run: ScenarioRun) -> str:
    """Companion JSON: scenario identity plus located thresholds."""
    s = run.scenario
    obj: dict = {"scenario": s.name, "family": s.family.name, "seed": s.seed}
    if run.kind == "point":
        obj["kind"] = "point"
        obj["value"] = round15(run.point_value)
        if s.family.mode == "value":
            obj["param"] = round15(s.family.value)
    else:
        obj["kind"] = "sweep"
        if s.witness_param is None:
            _, report = run.reports[0]
            obj["param_name"] = report.param_name
            obj["points"] = len(report.params)
            obj["thresholds"] = [threshold_dict(t) for t in report.thresholds]
        else:
            obj["param_name"] = FAMILIES[s.family.name].param_name
            obj["axis"] = s.witness_param.name
            entries = []
            for b, report in run.reports:
                entries.append(
                    {
                        s.witness_param.name: round15(b),
                        "points": len(report.params),
                        "thresholds": [threshold_dict(t) for t in report.thresholds],
                    }
                )
            obj["sweeps"] = entries
    return json_text(obj)
