"""Scenario files: the input form of a wiring evaluation.

A scenario names a state (fixed, at one parameter value, or on a
parameter grid), a wiring, and optional output sinks.  The format is
JSON with a strict schema: unknown fields are rejected rather than
ignored, so a typo like "witnes" fails loudly instead of silently
evaluating something else.  The library reads scenario files; it
does not write them.  The dataclasses state the schema once: a file
object's keys are its dataclass's fields, those without a default
required.  Each dataclass reads its own fields' types and is valid by
construction, parsed or built by hand, so ``parse_scenario`` checks
keys, reads only an assignment's types (a file's witness is a name,
its param a number) and adds where a field sits.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cache
from pathlib import PurePath

from .detection import Assignment, DetectionReport, WiringSpec, expectation, sweep
from .linalg import checked_integer
from .states import FAMILIES, FIXED_STATES
from .witnesses import canonical_name

SCENARIO_VERSION = 1


def _number(value, where: str) -> float:
    # finite JSON numbers only: float() would read "0.25" as 0.25 and true as 1.0; the
    # negated bound also turns away NaN, Infinity and integers too large for a float
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _string(value, where: str) -> str:
    # str() would read ["ex4"] as "['ex4']" and write that into the outputs
    if not isinstance(value, str):
        raise ValueError(f"{where}: expected a string, got {value!r}")
    return value


_FAMILY_READS = (("value", _number), ("start", _number), ("stop", _number), ("points", checked_integer))


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
        _string(self.name, "family.name")
        for key, read in _FAMILY_READS:
            if getattr(self, key) is not None:
                object.__setattr__(self, key, read(getattr(self, key), f"family.{key}"))
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
    """A b-axis: each of ``values`` (a non-empty list or tuple of numbers) in turn is ``witness``'s param."""

    witness: str
    name: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        _string(self.name, "witness_param.name")
        _string(self.witness, "witness_param.witness")
        if not isinstance(self.values, (list, tuple)) or not self.values:
            raise ValueError("witness_param.values: expected a non-empty list")
        values = tuple(_number(v, f"witness_param.values[{i}]") for i, v in enumerate(self.values))
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class OutputSink:
    """A csv or json file at a relative ``path`` without '..'; a refusal names the field (``path: …``)."""

    format: str
    path: str

    def __post_init__(self) -> None:
        if self.format not in ("csv", "json"):
            raise ValueError(f"format: expected 'csv' or 'json', got {self.format!r}")
        path = PurePath(self.path) if isinstance(self.path, str) else None
        if path is None or not path.parts or path.anchor or ".." in path.parts:
            raise ValueError(f"path: expected a relative file path without '..', got {self.path!r}")


@dataclass(frozen=True)
class Scenario:
    """A scenario, valid by construction, parsed or built by hand.

    Refuses a version, name or seed of the wrong type (the version and
    seed are stored as ints), an unknown version, a file two sinks
    write, state dims other than the wiring's (in every family mode),
    and a b-axis off a grid, named like an output field or aimed at no
    wired catalog witness.
    """

    version: int
    name: str
    seed: int
    family: FamilyRef
    wiring: WiringSpec
    witness_param: WitnessParam | None = None
    outputs: tuple[OutputSink, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "version", checked_integer(self.version, "version"))
        _string(self.name, "name")
        object.__setattr__(self, "seed", checked_integer(self.seed, "seed"))
        if self.version != SCENARIO_VERSION:
            raise ValueError(f"unsupported scenario version {self.version}")
        paths = [PurePath(o.path) for o in self.outputs]  # "x.out" and "./x.out" are one file
        for idx, (path, sink) in enumerate(zip(paths, self.outputs)):
            if path in paths[:idx]:
                raise ValueError(f"outputs[{idx}].path: {sink.path!r} is already written by an earlier sink")
        fam, base_dims = self.family, list(self.wiring.base_dims)
        dims = list(FIXED_STATES[fam.name][1] if fam.mode == "fixed" else FAMILIES[fam.name].dims)
        if dims != base_dims:
            raise ValueError(f"state {fam.name} has dims {dims}, wiring expects {base_dims}")
        wp = self.witness_param
        if wp is not None:
            if fam.mode != "grid":
                raise ValueError(f"witness_param needs a parameter grid; state {fam.name} has one point")
            if wp.name in ("points", "thresholds", "value", FAMILIES[fam.name].param_name):
                raise ValueError(f"witness_param.name: {wp.name!r} names a field of the sweep's output")
            # a raw-matrix assignment has no catalog name, so no b-axis targets it
            wired = {canonical_name(a.witness) for a in self.wiring.assignments if isinstance(a.witness, str)}
            if canonical_name(wp.witness) not in wired:
                raise ValueError(f"witness_param targets {wp.witness!r} but no assignment uses it")


@cache
def _file_keys(cls: type) -> tuple[frozenset[str], frozenset[str]]:
    """A file object's allowed keys, ``cls``'s fields, and its required keys, the fields without a default."""
    own = fields(cls)
    return frozenset(f.name for f in own), frozenset(f.name for f in own if f.default is f.default_factory is MISSING)


def _checked(cls: type, obj, where: str) -> dict:
    """``obj`` if a JSON object whose keys are ``cls``'s fields, each required one present; refused by ``where``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object, got {type(obj).__name__}")
    allowed, required = _file_keys(cls)
    unknown = sorted(obj.keys() - allowed)
    if unknown:
        raise ValueError(f"{where}: unknown field(s) {', '.join(unknown)}")
    missing = sorted(required - obj.keys())
    if missing:
        raise ValueError(f"{where}: missing required field(s) {', '.join(missing)}")
    return obj


def _parse_family(obj) -> FamilyRef:
    _checked(FamilyRef, obj, "family")
    for key, read in _FAMILY_READS:  # a JSON null is a value to refuse, not an absent field
        if key in obj and obj[key] is None:
            read(None, f"family.{key}")
    return FamilyRef(**obj)


def _parse_wiring(obj) -> WiringSpec:
    _checked(WiringSpec, obj, "wiring")
    assignments = []
    if not isinstance(obj["assignments"], list) or not obj["assignments"]:
        raise ValueError("wiring.assignments: expected a non-empty list")
    for idx, a in enumerate(obj["assignments"]):
        where = f"wiring.assignments[{idx}]"
        _checked(Assignment, a, where)
        # a file's witness is a catalog name and its param a number; the library takes more
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
    _checked(Scenario, obj, "scenario")
    family = _parse_family(obj["family"])
    wiring = _parse_wiring(obj["wiring"])
    witness_param = None
    if "witness_param" in obj:
        witness_param = WitnessParam(**_checked(WitnessParam, obj["witness_param"], "witness_param"))
    sinks, outputs = obj.get("outputs", []), []
    if not isinstance(sinks, list):
        raise ValueError(f"outputs: expected a list of sinks, got {sinks!r}")
    for idx, sink in enumerate(sinks):
        _checked(OutputSink, sink, f"outputs[{idx}]")
        try:
            outputs.append(OutputSink(**sink))
        except ValueError as exc:  # OutputSink names the field; this adds where it sits
            raise ValueError(f"outputs[{idx}].{exc}") from None
    return Scenario(obj["version"], obj["name"], obj["seed"], family, wiring, witness_param, tuple(outputs))


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
    return replace(wiring, assignments=tuple(
        Assignment(a.witness, a.slots, value) if isinstance(a.witness, str) and canonical_name(a.witness) == canon else a
        for a in wiring.assignments
    ))


def run_scenario(s: Scenario, points_override: int | None = None) -> ScenarioRun:
    """Evaluate the scenario; its construction checked every rule but ``points_override``'s."""
    fam, wp = s.family, s.witness_param
    if fam.mode != "grid":
        if points_override is not None:
            raise ValueError(f"scenario {s.name!r} has no parameter grid to resize")
        rho = FIXED_STATES[fam.name][0] if fam.mode == "fixed" else FAMILIES[fam.name](fam.value)
        return ScenarioRun(s, point_value=expectation(s.wiring, rho))
    points = points_override if points_override is not None else fam.points
    family, bounds = FAMILIES[fam.name], (fam.start, fam.stop)
    axis = [(b, _with_witness_param(s.wiring, wp.witness, b)) for b in wp.values] if wp else [(None, s.wiring)]
    return ScenarioRun(s, reports=tuple((b, sweep(w, family, points, bounds)) for b, w in axis))


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

    A sweep without a b-axis is a one-entry axis with no b column.  Each
    number is formatted once, as `fmt` formats it: the grid that every b
    shares once per run, each b once per report, each value once per cell.
    """
    s, wp = run.scenario, run.scenario.witness_param
    if run.kind == "point":  # a fixed state has no parameter; its column is left empty
        pv = fmt(s.family.value) if s.family.mode == "value" else ""
        return f"param,value\n{pv},{fmt(run.point_value)}\n"
    lines, grid = [f"{run.reports[0][1].param_name},{wp.name},value" if wp else "param,value"], None
    for b, report in run.reports:
        if report.params != grid:  # every b of a run shares one grid
            grid = report.params
            cells = ["%.15g," % p for p in grid]
        b_cell = fmt(b) + "," if wp else ""
        lines += ["%s%s%.15g" % (c, b_cell, v) for c, v in zip(cells, report.values)]
    return "\n".join(lines) + "\n"


def run_to_json(run: ScenarioRun) -> str:
    """Companion JSON: scenario identity plus located thresholds."""
    s, wp = run.scenario, run.scenario.witness_param
    obj: dict = {"scenario": s.name, "family": s.family.name, "seed": s.seed}
    if run.kind == "point":
        obj.update(kind="point", value=round15(run.point_value))
        if s.family.mode == "value":
            obj["param"] = round15(s.family.value)
        return json_text(obj)
    obj.update(kind="sweep", param_name=run.reports[0][1].param_name)
    entries = [{"points": len(r.params), "thresholds": list(map(threshold_dict, r.thresholds))} for _, r in run.reports]
    if wp is None:
        obj.update(entries[0])
    else:
        obj.update(axis=wp.name, sweeps=[{wp.name: round15(b), **e} for (b, _), e in zip(run.reports, entries)])
    return json_text(obj)
