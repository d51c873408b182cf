import json
import math
from dataclasses import replace
from importlib import resources

import pytest
from oracles import run_to_csv_oracle, run_to_json_oracle

from witwire import scenario as sc
from witwire.detection import DetectionReport
from witwire.reproduce import load_scenario, shipped_scenario_names


def _shipped(name):
    """The shipped scenario file ``name``, read as JSON."""
    path = resources.files("witwire").joinpath("scenarios").joinpath(name + ".json")
    return json.loads(path.read_text(encoding="utf-8"))


def test_fifteen_scenarios_ship_and_parse():
    names = shipped_scenario_names()
    assert len(names) == 15
    for name in names:
        assert load_scenario(name).name, name


def test_parse_rejects_unknown_fields():
    raw = _shipped("ex1_cross")
    raw["surprise"] = 1
    with pytest.raises(ValueError, match="unknown field"):
        sc.parse_scenario(json.dumps(raw))


def test_parse_rejects_unknown_nested_fields():
    base = _shipped("ex1_cross")
    for path, key in [
        ("family", "witnes"),
        ("wiring", "copiess"),
    ]:
        raw = json.loads(json.dumps(base))
        raw[path][key] = 0
        with pytest.raises(ValueError, match=path):
            sc.parse_scenario(json.dumps(raw))
    raw = json.loads(json.dumps(base))
    raw["wiring"]["assignments"][0]["paramm"] = 1.0
    with pytest.raises(ValueError, match=r"assignments\[0\]"):
        sc.parse_scenario(json.dumps(raw))


def test_parse_error_carries_position():
    with pytest.raises(ValueError, match="line 1"):
        sc.parse_scenario("{nope}")


def test_family_ref_validation():
    base = _shipped("ex3_cyclic")

    bad = json.loads(json.dumps(base))
    bad["family"]["value"] = 0.5  # grid and value together
    with pytest.raises(ValueError, match="not both"):
        sc.parse_scenario(json.dumps(bad))

    bad = json.loads(json.dumps(base))
    del bad["family"]["points"]
    with pytest.raises(ValueError, match="start, stop, points"):
        sc.parse_scenario(json.dumps(bad))

    bad = json.loads(json.dumps(base))
    bad["family"]["points"] = 1
    with pytest.raises(ValueError, match="points >= 2"):
        sc.parse_scenario(json.dumps(bad))

    bad = json.loads(json.dumps(base))
    bad["family"]["name"] = "not_a_family"
    with pytest.raises(ValueError, match="known:"):
        sc.parse_scenario(json.dumps(bad))

    bad = json.loads(json.dumps(base))
    bad["family"] = {"name": "ghz", "value": 0.5}  # fixed states take no parameter
    with pytest.raises(ValueError, match="no parameter"):
        sc.parse_scenario(json.dumps(bad))


def test_version_gate():
    raw = _shipped("ex1_cross")
    raw["version"] = 99
    with pytest.raises(ValueError, match="version"):
        sc.parse_scenario(json.dumps(raw))


# through int(), each edit of ex3_cyclic but copies_bool would read as a
# valid scenario (slot (0, 0), 3 copies, version 1, 10 points, base dims
# [2, 2], seed 20240817); true would read as 1 copy and fail on a slot
# instead of on the field that is wrong
NON_INTEGER_FIELDS = {
    "slot": (("wiring", "assignments", 0, "slots", 0, 1), 0.9, r"assignments\[0\]\.slots\[0\]"),
    "copies": (("wiring", "copies"), 3.7, r"wiring\.copies"),
    "copies_bool": (("wiring", "copies"), True, r"wiring\.copies"),
    "version": (("version",), 1.9, r"^version"),
    "points": (("family", "points"), 10.5, r"family\.points"),
    "base_dims": (("wiring", "base_dims", 1), "2", r"wiring\.base_dims"),
    "seed": (("seed",), 20240817.5, r"^seed"),
}


def _edited(name, path, value):
    raw = _shipped(name)
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(raw)


@pytest.mark.parametrize("field", sorted(NON_INTEGER_FIELDS))
def test_parse_rejects_a_non_integer(field):
    path, value, where = NON_INTEGER_FIELDS[field]
    with pytest.raises(ValueError, match=where + r".*expected an integer"):
        sc.parse_scenario(_edited("ex3_cyclic", path, value))


@pytest.mark.parametrize(
    "index, slot, message",
    [
        (0, [5, 0], r"^wiring\.assignments\[0\]\.slots\[0\]: slot \(5, 0\) out of range: 3 copies, 2 parties$"),
        (1, [0, 0], r"^wiring\.assignments\[0\]\.slots\[1\]: slot \(0, 0\) assigned more than once$"),
    ],
    ids=["out_of_range", "repeated"],
)
def test_parse_names_the_field_of_a_bad_slot(index, slot, message):
    # the wiring's own rule refuses the slot, and the parser says where it sits
    with pytest.raises(ValueError, match=message):
        sc.parse_scenario(_edited("ex3_cyclic", ("wiring", "assignments", 0, "slots", index), slot))


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("wiring", "copies"), 0, r"^wiring\.copies: expected at least 1, got 0$"),
        (("wiring", "base_dims"), "22", r"^wiring\.base_dims: expected a non-empty list of integers"),
        (("wiring", "base_dims"), [2, 0], r"^wiring\.base_dims: expected dims >= 1"),
        (("wiring", "assignments", 0, "slots"), [], r"^wiring\.assignments\[0\]\.slots: a witness needs"),
        (("wiring", "assignments", 0, "slots"), [[0, 0, 1]], r"^wiring\.assignments\[0\]\.slots: expected a list"),
    ],
    ids=["zero_copies", "string_dims", "zero_dim", "no_slots", "triple_slot"],
)
def test_parse_names_the_field_of_a_bad_wiring(path, value, message):
    with pytest.raises(ValueError, match=message):
        sc.parse_scenario(_edited("ex3_cyclic", path, value))


# through float(), "0.5" reads as 0.5, true as 1.0, false as 0.0 and
# NaN (which Python's json accepts) as nan, all without an error
NON_NUMBER_FIELDS = {
    "value": ("ex3_cyclic", ("family",), {"name": "werner_w", "value": "0.5"}, r"family\.value"),
    "start": ("ex3_cyclic", ("family", "start"), "0.25", r"family\.start"),
    "stop": ("ex3_cyclic", ("family", "stop"), True, r"family\.stop"),
    "values": ("ex4_pb_w3", ("witness_param", "values", 1), False, r"witness_param\.values\[1\]"),
    "param": ("ex4_pb_w3", ("wiring", "assignments", 0, "param"), math.nan, r"assignments\[0\]\.param"),
}


@pytest.mark.parametrize("field", sorted(NON_NUMBER_FIELDS))
def test_parse_rejects_a_non_number(field):
    name, path, value, where = NON_NUMBER_FIELDS[field]
    with pytest.raises(ValueError, match=where + r".*expected a finite number"):
        sc.parse_scenario(_edited(name, path, value))


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("family", "name"), ["werner_w"], r"^family\.name: expected a string, got \['werner_w'\]$"),
        (("outputs",), 5, r"^outputs: expected a list of sinks, got 5$"),
        (("outputs",), {"format": "csv", "path": "x.csv"}, r"^outputs: expected a list of sinks"),
        (("name",), ["ex4"], r"^name: expected a string, got \['ex4'\]$"),
        (("wiring", "assignments", 1, "witness"), ["W3"], r"^wiring\.assignments\[1\]\.witness: expected a string"),
        (("witness_param", "witness"), 3, r"^witness_param\.witness: expected a string, got 3$"),
        (("witness_param", "name"), ["b"], r"^witness_param\.name: expected a string, got \['b'\]$"),
    ],
    ids=["family_name_list", "outputs_int", "outputs_object", "name_list", "witness_list", "param_witness_int", "param_name_list"],
)
def test_parse_refuses_a_misshapen_name_or_outputs_by_its_field(path, value, message):
    # a list family name is unhashable and an int is not iterable: both used to raise a
    # TypeError; the other names went through str(), so "name": ["ex4"] wrote
    # "scenario": "['ex4']" and a list witness_param.name the CSV header a,['b'],value
    with pytest.raises(ValueError, match=message):
        sc.parse_scenario(_edited("ex4_pb_w3", path, value))


@pytest.mark.parametrize(
    "paths, message",
    [
        (["/tmp/x.csv", "x.json"], r"^outputs\[0\]\.path: expected a relative file path without '\.\.', got '/tmp/x\.csv'$"),
        (["x.csv", "../x.json"], r"^outputs\[1\]\.path: expected a relative file path"),
        (["sub/../../x.csv", "x.json"], r"^outputs\[0\]\.path: expected a relative file path"),
        (["", "x.json"], r"^outputs\[0\]\.path: expected a relative file path"),
        ([3, "x.json"], r"^outputs\[0\]\.path: expected a relative file path"),
        (["x.out", "x.out"], r"^outputs\[1\]\.path: 'x\.out' is already written by an earlier sink$"),
        (["x.out", "./x.out"], r"^outputs\[1\]\.path: '\./x\.out' is already written by an earlier sink$"),
    ],
    ids=["absolute", "parent", "parent_inside", "empty", "not_a_string", "repeated", "repeated_spelled_apart"],
)
def test_parse_refuses_a_sink_path_that_would_lose_or_misplace_a_file(paths, message):
    raw = _shipped("ex4_pb_w3")
    for sink, path in zip(raw["outputs"], paths):
        sink["path"] = path
    with pytest.raises(ValueError, match=message):
        sc.parse_scenario(json.dumps(raw))


def test_parse_accepts_sink_paths_in_a_subdirectory():
    raw = _shipped("ex4_pb_w3")
    raw["outputs"][0]["path"] = "tables/ex4.csv"
    raw["outputs"][1]["path"] = "./tables/ex4.json"
    assert [o.path for o in sc.parse_scenario(json.dumps(raw)).outputs] == ["tables/ex4.csv", "./tables/ex4.json"]


@pytest.mark.parametrize("name", ["points", "thresholds", "value", "a"])
def test_witness_param_name_may_not_overwrite_an_output_field(name):
    # "points" overwrote each sweep entry's b in the JSON; "a" made the CSV header a,a,value
    with pytest.raises(ValueError, match=rf"^witness_param\.name: '{name}' names a field of the sweep's output$"):
        sc.parse_scenario(_edited("ex4_pb_w3", ("witness_param", "name"), name))


def test_a_reversed_grid_is_refused_by_its_stop():
    # it was refused only at run time, as "grid [0.6, 0.4] outside werner_a range [0.0, 1.0]"
    raw = _shipped("ex4_p_w3")
    raw["family"].update(name="werner_a", start=0.6, stop=0.4)
    with pytest.raises(ValueError, match=r"^family\.stop: 0\.4 is below family\.start 0\.6$"):
        sc.parse_scenario(json.dumps(raw))
    raw["family"]["stop"] = 0.6  # the zero-width sweep stays valid
    run = sc.run_scenario(sc.parse_scenario(json.dumps(raw)))
    assert run.reports[0][1].params[0] == run.reports[0][1].params[-1] == 0.6


FAMILY_REFUSALS = {
    "both_modes": {"name": "werner_w", "value": 0.5, "start": 0.0, "stop": 1.0, "points": 3},
    "partial_grid": {"name": "werner_w", "start": 0.0, "stop": 1.0},
    "fixed_with_value": {"name": "bell_psi_plus", "value": 0.5},
    "fixed_with_grid": {"name": "ghz", "start": 0.0, "stop": 1.0, "points": 3},
    "unknown": {"name": "not_a_family"},
    "no_value": {"name": "werner_w"},
    "one_point": {"name": "werner_w", "start": 0.0, "stop": 1.0, "points": 1},
    "reversed": {"name": "werner_a", "start": 0.6, "stop": 0.4, "points": 5},
    "fractional_points": {"name": "werner_a", "start": 0.1, "stop": 0.9, "points": 2.5},
}


@pytest.mark.parametrize("case", sorted(FAMILY_REFUSALS))
def test_a_hand_built_family_ref_is_refused_in_the_parsers_words(case):
    # FamilyRef("werner_w") and FamilyRef("bell_psi_plus", value=0.5) used to reach
    # run_scenario and fail there with a KeyError, and a reversed grid as out of range
    family = FAMILY_REFUSALS[case]
    with pytest.raises(ValueError) as parsed:
        sc.parse_scenario(_edited("ex3_cyclic", ("family",), family))
    with pytest.raises(ValueError) as built:
        sc.FamilyRef(**family)
    assert str(built.value) == str(parsed.value)


def test_a_grid_outside_the_unit_segment_is_refused_by_the_sweep():
    raw = _shipped("ex4_p_w3")
    raw["family"]["start"] = -0.1
    scenario = sc.parse_scenario(json.dumps(raw))
    with pytest.raises(ValueError, match=r"^bounds \(-0\.1, 1\.0\) must satisfy 0 <= lo <= hi <= 1$"):
        sc.run_scenario(scenario)


def test_a_non_integer_points_override_is_refused_by_name():
    # it reached np.linspace and raised a bare TypeError
    with pytest.raises(ValueError, match=r"^grid_points: expected an integer, got 2\.5$"):
        sc.run_scenario(load_scenario("ex4_p_w3"), points_override=2.5)


def test_the_run_kind_is_read_off_the_scenario():
    grid, fixed = load_scenario("ex4_p_w3"), load_scenario("ex1_cross")
    assert sc.ScenarioRun(grid).kind == "sweep"
    assert sc.ScenarioRun(fixed).kind == "point"
    assert sc.ScenarioRun(replace(grid, family=sc.FamilyRef("werner_a", value=0.5))).kind == "point"


def test_run_point_scenarios():
    run = sc.run_scenario(load_scenario("ex1_cross"))
    assert run.kind == "point"
    assert abs(run.point_value + 0.5) < 1e-10
    with pytest.raises(ValueError, match="grid"):
        sc.run_scenario(load_scenario("ex1_cross"), points_override=11)


def test_run_sweep_with_override():
    run = sc.run_scenario(load_scenario("ex4_p_w3"), points_override=21)
    assert run.kind == "sweep"
    b, report = run.reports[0]
    assert b is None
    assert len(report.params) == 21
    assert len(report.thresholds) == 1


def test_run_witness_param_fanout():
    run = sc.run_scenario(load_scenario("ex4_pb_w3"), points_override=21)
    assert [b for b, _ in run.reports] == [1.0, 2.0, 10.0, 100.0]
    for _, report in run.reports:
        assert len(report.params) == 21


def test_witness_param_must_match_an_assignment():
    raw = _shipped("ex4_pb_w3")
    raw["witness_param"]["witness"] = "W1"  # wired witnesses are P_b and W3
    parsed = sc.parse_scenario(json.dumps(raw))
    with pytest.raises(ValueError, match="no assignment"):
        sc.run_scenario(parsed, points_override=5)


@pytest.mark.parametrize("spelling", ["P_b", "p_b", " P_B "])
def test_witness_param_matches_assignments_by_catalog_name(spelling):
    raw = _shipped("ex4_pb_w3")
    raw["witness_param"]["witness"] = spelling
    run = sc.run_scenario(sc.parse_scenario(json.dumps(raw)), points_override=5)
    assert [b for b, _ in run.reports] == [1.0, 2.0, 10.0, 100.0]


def test_witness_param_targets_an_assignment_that_already_has_its_value():
    # rewriting P_b's param 2.0 to 2.0 changes nothing, yet P_b is the target
    raw = _shipped("ex4_pb_w3")
    for a in raw["wiring"]["assignments"]:
        if a["witness"] == "P_b":
            a["param"] = 2.0
    raw["witness_param"]["values"] = [2.0]
    run = sc.run_scenario(sc.parse_scenario(json.dumps(raw)), points_override=5)
    assert [b for b, _ in run.reports] == [2.0]


@pytest.mark.parametrize(
    "family",
    [
        {"name": "bell_psi_plus"},
        {"name": "werner_w", "value": 0.3},
        {"name": "werner_w", "start": 0.0, "stop": 1.0, "points": 5},
    ],
    ids=["fixed", "value", "grid"],
)
def test_state_dims_must_match_the_wiring_in_every_mode(family):
    # a 4 x 4 state fits one 4-level party by shape alone, so only the dims check can tell
    raw = {
        "version": 1,
        "name": "dims_mismatch",
        "seed": 1,
        "family": family,
        "wiring": {"copies": 1, "base_dims": [4], "assignments": [{"witness": "W", "slots": [[0, 0]]}]},
    }
    with pytest.raises(ValueError, match=r"has dims \[2, 2\], wiring expects \[4\]"):
        sc.run_scenario(sc.parse_scenario(json.dumps(raw)))


def test_csv_headers_and_shape():
    run = sc.run_scenario(load_scenario("ex4_p_w3"), points_override=5)
    csv = sc.run_to_csv(run)
    lines = csv.strip().split("\n")
    assert lines[0] == "param,value"
    assert len(lines) == 6

    run_b = sc.run_scenario(load_scenario("ex4_pb_w3"), points_override=5)
    csv_b = sc.run_to_csv(run_b)
    lines_b = csv_b.strip().split("\n")
    assert lines_b[0] == "a,b,value"
    assert len(lines_b) == 1 + 4 * 5  # four b values, five grid points

    point_csv = sc.run_to_csv(sc.run_scenario(load_scenario("ghz_cyclic")))
    assert point_csv.startswith("param,value\n,")  # no parameter column value


def test_json_companion_carries_thresholds():
    run = sc.run_scenario(load_scenario("ex4_p_w3"), points_override=21)
    payload = json.loads(sc.run_to_json(run))
    assert payload["kind"] == "sweep"
    assert payload["param_name"] == "a"
    assert len(payload["thresholds"]) == 1
    assert abs(payload["thresholds"][0]["root"] - 0.7745966692) < 1e-6


def test_output_is_deterministic():
    a = sc.run_to_csv(sc.run_scenario(load_scenario("ex4_p_w3"), points_override=31))
    b = sc.run_to_csv(sc.run_scenario(load_scenario("ex4_p_w3"), points_override=31))
    assert a == b


def test_fmt_is_15_significant_digits():
    assert sc.fmt(1.0 / 3.0) == "0.333333333333333"
    assert sc.fmt(2.0) == "2"
    assert sc.round15(sc.round15(1.0 / 7.0)) == sc.round15(1.0 / 7.0)


def _assert_renders_like_the_oracle(run):
    assert sc.run_to_csv(run) == run_to_csv_oracle(run)
    assert sc.run_to_json(run) == run_to_json_oracle(run)


@pytest.mark.parametrize("name", shipped_scenario_names())
def test_renderers_match_the_per_cell_oracle(name):
    scenario = load_scenario(name)
    overrides = (None, 2, 37) if scenario.family.mode == "grid" else (None,)
    for points in overrides:
        _assert_renders_like_the_oracle(sc.run_scenario(scenario, points_override=points))


@pytest.mark.parametrize("name", ["ex4_p_w3", "ex4_pb_w3"])
def test_renderers_match_the_oracle_on_a_zero_width_grid(name):
    scenario = load_scenario(name)
    pinned = replace(scenario, family=replace(scenario.family, start=0.5, stop=0.5))
    run = sc.run_scenario(pinned, points_override=4)
    assert set(run.reports[0][1].params) == {0.5}
    _assert_renders_like_the_oracle(run)


def test_csv_matches_the_oracle_when_the_grid_changes_between_b_values():
    # run_scenario gives every b one grid; a hand-built run need not
    awkward = (-0.0, 1e-300, 123456789012345678.0, 1.0 / 3.0, 2.0)
    shared = (0.1, 0.2, 0.3, 0.4, 0.5)
    reports = (
        (1.0, DetectionReport("a", (0.0, 0.5, 1.0, 0.25, 1.0 / 7.0), awkward, ())),
        (2.5, DetectionReport("a", shared, awkward[::-1], ())),
        (1e-20, DetectionReport("a", shared, awkward, ())),
    )
    _assert_renders_like_the_oracle(sc.ScenarioRun(load_scenario("ex4_pb_w3"), reports=reports))
    single = ((None, DetectionReport("a", shared, awkward, ())),)
    _assert_renders_like_the_oracle(sc.ScenarioRun(load_scenario("ex4_p_w3"), reports=single))
