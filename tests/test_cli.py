import json
import math
import os
import shutil
import subprocess
import sys
from importlib import resources
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import witwire
from witwire import cli


def shipped_path(name):
    return str(resources.files("witwire").joinpath("scenarios").joinpath(name + ".json"))


def test_reproduce_stdout_json(capsys):
    code = cli.main(["reproduce", "ex1"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["id"] == "ex1"
    assert report["all_pass"] is True
    values = {c["name"]: c["value"] for c in report["checks"]}
    assert values["cross_wiring"] == -0.5


def test_reproduce_out_file(tmp_path, capsys):
    target = tmp_path / "ex1.json"
    code = cli.main(["reproduce", "ex1", "--out", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert "pass  cross_wiring" in out
    report = json.loads(target.read_text(encoding="utf-8"))
    assert report["all_pass"] is True


def test_reproduce_is_byte_deterministic(capsys):
    cli.main(["reproduce", "ghz"])
    first = capsys.readouterr().out
    cli.main(["reproduce", "ghz"])
    second = capsys.readouterr().out
    assert first == second


def test_sweep_writes_both_sinks(tmp_path, capsys):
    code = cli.main(
        ["sweep", shipped_path("ex4_p_w3"), "--points", "21", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "sign change near 0.77459" in out
    csv = (tmp_path / "ex4_p_w3.csv").read_text(encoding="utf-8")
    assert csv.startswith("param,value\n")
    assert len(csv.strip().split("\n")) == 22
    payload = json.loads((tmp_path / "ex4_p_w3.json").read_text(encoding="utf-8"))
    assert payload["kind"] == "sweep"


def test_sweep_format_filter(tmp_path, capsys):
    code = cli.main(
        [
            "sweep",
            shipped_path("ex4_p_w3"),
            "--points",
            "11",
            "--out",
            str(tmp_path),
            "--format",
            "csv",
        ]
    )
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "ex4_p_w3.csv").exists()
    assert not (tmp_path / "ex4_p_w3.json").exists()


def test_sweep_without_sinks_prints_table(tmp_path, capsys):
    raw = json.loads(
        resources.files("witwire")
        .joinpath("scenarios")
        .joinpath("ghz_cyclic.json")
        .read_text(encoding="utf-8")
    )
    del raw["outputs"]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code = cli.main(["sweep", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("param,value\n")
    assert ",-0.5" in out


def test_sweep_outputs_are_stable_bytes(tmp_path):
    for sub in ("one", "two"):
        code = cli.main(
            [
                "sweep",
                shipped_path("ex3_cyclic"),
                "--points",
                "41",
                "--out",
                str(tmp_path / sub),
            ]
        )
        assert code == 0
    a = (tmp_path / "one" / "ex3_cyclic.csv").read_bytes()
    b = (tmp_path / "two" / "ex3_cyclic.csv").read_bytes()
    assert a == b
    aj = (tmp_path / "one" / "ex3_cyclic.json").read_bytes()
    bj = (tmp_path / "two" / "ex3_cyclic.json").read_bytes()
    assert aj == bj


def test_sweep_bad_scenario_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    code = cli.main(["sweep", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "keys, value, message",
    [
        (("family",), {"name": ["werner_a"]}, "family.name: expected a string, got ['werner_a']"),
        (("outputs",), 5, "outputs: expected a list of sinks, got 5"),
        (("name",), ["ex4"], "name: expected a string, got ['ex4']"),
        (("wiring", "assignments", 0, "witness"), ["P_b"], "wiring.assignments[0].witness: expected a string, got ['P_b']"),
        (("witness_param", "witness"), ["P_b"], "witness_param.witness: expected a string, got ['P_b']"),
        (("witness_param", "name"), ["b"], "witness_param.name: expected a string, got ['b']"),
    ],
    ids=["family_name_list", "outputs_int", "name_list", "witness_list", "param_witness_list", "param_name_list"],
)
def test_sweep_names_a_misshapen_field_and_exits_2(keys, value, message, tmp_path, capsys):
    # a list family name is unhashable and an int is not iterable: both ended in a TypeError
    # traceback; the other names went through str() and were written as "['ex4']"
    scenario = json.loads(Path(shipped_path("ex4_pb_w3")).read_text(encoding="utf-8"))
    target = scenario
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    code = cli.main(["sweep", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_sweep_refuses_a_sink_outside_out_and_writes_nothing(tmp_path, capsys):
    scenario = json.loads(Path(shipped_path("ex4_p_w3")).read_text(encoding="utf-8"))
    scenario["outputs"][0]["path"] = str(tmp_path / "escaped.csv")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    code = cli.main(["sweep", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "outputs[0].path: expected a relative file path" in capsys.readouterr().err
    assert not (tmp_path / "escaped.csv").exists() and not (tmp_path / "out").exists()


def test_sweep_writes_a_sink_into_a_subdirectory_of_out(tmp_path, capsys):
    scenario = json.loads(Path(shipped_path("ex4_p_w3")).read_text(encoding="utf-8"))
    scenario["outputs"][1]["path"] = "tables/ex4.json"
    path = tmp_path / "sub.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    assert cli.main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 0
    assert json.loads((tmp_path / "out" / "tables" / "ex4.json").read_text(encoding="utf-8"))["kind"] == "sweep"
    assert (tmp_path / "out" / "ex4_p_w3.csv").exists()


def test_sweep_rejects_a_nan_witness_parameter(tmp_path, capsys):
    # Python's json reads the NaN literal; at a fixed state there is no grid to catch it
    path = tmp_path / "nan.json"
    scenario = {
        "version": 1,
        "name": "nan_param",
        "seed": 1,
        "family": {"name": "bell_psi_plus"},
        "wiring": {
            "copies": 1,
            "base_dims": [2, 2],
            "assignments": [{"witness": "P_b", "slots": [[0, 0], [0, 1]], "param": math.nan}],
        },
        "outputs": [{"format": "json", "path": "nan_param.json"}],
    }
    path.write_text(json.dumps(scenario), encoding="utf-8")
    code = cli.main(["sweep", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "nan_param.json").exists()


def test_ppt_subcommand(capsys):
    code = cli.main(["ppt", "werner_w"])
    out = capsys.readouterr().out
    assert code == 0
    assert "threshold 0.666666666" in out


def test_ppt_full_transpose_exits_2(capsys):
    code = cli.main(["ppt", "werner_w", "--slots", "0,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "proper subset" in captured.err
    assert "threshold" not in captured.out


def test_ppt_repeated_slot_exits_2(tmp_path, capsys):
    target = tmp_path / "ppt.json"
    code = cli.main(["ppt", "werner_w", "--slots", "1,1", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: repeated slot in [1, 1]\n"
    assert not target.exists()


@pytest.mark.parametrize("text, shown", [("1.5", "['1.5']"), ("", "['']"), ("1,x", "[1, 'x']")])
def test_ppt_non_integer_slots_exit_2_with_the_slot_rule(text, shown, capsys):
    code = cli.main(["ppt", "werner_w", "--slots", text])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: slots {shown} are not all ints\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["reproduce", "ex1"], ["validate", "W"], ["concentrate"]])
def test_negative_seed_is_refused_by_name(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: seed must be a non-negative integer, got '-1'" in capsys.readouterr().err


def test_ppt_unknown_family(capsys):
    code = cli.main(["ppt", "nope"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown family" in err


def test_validate_subcommand(capsys):
    code = cli.main(["validate", "W1", "--samples", "2000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "min eigenvalue -1" in out
    assert out.strip().endswith("pass")


def test_validate_psd_entry_with_parameter(capsys):
    code = cli.main(["validate", "P_b", "--b", "2", "--samples", "500"])
    out = capsys.readouterr().out
    assert code == 0
    assert "positive_semidefinite" in out


def test_concentrate_subcommand(tmp_path, capsys):
    target = tmp_path / "conc.json"
    code = cli.main(
        ["concentrate", "--d", "2", "--kind", "M", "--samples", "4", "--out", str(target)]
    )
    out = capsys.readouterr().out
    assert code == 0
    fidelity_lines = [l for l in out.split("\n") if l.startswith("sample")]
    assert len(fidelity_lines) == 4
    for line in fidelity_lines:
        assert "fidelity 1" in line
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["pass"] is True
    assert len(payload["samples"]) == 4


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_concentrate_rejects_nonpositive_samples(samples, capsys):
    code = cli.main(["concentrate", "--samples", samples])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: samples must be >= 1" in captured.err
    assert "pass" not in captured.out


def test_concentrate_rejects_dimension_above_cap(capsys):
    code = cli.main(["concentrate", "--d", "17", "--samples", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "MAX_DIM" in err


def _unbuilt_parser():
    """Clear the cached parser, so the next main() call builds it."""
    cli._parser.cache_clear()
    assert cli._parser.cache_info().currsize == 0


def test_main_builds_its_parser_once(capsys):
    _unbuilt_parser()
    assert cli.main(["ppt", "werner_w"]) == 0
    assert cli.main(["ppt", "werner_a"]) == 0
    assert cli._parser.cache_info()[:2] == (1, 1)  # (hits, misses): built once, then reused
    out = capsys.readouterr().out
    assert "threshold 0.666666666666667" in out and "threshold 0.333333333333333" in out


def test_a_usage_error_leaves_the_parser_reusable(capsys):
    _unbuilt_parser()
    assert cli.main(["ppt", "werner_w"]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["ppt"])  # the family is missing
    assert exc.value.code == 2
    assert "required: family" in capsys.readouterr().err
    assert cli.main(["ppt", "werner_w", "--slots", "0"]) == 0
    assert "transposed slots [0]" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--help"])
    assert exc.value.code == 0
    helped = capsys.readouterr().out
    assert helped.startswith("usage: witwire sweep") and "--points" in helped
    assert cli.main(["ppt", "noisy_w"]) == 0
    assert cli._parser.cache_info()[:2] == (4, 1)


def test_importing_the_cli_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import witwire.cli as cli\n"
        "print(len(built), cli._parser.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(witwire.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def test_python_dash_m_runs_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(witwire.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "witwire", "ppt", "werner_w"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "threshold 0.666666666666667" in proc.stdout.splitlines()


def _run_reproduce_ex1(command, env, cwd):
    proc = subprocess.run(
        [*command, "reproduce", "ex1"],
        capture_output=True,
        text=True,
        check=False,
        env=env,
        cwd=cwd,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_pass"] is True


def test_console_script_is_installed(tmp_path):
    """The declared `witwire` command runs `reproduce ex1` to a passing report.

    The entry point is read from `pyproject.toml` and run the way a
    generated console-script wrapper runs it, in a fresh interpreter, so
    the check needs no install.  An installed `witwire` on PATH is run too.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        declared = tomllib.load(fh)["project"]["scripts"]["witwire"]
    entry = EntryPoint(name="witwire", value=declared, group="console_scripts")
    assert entry.load() is cli.main

    env = dict(os.environ, PYTHONPATH=str(Path(witwire.__file__).resolve().parents[1]))
    wrapper = (
        "import sys; from importlib.metadata import EntryPoint; "
        f"sys.exit(EntryPoint(name='witwire', value={declared!r}, "
        "group='console_scripts').load()())"
    )
    _run_reproduce_ex1([sys.executable, "-c", wrapper], env, tmp_path)

    exe = shutil.which("witwire")
    if exe is not None:
        _run_reproduce_ex1([exe], None, tmp_path)
