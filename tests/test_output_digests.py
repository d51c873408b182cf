"""Every shipped output keeps its bytes, pinned by sha256 in ``output_digests.json``.

The manifest covers each shipped scenario's CSV and JSON at its default
grid, as ``witwire sweep --out`` writes them, each ``witwire
reproduce`` report at the default seed, as ``--out`` writes it, each
family's ``witwire ppt --out`` report, and a ``witwire validate
--samples 2000 --out`` report at the default seed for every catalog
operator, P_b at b = 1, 7.3 and 100.  It was
recorded with numpy 2.4.6 on one BLAS thread: the concentration report
carries rounding-level values that another BLAS may print differently.
A change that alters these bytes on purpose re-records the manifest with

    PYTHONPATH=src python tests/test_output_digests.py

and lists each changed output in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

from witwire import cli
from witwire.reproduce import REPRODUCE_IDS, shipped_scenario_names
from witwire.states import FAMILIES
from witwire.witnesses import catalog_names

MANIFEST = Path(__file__).with_name("output_digests.json")

# (report name, validate arguments): every catalog operator, P_b at three tunings
VALIDATE_CASES = [(name, [name]) for name in catalog_names() if name != "P_b"] + [(f"P_b_b{b}", ["P_b", "--b", b]) for b in ("1", "7.3", "100")]


def _digests(workdir: Path) -> dict[str, str]:
    """Write every pinned output under ``workdir``; map each file's relative path to its sha256.

    A run that fails writes no file, or a report whose bytes differ, so
    the comparison names it without a check of its own here.
    """
    for sub in ("reproduce", "ppt", "validate"):
        (workdir / sub).mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        for name in shipped_scenario_names():
            scenario = resources.files("witwire").joinpath("scenarios", name + ".json")
            cli.main(["sweep", str(scenario), "--out", str(workdir / "sweep" / name)])
        for example_id in REPRODUCE_IDS:  # a failing check table still writes its report
            cli.main(["reproduce", example_id, "--out", str(workdir / "reproduce" / f"{example_id}.json")])
        for family in FAMILIES:
            cli.main(["ppt", family, "--out", str(workdir / "ppt" / f"{family}.json")])
        for name, args in VALIDATE_CASES:
            cli.main(["validate", *args, "--samples", "2000", "--out", str(workdir / "validate" / f"{name}.json")])
    return {
        path.relative_to(workdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workdir.rglob("*"))
        if path.is_file()
    }


def test_shipped_outputs_keep_their_recorded_bytes(tmp_path):
    recorded = json.loads(MANIFEST.read_text(encoding="utf-8"))
    actual = _digests(tmp_path)
    changed = sorted(k for k in recorded.keys() | actual.keys() if recorded.get(k) != actual.get(k))
    assert not changed, "outputs whose bytes changed, appeared or went missing: " + ", ".join(changed)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = _digests(Path(tmp))
    MANIFEST.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests in {MANIFEST}")
