"""Run tier-1 against each one-line mutant of the committed list ``mutants.json``.

    python3 tools/mutants.py

Each entry names a file under the repository root, an ``old`` text that
occurs exactly once in it, the ``new`` text that replaces it, and
``survives``: null for a mutant that tier-1 must kill, or the reason it
is equivalent and tier-1 cannot.  For each mutant the script copies
``src/``, ``tests/``, ``pyproject.toml`` and ``README.md`` (which a
test runs) to a fresh temporary directory, applies the one replacement
there and runs ``python -m pytest -q -x -p no:cacheprovider`` with
that copy's ``src`` first on ``PYTHONPATH``; a failing run kills the
mutant.  The unmutated copy runs first and must pass, so a broken tree
cannot kill every mutant.  The repository itself is never written.
Exit status 0 when every mutant ends as its entry says, 1 otherwise.
Uses only the standard library and runs outside tier-1.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIST = Path(__file__).with_name("mutants.json")
COPIED = ("src", "tests", "pyproject.toml", "README.md")


def _tier1(tree: Path) -> tuple[bool, float, str]:
    """Run tier-1 in ``tree`` with -x: (passed, seconds, last line of its output)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines() or proc.stderr.strip().splitlines() or [""]
    return proc.returncode == 0, time.perf_counter() - start, lines[-1]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def _apply(tree: Path, mutant: dict) -> None:
    path = tree / mutant["file"]
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant["old"])
    if found != 1:
        raise SystemExit(f"{mutant['file']}: {mutant['old']!r} occurs {found} times, expected once")
    path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")


def main() -> int:
    mutants = json.loads(LIST.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        passed, seconds, summary = _tier1(base)
        print(f"unmutated: {'passed' if passed else 'FAILED'} in {seconds:.1f} s ({summary})", flush=True)
        if not passed:
            return 1
    wrong = 0
    for k, mutant in enumerate(mutants):
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp) / "tree"
            _copy(tree)
            _apply(tree, mutant)
            survived, seconds, summary = _tier1(tree)
        expected = mutant["survives"] is not None
        verdict = "survived" if survived else "killed"
        ok = survived == expected
        wrong += not ok
        note = f" (listed as equivalent: {mutant['survives']})" if expected else ""
        print(
            f"[{k}] {verdict}{'' if ok else ' UNEXPECTEDLY'} in {seconds:.1f} s: {mutant['file']}: "
            f"{mutant['old']!r} -> {mutant['new']!r}; {summary}{note}",
            flush=True,
        )
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
