"""Command line front end.

Five subcommands: `reproduce` grades a worked example against its
check table, `sweep` evaluates a scenario file and writes CSV/JSON
tables, `ppt` solves for a family's partial-transpose threshold,
`validate` samples product states against a catalog operator, and
`concentrate` runs the two-copy measurement protocol on random pure
states.  All numeric output is formatted as `%.15g` (15 significant
digits), so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import concentration as conc
from .ppt import ppt_threshold
from .reproduce import DEFAULT_SEED, REPRODUCE_IDS, reproduce
from .scenario import fmt, json_text, parse_scenario, round15, run_scenario, run_to_csv, run_to_json
from .states import FAMILIES
from .witnesses import catalog, catalog_names, validate_witness


def _write_report(path: str, obj: dict) -> None:
    Path(path).write_text(json_text(obj), encoding="utf-8")
    print(f"report written to {path}")


def _seed(text: str) -> int:
    """argparse type for --seed: numpy's generators take non-negative integers only."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def _slot(text: str) -> int | str:
    """One --slots entry as an int, or as given for the PPT slot rule to refuse by name."""
    try:
        return int(text)
    except ValueError:
        return text


def cmd_reproduce(args: argparse.Namespace) -> int:
    report = reproduce(args.example_id, seed=args.seed)
    if args.out:
        for check in report["checks"]:
            print(("pass" if check["pass"] else "FAIL") + "  " + check["name"])
        _write_report(args.out, report)
    else:
        sys.stdout.write(json_text(report))
    return 0 if report["all_pass"] else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = parse_scenario(Path(args.scenario).read_text(encoding="utf-8"))
    run = run_scenario(scenario, points_override=args.points)
    rendered = {"csv": run_to_csv, "json": run_to_json}
    sinks = scenario.outputs
    if args.format is not None:
        sinks = tuple(s for s in sinks if s.format == args.format)
    if sinks:
        outdir = Path(args.out) if args.out else Path(".")
        for sink in sinks:
            path = outdir / sink.path
            path.parent.mkdir(parents=True, exist_ok=True)  # a sink path may name a subdirectory
            path.write_text(rendered[sink.format](run), encoding="utf-8")
            print(f"wrote {path}")
    else:
        # no sinks configured (or all filtered away): table to stdout
        sys.stdout.write(rendered[args.format or "csv"](run))
    if run.kind == "sweep":
        for b, report in run.reports:
            suffix = "" if b is None else f" at {scenario.witness_param.name}={fmt(b)}"
            for root in report.thresholds:
                print(f"sign change near {fmt(root)}{suffix}")
    return 0


def cmd_ppt(args: argparse.Namespace) -> int:
    if args.family not in FAMILIES:
        raise ValueError(
            f"unknown family {args.family!r}; known: {', '.join(sorted(FAMILIES))}"
        )
    family = FAMILIES[args.family]
    if args.slots is None:
        slots = [len(family.dims) - 1]
    else:
        slots = [_slot(s) for s in args.slots.split(",")]
    root = ppt_threshold(family, slots)
    print(f"family {family.name}, transposed slots {slots}")
    print(f"threshold {fmt(root)}")
    if args.out:
        _write_report(
            args.out, {"family": family.name, "transposed_slots": slots, "threshold": round15(root)}
        )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    spec = catalog(args.witness, b=args.b)
    report = validate_witness(spec, samples=args.samples, seed=args.seed)
    print(f"operator {report.name} ({report.kind})")
    print(f"min eigenvalue {fmt(report.min_eigenvalue)}")
    print(
        f"min product-state expectation {fmt(report.min_product_expectation)} "
        f"over {report.samples} samples (seed {report.seed})"
    )
    print("pass" if report.passed else "FAIL")
    if args.out:
        _write_report(
            args.out,
            {
                "name": report.name,
                "kind": report.kind,
                "min_eigenvalue": round15(report.min_eigenvalue),
                "min_product_expectation": round15(report.min_product_expectation),
                "samples": report.samples,
                "seed": report.seed,
                "pass": report.passed,
            },
        )
    return 0 if report.passed else 1


def cmd_concentrate(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise ValueError(f"samples must be >= 1, got {args.samples}")
    rng = np.random.default_rng(args.seed)
    rows = []
    all_ok = True
    for i in range(args.samples):
        psi = conc.random_schmidt_operator(args.d, rng)
        res = conc.concentrate(psi, args.kind)
        ok = (
            abs(res.fidelity_with_target - 1.0) <= conc.FIDELITY_TOL
            and 0.0 < res.probability <= 1.0 + conc.PROBABILITY_SLACK
        )
        all_ok = all_ok and ok
        rows.append(
            {
                "sample": i,
                "fidelity": round15(res.fidelity_with_target),
                "probability": round15(res.probability),
            }
        )
        print(
            f"sample {i:3d}  fidelity {fmt(res.fidelity_with_target)}  "
            f"probability {fmt(res.probability)}"
        )
    print("pass" if all_ok else "FAIL")
    if args.out:
        _write_report(
            args.out,
            {"d": args.d, "kind": args.kind, "seed": args.seed, "samples": rows, "pass": all_ok},
        )
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="witwire",
        description="witness wirings: expectation values, sweeps, thresholds, PPT, concentration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="run one worked example's check table")
    p.add_argument("example_id", choices=REPRODUCE_IDS)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("sweep", help="evaluate a scenario file")
    p.add_argument("scenario", help="path to a scenario JSON file")
    p.add_argument("--points", type=int, help="override the grid point count")
    p.add_argument("--out", help="directory for the scenario's output files")
    p.add_argument("--format", choices=("csv", "json"), help="write only this format")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ppt", help="partial-transpose threshold of a state family")
    p.add_argument("family", help="family name: " + ", ".join(sorted(FAMILIES)))
    p.add_argument("--slots", help="comma-separated transposed slots (default: last)")
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(func=cmd_ppt)

    p = sub.add_parser("validate", help="check a catalog operator against product states")
    p.add_argument("witness", help="catalog name: " + ", ".join(catalog_names()))
    p.add_argument("--b", type=float, help="tuning parameter for P_b")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("concentrate", help="two-copy concentration on random pure states")
    p.add_argument("--d", type=int, default=2, help="local dimension")
    p.add_argument("--kind", choices=("m", "M"), default="m")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(func=cmd_concentrate)

    return parser


# built on the first main() call, not at import, and reused by every later
# call: parse_args leaves the parser as it found it, usage errors included
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
