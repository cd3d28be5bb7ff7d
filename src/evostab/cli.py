"""Command line entry point.

    evostab <kind> --config <file> --out <dir> [--seed N] [--tol X]

``--config`` takes a JSON file path, or ``builtin:<name>`` for one of the
shipped scenarios (intro-cos, example39, sine-curve, extension-gauge).
Writes ``rows.csv`` and ``summary.json`` into the output directory and
exits 0 exactly when every row passed; a run that fails with exit 2 or 3
removes ``rows.csv`` and writes a ``summary.json`` of ``"pass": false``
and the error.  The first line printed is the verdict; it reads
``PASS (vacuous)`` when the bound checked was +inf.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from .errors import ConfigError, EvoStabError
from .harness import (BUILTIN_SCENARIOS, KINDS, emit_failure, emit_report,
                      run_scenario)


def _load_config(source: str, kind: str) -> dict:
    if source.startswith("builtin:"):
        name = source.split(":", 1)[1]
        if name not in BUILTIN_SCENARIOS:
            raise ConfigError(
                [f"config: unknown builtin {name!r} "
                 f"(have {sorted(BUILTIN_SCENARIOS)})"]
            )
        builtin_kind, config = BUILTIN_SCENARIOS[name]
        if builtin_kind != kind:
            raise ConfigError(
                [f"config: builtin {name!r} is a {builtin_kind!r} scenario, "
                 f"not {kind!r}"]
            )
        return json.loads(json.dumps(config))  # defensive copy
    path = Path(source)
    if not path.is_file():
        raise ConfigError([f"config: no such file {source!r}"])
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError([f"config: invalid JSON in {source!r}: {exc}"])
    if not isinstance(config, dict):
        raise ConfigError(["config: top level must be a JSON object"])
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evostab",
        description="evolution operators, stability certificates, and "
                    "parallel-transport bounds",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} scenario")
        p.add_argument("--config", required=True,
                       help="JSON config file, or builtin:<name>")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized sampling (default 0)")
        p.add_argument("--tol", type=float, default=None,
                       help="override the kind's default tolerance")
    listing = sub.add_parser("list", help="list the built-in scenarios")
    listing.set_defaults(kind="list")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.kind == "list":
        for name, (kind, _) in sorted(BUILTIN_SCENARIOS.items()):
            print(f"{name}  ({kind})")
        return 0
    try:
        config = _load_config(args.config, args.kind)
        report = run_scenario(args.kind, config, seed=args.seed, tol=args.tol)
        csv_path, summary_path = emit_report(report, args.out)
    except (EvoStabError, OSError) as exc:
        if isinstance(exc, ConfigError):
            for problem in exc.problems:
                print(f"config error: {problem}", file=sys.stderr)
        else:
            label = "error" if isinstance(exc, EvoStabError) else "i/o error"
            print(f"{label}: {exc}", file=sys.stderr)
        with contextlib.suppress(OSError):
            emit_failure(args.kind, exc, args.out)
        return 2 if isinstance(exc, ConfigError) else 3
    status = "PASS" if report.passed else "FAIL"
    if report.summary.get("vacuous"):
        status += " (vacuous)"
    print(f"{status} {args.kind}: {len(report.rows)} rows -> {csv_path}")
    for key, value in sorted(report.summary.items()):
        if key not in ("pass",):
            print(f"  {key}: {value}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
