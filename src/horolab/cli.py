"""Command line entry point.

    horolab <experiment> --config cfg.json [--out DIR] [--seed N] [--export-dot]

Subcommands mirror the experiment kinds; the config's "experiment" field must
agree with the chosen subcommand.  Exit codes: 0 success, 2 config or input
error, 3 resource cap exceeded, 4 structural property violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys

from .errors import ConfigError, InputError, PropertyViolation, ResourceLimitError
from .experiments import KINDS, ExperimentConfig, run_experiment, validate_config
from .io import read_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_VIOLATION = 4

# error type -> (exit code, what stderr calls it)
_FAILURES = {ConfigError: (EXIT_CONFIG, "config error"), InputError: (EXIT_CONFIG, "input error"),
             ResourceLimitError: (EXIT_RESOURCE, "resource limit"),
             PropertyViolation: (EXIT_VIOLATION, "property violation")}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="horolab", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--export-dot", action="store_true", help="also emit DOT files for built graphs")
    return parser


def load_config(path: str, expected_kind: str, seed_override: int | None) -> ExperimentConfig:
    try:
        obj = read_json(path, "config")
    except InputError as exc:
        raise ConfigError("--config", str(exc)) from None
    config = validate_config(obj)
    if config.kind != expected_kind:
        raise ConfigError("experiment", f"config says {config.kind!r}, subcommand is {expected_kind!r}")
    if seed_override is not None:
        config = dataclasses.replace(config, seed=seed_override)
    return config


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config, args.experiment, args.seed)
        report = run_experiment(config, args.out, export_dot=args.export_dot)
    except tuple(_FAILURES) as exc:
        code, what = next(failure for kind, failure in _FAILURES.items() if isinstance(exc, kind))
        print(f"{what}: {exc}", file=sys.stderr)
        return code
    out = pathlib.Path(args.out) / "report.json"
    print(f"wrote {out} ({len(report.rows)} rows)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
