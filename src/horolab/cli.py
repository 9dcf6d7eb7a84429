"""Command line entry point.

    horolab <experiment> --config cfg.json [--out DIR] [--seed N] [--export-dot]

The positional argument names an experiment kind; the config's "experiment"
field must agree with it.  Exit codes: 0 success, 2 config or input
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
    parser.add_argument("experiment", choices=KINDS, help="the experiment kind to run")
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--export-dot", action="store_true", help="also emit DOT files for built graphs")
    return parser


def load_config(path: str, expected_kind: str, seed_override: int | None) -> ExperimentConfig:
    try:
        obj, _ = read_json(path, "config")
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
