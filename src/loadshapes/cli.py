"""Command line entry point.

Subcommands: ``run`` (full pipeline), one per pipeline stage (``ingest``,
``cluster``, ``truncate``, ``assign``, ``analyze``, taken from the
pipeline's stage table), and ``synth`` for generating synthetic corpora.
Every option except synth's --out, --seed and --schema is a config key: it
may come from a flat key=value config file (--config), explicit flags win
over file values, and both are cast and checked by the config module.
"""

from __future__ import annotations

import argparse
import sys

from .config import add_flags, config_from
from .errors import ConfigError, GeneratorConfigError, LoadShapesError
from .pipeline import _STAGE_FNS, PIPELINE_STAGES, RunConfig, run_pipeline
from .synthetic import GeneratorConfig, generate_synthetic


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loadshapes",
        description="Cluster daily load shapes and quantify their variability",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_flags(sub.add_parser("run", help="execute the full pipeline"), RunConfig)
    for name in PIPELINE_STAGES:
        add_flags(sub.add_parser(name, help=f"run only the {name} stage"), RunConfig)

    synth = sub.add_parser("synth", help="generate a synthetic corpus")
    add_flags(synth, GeneratorConfig)
    synth.add_argument("--out", required=True, help="directory for the corpus files")
    synth.add_argument("--seed", type=int, required=True)
    synth.add_argument(
        "--schema", choices=["wide", "long"], default="wide",
        help="meter CSV layout to write",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            config = config_from(GeneratorConfig, args, GeneratorConfigError)
            paths = generate_synthetic(config, args.seed).write(args.out, meter_schema=args.schema)
            for label, path in paths.items():
                print(f"{label}: {path}")
            return 0
        config = config_from(RunConfig, args, ConfigError)
        if args.command == "run":
            result = run_pipeline(config)
            for stage_result in result.results:
                print(f"{stage_result.stage}: {stage_result.status}")
            print(f"run_id: {result.run_id}")
            return 0
        stage_result = _STAGE_FNS[args.command](config)
        print(f"{stage_result.stage}: {stage_result.status}")
        return 0
    except (ConfigError, GeneratorConfigError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except LoadShapesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
