"""Command line entry point.

Subcommands: ``run`` (full pipeline), one per pipeline stage (``ingest``,
``cluster``, ``truncate``, ``assign``, ``analyze``, taken from the
pipeline's stage table), and ``synth`` for generating synthetic corpora.
Options may come from a flat key=value config file (--config); explicit
flags win over file values. Synth flags and file values are cast by the
same config reader.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import parse_fields
from .errors import ConfigError, GeneratorConfigError, LoadShapesError
from .pipeline import _STAGE_FNS, PIPELINE_STAGES, RunConfig, run_pipeline
from .synthetic import GeneratorConfig, generate_synthetic


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--meter", help="meter readings CSV")
    parser.add_argument("--weather", help="daily weather CSV")
    parser.add_argument("--survey", help="household survey CSV")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--theta", type=float, help="RSE threshold")
    parser.add_argument(
        "--merge-violation", type=float, dest="merge_violation",
        help="violation budget for hierarchical merging",
    )
    parser.add_argument(
        "--truncate-violation", type=float, dest="truncate_violation",
        help="violation budget V for dictionary truncation",
    )
    parser.add_argument(
        "--sample", type=int, help="clustering subsample size"
    )
    parser.add_argument("--seed", type=int, help="seed for all stochastic stages")
    parser.add_argument("--threads", type=int, help="worker bound (outputs unaffected)")
    parser.add_argument(
        "--quartiles", help="'empirical' or 'fixed:68,71,76'"
    )
    parser.add_argument(
        "--coverage-weight", dest="coverage_weight",
        choices=["total", "discretionary"], help="kWh weighting for coverage",
    )
    parser.add_argument(
        "--meter-schema", dest="meter_schema", choices=["wide", "long"],
        help="meter CSV layout",
    )
    parser.add_argument("--k-init", dest="k_init", type=int, help="initial k")


def _build_config(args: argparse.Namespace) -> RunConfig:
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key in RunConfig.__dataclass_fields__ and value is not None
    }
    if args.config:
        return RunConfig.from_file(args.config, overrides)
    return RunConfig(**overrides)


def _parse_bias(pairs) -> dict:
    """``--bias name=value`` flags as ``bias.name`` config-file keys."""
    bias = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise GeneratorConfigError(f"--bias expects name=value, got '{pair}'")
        name, value = pair.split("=", 1)
        bias[f"bias.{name.strip()}"] = value.strip()
    return bias


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loadshapes",
        description="Cluster daily load shapes and quantify their variability",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the full pipeline")
    _add_run_options(run)

    for name in PIPELINE_STAGES:
        stage = sub.add_parser(name, help=f"run only the {name} stage")
        _add_run_options(stage)

    synth = sub.add_parser("synth", help="generate a synthetic corpus")
    synth.add_argument("--config", help="generator key=value config file")
    synth.add_argument("--out", required=True, help="directory for the corpus files")
    synth.add_argument("--seed", type=int, required=True)
    # generator flags stay text here and are cast like config-file values
    synth.add_argument("--households")
    synth.add_argument("--days")
    synth.add_argument("--archetypes")
    synth.add_argument("--start-date", dest="start_date")
    synth.add_argument("--noise", dest="noise_level")
    synth.add_argument("--temperature-response", dest="temperature_response")
    synth.add_argument("--outlier-rate", dest="outlier_rate")
    synth.add_argument("--fuzz-rate", dest="fuzz_rate")
    synth.add_argument("--bad-day-rate", dest="bad_day_rate")
    synth.add_argument("--base-entropy", dest="base_entropy")
    synth.add_argument(
        "--bias", action="append",
        help="entropy bias as indicator=value (repeatable)",
    )
    synth.add_argument(
        "--schema", choices=["wide", "long"], default="wide",
        help="meter CSV layout to write",
    )
    return parser


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.config:
        config = GeneratorConfig.from_file(args.config)
    else:
        config = GeneratorConfig()
    raw = {
        key: value
        for key, value in vars(args).items()
        if key in GeneratorConfig.__dataclass_fields__ and value is not None
    }
    updates = parse_fields(
        GeneratorConfig, {**raw, **_parse_bias(args.bias)}, GeneratorConfigError
    )
    if "entropy_bias" in updates:
        updates["entropy_bias"] = {**config.entropy_bias, **updates["entropy_bias"]}
    config = replace(config, **updates)
    config.validate()
    corpus = generate_synthetic(config, args.seed)
    paths = corpus.write(args.out, meter_schema=args.schema)
    for label, path in paths.items():
        print(f"{label}: {path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        config = _build_config(args)
        config.validate()
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
