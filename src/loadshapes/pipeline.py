"""End-to-end pipeline with reproducible, resumable stages.

Stages: ingest -> cluster -> truncate -> assign -> analyze, declared once in
the ``STAGES`` table. Each entry names the upstream artifacts the stage
needs, the outputs it writes, the ``effective_params()`` keys it hashes,
the config input files it reads, and its body. One runner does the rest for
every stage: it validates the config, checks upstream artifacts ("run X
first") and input files, records a parameter hash and input-file digests in
run_manifest.json next to the artifacts, and skips the stage when that entry
and the outputs are intact. A failing stage removes its partial outputs and
surfaces a stage-named error. ``run_pipeline`` and the CLI stage commands
both call the stage functions in ``_STAGE_FNS``, which are made from the
table.

``run_pipeline`` parses shapes.csv at most once: ingest keeps the table it
wrote, and the later stages look it up by the sha256 of shapes.csv that the
manifest check has just computed. A stage run on its own, or a run whose
shapes.csv changed on disk, misses and parses the file.

Nothing in the artifacts depends on wall-clock time or the worker count,
so identical configs and inputs reproduce outputs bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from . import analytics
from .cluster import adaptive_kmeans, hierarchical_merge, load_model, save_model
from .config import read_config
from .dictionary import (
    AssignmentTable,
    assign_all,
    load_dictionary,
    save_dictionary,
    truncate,
)
from .errors import ConfigError, EmptyInputError, StageError
from .ingest import (
    INDICATOR_VOCABULARY,
    read_meter_corpus,
    read_survey,
    read_weather,
)
from .preprocess import ShapeTable, preprocess_days, subsample, SUBSAMPLE_ALGORITHM

MANIFEST_NAME = "run_manifest.json"


# Stage bodies, in pipeline order. Each gets the config, the output
# directory and the shape table (None for ingest), and writes its outputs;
# ingest returns the table it wrote, so a run can hand it to later stages.

def _ingest(config: RunConfig, out: Path, shapes: None) -> ShapeTable:
    days, meter_diags = read_meter_corpus(config.meter, config.meter_schema)
    read = {"meter": (days, meter_diags)}
    if config.weather:
        read["weather"] = read_weather(config.weather)
    if config.survey:
        read["survey"] = read_survey(config.survey)
    report_payload = {}
    for kind, (rows, diags) in read.items():
        report_payload[f"{kind}_rows"] = len(rows)
        report_payload[f"{kind}_diagnostics"] = [
            {"row": d.row, "message": d.message} for d in diags
        ]
    table, report = preprocess_days(days)
    report_payload["cleaning"] = {
        "input": report.n_input,
        "dropped_missing_hours": report.dropped_missing_hours,
        "dropped_low_demand": report.dropped_low_demand,
        "dropped_zero_discretionary": report.dropped_zero_discretionary,
        "retained": report.retained,
    }
    table.write_csv(out / "shapes.csv")
    report.write_csv(out / "cleaning_report.csv")
    with open(out / "ingest_report.json", "w", encoding="utf-8") as fh:
        json.dump(report_payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return table


def _cluster(config: RunConfig, out: Path, shapes: ShapeTable) -> None:
    n = config.sample
    if n > len(shapes):
        warnings.warn(f"sample {n} exceeds corpus size {len(shapes)}; clamping")
        n = len(shapes)
    sub = subsample(shapes, n, config.seed)
    model = adaptive_kmeans(
        sub, theta=config.theta, k_init=config.k_init, seed=config.seed
    )
    model = hierarchical_merge(model, config.merge_violation)
    save_model(model, out / "model.json", out / "labels.csv")


def _truncate(config: RunConfig, out: Path, shapes: ShapeTable) -> None:
    model = load_model(out / "model.json", out / "labels.csv", shapes)
    dictionary = truncate(model, config.truncate_violation)
    dictionary.provenance["run_id"] = run_id_for(config)
    save_dictionary(dictionary, out / "dictionary.json")


def _assign(config: RunConfig, out: Path, shapes: ShapeTable) -> None:
    dictionary = load_dictionary(out / "dictionary.json")
    assignments = assign_all(shapes, dictionary, workers=config.threads)
    assignments.write_csv(out / "assignments.csv")


def _analyze(config: RunConfig, out: Path, shapes: ShapeTable) -> None:
    dictionary = load_dictionary(out / "dictionary.json")
    assignments = AssignmentTable.read_csv(out / "assignments.csv", shapes)
    weather = None
    if config.weather:
        weather, _ = read_weather(config.weather)
    frame = analytics.build_frame(assignments, weather)
    provenance = {
        "run_id": run_id_for(config),
        "dictionary_digest": dictionary.digest,
        "params": config.effective_params(),
    }

    strata = analytics.day_type_strata() + analytics.season_strata()
    quartile_note = None
    mode, fixed_bounds = config.quartile_spec()
    summer_mask = frame.season == "summer"
    summer_dates = sorted(set(frame.date[summer_mask]))
    if weather is not None and summer_dates:
        try:
            temp_strata, bounds = analytics.temperature_quartiles(
                weather, summer_dates, mode=mode, boundaries=fixed_bounds
            )
            strata += temp_strata
            provenance["temperature_boundaries"] = list(bounds)
        except ValueError as exc:
            quartile_note = str(exc)
    else:
        quartile_note = "no weather or no summer dates"
    if quartile_note:
        provenance["temperature_strata_skipped"] = quartile_note

    report = analytics.stratified_entropy(frame, strata)
    analytics.write_entropy_csv(report, out / "entropy_by_stratum.csv", provenance)

    curve = analytics.coverage_curve(
        assignments, dictionary, weight=config.coverage_weight
    )
    analytics.write_coverage_csv(curve, out / "coverage_curve.csv", provenance)

    taxonomy = analytics.peak_taxonomy(dictionary)
    analytics.write_taxonomy_csv(taxonomy, out / "taxonomy.csv", provenance)

    entropies = analytics.household_entropy(frame)
    summer_entropies = (
        analytics.household_entropy(frame, summer_mask)
        if summer_mask.any()
        else {}
    )
    analytics.write_household_entropy_csv(
        entropies, summer_entropies, out / "household_entropy.csv", provenance
    )

    deltas = []
    if config.survey:
        profiles, _ = read_survey(config.survey)
        for indicator in INDICATOR_VOCABULARY:
            try:
                deltas.append(
                    analytics.characteristic_entropy_delta(
                        entropies, profiles, indicator, seed=config.seed
                    )
                )
            except EmptyInputError:
                continue  # indicator unusable on this corpus
    analytics.write_char_deltas_csv(deltas, out / "char_deltas.csv", provenance)

    top = [int(c) for c in curve.cluster_ids[:3]]
    provenance["occurrence_targets"] = top
    occ = analytics.occurrence_map(frame, top, dictionary)
    analytics.write_occurrence_csv(occ, out / "occurrence_map.csv", provenance)


@dataclass(frozen=True)
class Stage:
    """One row of the stage table."""

    name: str
    requires: tuple  # upstream artifacts in the output directory
    outputs: tuple
    params: tuple  # effective_params() keys in the stage's params hash
    sources: tuple  # RunConfig input-file fields it reads; a listed meter is required
    body: Callable  # (config, out, shapes) -> the ShapeTable it wrote, or None


STAGES = {stage.name: stage for stage in (
    Stage("ingest", requires=(),
          outputs=("shapes.csv", "cleaning_report.csv", "ingest_report.json"),
          params=("meter_schema",), sources=("meter", "weather", "survey"),
          body=_ingest),
    Stage("cluster", requires=("shapes.csv",), outputs=("model.json", "labels.csv"),
          params=("theta", "merge_violation", "sample", "seed", "k_init",
                  "subsample_algorithm"),
          sources=(), body=_cluster),
    Stage("truncate", requires=("shapes.csv", "model.json", "labels.csv"),
          outputs=("dictionary.json",), params=("truncate_violation",),
          sources=(), body=_truncate),
    Stage("assign", requires=("shapes.csv", "dictionary.json"),
          outputs=("assignments.csv",), params=(), sources=(), body=_assign),
    Stage("analyze", requires=("shapes.csv", "dictionary.json", "assignments.csv"),
          outputs=("entropy_by_stratum.csv", "coverage_curve.csv", "taxonomy.csv",
                   "household_entropy.csv", "char_deltas.csv", "occurrence_map.csv"),
          params=("quartiles", "coverage_weight", "seed"),
          sources=("weather", "survey"), body=_analyze),
)}

PIPELINE_STAGES = tuple(STAGES)

STAGE_OUTPUTS = {name: stage.outputs for name, stage in STAGES.items()}

# stage that produces each artifact, for "run X first" diagnostics
_PRODUCER = {name: stage.name for stage in STAGES.values() for name in stage.outputs}


@dataclass(frozen=True)
class RunConfig:
    """Single configuration surface for the pipeline and stage commands."""

    meter: str | None = None
    weather: str | None = None
    survey: str | None = None
    out: str = "out"
    theta: float = 0.3
    merge_violation: float = 0.05
    truncate_violation: float = 0.30
    sample: int = 100_000
    seed: int | None = None
    threads: int = 1
    quartiles: str = "empirical"
    coverage_weight: str = "total"
    meter_schema: str = "wide"
    k_init: int = 10
    stages: tuple = PIPELINE_STAGES

    def validate(self) -> None:
        if not 0.0 < self.theta < math.inf:
            raise ConfigError(f"theta must be finite and > 0, got {self.theta}")
        if not 0.0 <= self.merge_violation < 1.0:
            raise ConfigError(
                f"merge_violation must be in [0, 1), got {self.merge_violation}"
            )
        if not 0.0 < self.truncate_violation < 1.0:
            raise ConfigError(
                f"truncate_violation must be in (0, 1), got {self.truncate_violation}"
            )
        if self.seed is None:
            raise ConfigError("seed is required for reproducible runs")
        if self.sample <= 0:
            raise ConfigError(f"sample must be positive, got {self.sample}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
        if self.coverage_weight not in ("total", "discretionary"):
            raise ConfigError(f"unknown coverage weight '{self.coverage_weight}'")
        if self.meter_schema not in ("wide", "long"):
            raise ConfigError(f"unknown meter schema '{self.meter_schema}'")
        self.quartile_spec()
        unknown = set(self.stages) - set(PIPELINE_STAGES)
        if unknown:
            raise ConfigError(f"unknown stage(s) {sorted(unknown)}")

    def quartile_spec(self):
        """Parse the quartiles option into (mode, boundaries)."""
        if self.quartiles == "empirical":
            return "empirical", None
        if self.quartiles.startswith("fixed:"):
            parts = self.quartiles[len("fixed:"):].split(",")
            if len(parts) != 3:
                raise ConfigError(
                    f"fixed quartiles need 3 boundaries, got '{self.quartiles}'"
                )
            try:
                bounds = tuple(float(p) for p in parts)
            except ValueError as exc:
                raise ConfigError(f"bad quartile boundary in '{self.quartiles}'") from exc
            if not all(map(math.isfinite, bounds)):
                raise ConfigError(
                    f"quartiles boundaries must be finite, got '{self.quartiles}'"
                )
            return "fixed", bounds
        raise ConfigError(
            f"quartiles must be 'empirical' or 'fixed:a,b,c', got '{self.quartiles}'"
        )

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "RunConfig":
        """Flat key=value config file; explicit overrides (CLI flags) win."""
        return cls(**{**read_config(cls, path, ConfigError), **(overrides or {})})

    def effective_params(self) -> dict:
        """All parameters that shape the outputs (threads excluded)."""
        return {
            "theta": self.theta,
            "merge_violation": self.merge_violation,
            "truncate_violation": self.truncate_violation,
            "sample": self.sample,
            "seed": self.seed,
            "quartiles": self.quartiles,
            "coverage_weight": self.coverage_weight,
            "meter_schema": self.meter_schema,
            "k_init": self.k_init,
            "subsample_algorithm": SUBSAMPLE_ALGORITHM,
        }


def _file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _params_hash(params: dict) -> str:
    return hashlib.sha256(
        json.dumps(params, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


class Manifest:
    def __init__(self, out_dir: Path):
        self.path = out_dir / MANIFEST_NAME
        self.data = {"stages": {}}
        if self.path.exists():
            with open(self.path, encoding="utf-8") as fh:
                self.data = json.load(fh)

    def entry(self, stage: str):
        return self.data["stages"].get(stage)

    def update(self, stage: str, entry: dict) -> None:
        self.data["stages"][stage] = entry
        self._save()

    def drop(self, stage: str) -> None:
        if self.data["stages"].pop(stage, None) is not None:
            self._save()

    def _save(self) -> None:
        """Replace the manifest in one step: a failed write leaves the
        previous file whole."""
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(self.data, fh, indent=1, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self.path)
        finally:
            tmp.unlink(missing_ok=True)


@dataclass
class StageResult:
    stage: str
    status: str  # "ran" | "cached"


@dataclass
class RunResult:
    run_id: str
    results: list = field(default_factory=list)

    def status_of(self, stage: str) -> str | None:
        for r in self.results:
            if r.stage == stage:
                return r.status
        return None


def run_id_for(config: RunConfig) -> str:
    """Deterministic run id from parameters and input digests."""
    payload = dict(config.effective_params())
    for name in ("meter", "weather", "survey"):
        path = getattr(config, name)
        payload[f"digest_{name}"] = _file_digest(path) if path and Path(path).exists() else None
    return _params_hash(payload)[:12]


def _run_stage(stage: Stage, config: RunConfig, manifest: Manifest | None,
               shapes_memo: dict | None) -> StageResult:
    """Check, then run or skip, one stage; every stage function calls this."""
    config.validate()
    out = Path(config.out)
    inputs = []
    for name in stage.requires:
        if not (out / name).exists():
            raise StageError(
                stage.name,
                f"missing upstream artifact '{name}'; run `{_PRODUCER[name]}` first",
            )
        inputs.append(out / name)
    if "meter" in stage.sources and config.meter is None:
        raise StageError(stage.name, "no meter file configured")
    for source in stage.sources:
        path = getattr(config, source)
        if path:
            if not Path(path).exists():
                raise StageError(stage.name, f"input file not found: {path}")
            inputs.append(Path(path))
    out.mkdir(parents=True, exist_ok=True)
    manifest = manifest or Manifest(out)
    effective = config.effective_params()
    entry = {
        "params_hash": _params_hash({key: effective[key] for key in stage.params}),
        "inputs": {str(p): _file_digest(p) for p in inputs},
        "outputs": list(stage.outputs),
    }
    outputs_ok = all((out / name).exists() for name in stage.outputs)
    if manifest.entry(stage.name) == entry and outputs_ok:
        return StageResult(stage.name, "cached")
    try:
        shapes = None
        if "shapes.csv" in stage.requires:
            shapes_path = out / "shapes.csv"
            digest = entry["inputs"][str(shapes_path)]
            shapes = ShapeTable.read_csv(shapes_path, shapes_memo, digest)
        written = stage.body(config, out, shapes)
        if written is not None and shapes_memo is not None:
            shapes_memo[_file_digest(out / "shapes.csv")] = written.freeze()
    except StageError:
        raise
    except Exception as exc:
        for name in stage.outputs:
            try:
                (out / name).unlink(missing_ok=True)
            except OSError:
                pass
        manifest.drop(stage.name)
        raise StageError(stage.name, str(exc)) from exc
    manifest.update(stage.name, entry)
    return StageResult(stage.name, "ran")


def _stage_function(stage: Stage):
    def run(config: RunConfig, manifest: Manifest | None = None,
            shapes_memo: dict | None = None) -> StageResult:
        return _run_stage(stage, config, manifest, shapes_memo)

    run.__name__ = run.__qualname__ = f"stage_{stage.name}"
    run.__doc__ = f"Run the {stage.name} stage, or report it cached."
    return run


# run_pipeline and the CLI call stages through this dict
_STAGE_FNS = {name: _stage_function(stage) for name, stage in STAGES.items()}
stage_ingest = _STAGE_FNS["ingest"]
stage_cluster = _STAGE_FNS["cluster"]
stage_truncate = _STAGE_FNS["truncate"]
stage_assign = _STAGE_FNS["assign"]
stage_analyze = _STAGE_FNS["analyze"]


def run_pipeline(config: RunConfig) -> RunResult:
    """Execute the selected stages in order, skipping cached ones."""
    config.validate()
    manifest = Manifest(Path(config.out))
    shapes_memo: dict = {}  # sha256 of shapes.csv -> ShapeTable, this run only
    result = RunResult(run_id=run_id_for(config))
    for stage in PIPELINE_STAGES:
        if stage in config.stages:
            result.results.append(_STAGE_FNS[stage](config, manifest, shapes_memo))
    return result
