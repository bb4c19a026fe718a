"""End-to-end pipeline with reproducible, resumable stages.

Stages: ingest -> cluster -> truncate -> assign -> analyze. Each stage
records a parameter hash and input-file digests in run_manifest.json next
to its artifacts; re-running with an identical entry and intact outputs
skips the stage. A failing stage removes its partial outputs and surfaces
a stage-named error.

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
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analytics
from .cluster import adaptive_kmeans, hierarchical_merge, load_model, save_model
from .dictionary import (
    AssignmentTable,
    assign_all,
    load_dictionary,
    save_dictionary,
    truncate,
)
from .errors import ConfigError, EmptyInputError, StageError
from .ingest import SeasonCalendar, read_meter_corpus, read_survey, read_weather
from .preprocess import ShapeTable, preprocess_days, subsample, SUBSAMPLE_ALGORITHM

MANIFEST_NAME = "run_manifest.json"

PIPELINE_STAGES = ("ingest", "cluster", "truncate", "assign", "analyze")

STAGE_OUTPUTS = {
    "ingest": ("shapes.csv", "cleaning_report.csv", "ingest_report.json"),
    "cluster": ("model.json", "labels.csv"),
    "truncate": ("dictionary.json",),
    "assign": ("assignments.csv",),
    "analyze": (
        "entropy_by_stratum.csv",
        "coverage_curve.csv",
        "taxonomy.csv",
        "household_entropy.csv",
        "char_deltas.csv",
        "occurrence_map.csv",
    ),
}

# stage that produces each artifact, for "run X first" diagnostics
_PRODUCER = {
    name: stage for stage, names in STAGE_OUTPUTS.items() for name in names
}


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
        if self.theta <= 0:
            raise ConfigError(f"theta must be > 0, got {self.theta}")
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
                return "fixed", tuple(float(p) for p in parts)
            except ValueError as exc:
                raise ConfigError(f"bad quartile boundary in '{self.quartiles}'") from exc
        raise ConfigError(
            f"quartiles must be 'empirical' or 'fixed:a,b,c', got '{self.quartiles}'"
        )

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "RunConfig":
        """Flat key=value config file; explicit overrides (CLI flags) win."""
        values: dict = {}
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected key=value")
                key, raw = (s.strip() for s in line.split("=", 1))
                values[key] = raw
        merged = cls._coerce(values)
        if overrides:
            merged.update(overrides)
        return cls(**merged)

    @staticmethod
    def _coerce(values: dict) -> dict:
        out: dict = {}
        casts = {
            "theta": float, "merge_violation": float, "truncate_violation": float,
            "sample": int, "seed": int, "threads": int, "k_init": int,
        }
        for key, raw in values.items():
            if key == "stages":
                out[key] = tuple(s.strip() for s in raw.split(",") if s.strip())
            elif key in casts:
                try:
                    out[key] = casts[key](raw)
                except ValueError as exc:
                    raise ConfigError(f"config key '{key}': bad value '{raw}'") from exc
            elif key in (
                "meter", "weather", "survey", "out", "quartiles",
                "coverage_weight", "meter_schema",
            ):
                out[key] = raw
            else:
                raise ConfigError(f"unknown config key '{key}'")
        return out

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
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh, indent=1, sort_keys=True)
            fh.write("\n")

    def drop(self, stage: str) -> None:
        if stage in self.data["stages"]:
            del self.data["stages"][stage]
            with open(self.path, "w", encoding="utf-8") as fh:
                json.dump(self.data, fh, indent=1, sort_keys=True)
                fh.write("\n")


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


def _require_artifact(out: Path, name: str, needed_by: str) -> Path:
    path = out / name
    if not path.exists():
        raise StageError(
            needed_by,
            f"missing upstream artifact '{name}'; run `{_PRODUCER[name]}` first",
        )
    return path


def _execute(stage: str, manifest: Manifest, params: dict, inputs: list,
             out: Path, fn) -> StageResult:
    entry = {
        "params_hash": _params_hash(params),
        "inputs": {str(p): _file_digest(p) for p in inputs},
        "outputs": list(STAGE_OUTPUTS[stage]),
    }
    cached = manifest.entry(stage)
    outputs_ok = all((out / name).exists() for name in STAGE_OUTPUTS[stage])
    if cached == entry and outputs_ok:
        return StageResult(stage, "cached")
    try:
        fn(entry["inputs"])
    except StageError:
        raise
    except Exception as exc:
        for name in STAGE_OUTPUTS[stage]:
            try:
                (out / name).unlink(missing_ok=True)
            except OSError:
                pass
        manifest.drop(stage)
        raise StageError(stage, str(exc)) from exc
    manifest.update(stage, entry)
    return StageResult(stage, "ran")


def run_id_for(config: RunConfig) -> str:
    """Deterministic run id from parameters and input digests."""
    payload = dict(config.effective_params())
    for name in ("meter", "weather", "survey"):
        path = getattr(config, name)
        payload[f"digest_{name}"] = _file_digest(path) if path and Path(path).exists() else None
    return _params_hash(payload)[:12]


def stage_ingest(config: RunConfig, manifest: Manifest | None = None,
                 shapes_memo: dict | None = None) -> StageResult:
    config.validate()
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = manifest or Manifest(out)
    if config.meter is None:
        raise StageError("ingest", "no meter file configured")
    inputs = [Path(config.meter)]
    for extra in (config.weather, config.survey):
        if extra:
            inputs.append(Path(extra))
    for path in inputs:
        if not path.exists():
            raise StageError("ingest", f"input file not found: {path}")
    params = {
        "meter_schema": config.meter_schema,
    }

    def fn(digests):
        days, meter_diags = read_meter_corpus(config.meter, config.meter_schema)
        report_payload = {
            "meter_rows": len(days),
            "meter_diagnostics": [
                {"row": d.row, "message": d.message} for d in meter_diags
            ],
        }
        if config.weather:
            weather, w_diags = read_weather(config.weather)
            report_payload["weather_rows"] = len(weather)
            report_payload["weather_diagnostics"] = [
                {"row": d.row, "message": d.message} for d in w_diags
            ]
        if config.survey:
            profiles, s_diags = read_survey(config.survey)
            report_payload["survey_rows"] = len(profiles)
            report_payload["survey_diagnostics"] = [
                {"row": d.row, "message": d.message} for d in s_diags
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
        if shapes_memo is not None:
            shapes_memo[_file_digest(out / "shapes.csv")] = table.freeze()

    return _execute("ingest", manifest, params, inputs, out, fn)


def _load_subsample(shapes: ShapeTable, labels_path) -> ShapeTable:
    """Rows of the shape table matching labels.csv, in labels order."""
    import csv

    index = {
        (shapes.household_ids[i], shapes.dates[i].isoformat()): i
        for i in range(len(shapes))
    }
    rows = []
    with open(labels_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            rows.append(index[(row[0], row[1])])
    return shapes.take(np.array(rows, dtype=np.int64))


def stage_cluster(config: RunConfig, manifest: Manifest | None = None,
                  shapes_memo: dict | None = None) -> StageResult:
    config.validate()
    out = Path(config.out)
    manifest = manifest or Manifest(out)
    shapes_path = _require_artifact(out, "shapes.csv", "cluster")
    params = {
        "theta": config.theta,
        "merge_violation": config.merge_violation,
        "sample": config.sample,
        "seed": config.seed,
        "k_init": config.k_init,
        "subsample_algorithm": SUBSAMPLE_ALGORITHM,
    }

    def fn(digests):
        table = ShapeTable.read_csv(shapes_path, shapes_memo, digests[str(shapes_path)])
        n = config.sample
        if n > len(table):
            warnings.warn(
                f"sample {n} exceeds corpus size {len(table)}; clamping"
            )
            n = len(table)
        sub = subsample(table, n, config.seed)
        model = adaptive_kmeans(
            sub, theta=config.theta, k_init=config.k_init, seed=config.seed
        )
        model = hierarchical_merge(model, config.merge_violation)
        save_model(model, out / "model.json", out / "labels.csv")

    return _execute("cluster", manifest, params, [shapes_path], out, fn)


def stage_truncate(config: RunConfig, manifest: Manifest | None = None,
                   shapes_memo: dict | None = None) -> StageResult:
    config.validate()
    out = Path(config.out)
    manifest = manifest or Manifest(out)
    shapes_path = _require_artifact(out, "shapes.csv", "truncate")
    model_path = _require_artifact(out, "model.json", "truncate")
    labels_path = _require_artifact(out, "labels.csv", "truncate")
    params = {"truncate_violation": config.truncate_violation}

    def fn(digests):
        table = ShapeTable.read_csv(shapes_path, shapes_memo, digests[str(shapes_path)])
        sub = _load_subsample(table, labels_path)
        model = load_model(model_path, labels_path, sub)
        dictionary = truncate(model, config.truncate_violation)
        dictionary.provenance["run_id"] = run_id_for(config)
        save_dictionary(dictionary, out / "dictionary.json")

    return _execute(
        "truncate", manifest, params, [shapes_path, model_path, labels_path], out, fn
    )


def stage_assign(config: RunConfig, manifest: Manifest | None = None,
                 shapes_memo: dict | None = None) -> StageResult:
    config.validate()
    out = Path(config.out)
    manifest = manifest or Manifest(out)
    shapes_path = _require_artifact(out, "shapes.csv", "assign")
    dict_path = _require_artifact(out, "dictionary.json", "assign")
    params: dict = {}

    def fn(digests):
        table = ShapeTable.read_csv(shapes_path, shapes_memo, digests[str(shapes_path)])
        dictionary = load_dictionary(dict_path)
        assignments = assign_all(table, dictionary, workers=config.threads)
        assignments.write_csv(out / "assignments.csv")

    return _execute("assign", manifest, params, [shapes_path, dict_path], out, fn)


def stage_analyze(config: RunConfig, manifest: Manifest | None = None,
                  shapes_memo: dict | None = None) -> StageResult:
    config.validate()
    out = Path(config.out)
    manifest = manifest or Manifest(out)
    shapes_path = _require_artifact(out, "shapes.csv", "analyze")
    dict_path = _require_artifact(out, "dictionary.json", "analyze")
    assign_path = _require_artifact(out, "assignments.csv", "analyze")
    inputs = [shapes_path, dict_path, assign_path]
    if config.weather:
        inputs.append(Path(config.weather))
    if config.survey:
        inputs.append(Path(config.survey))
    params = {
        "quartiles": config.quartiles,
        "coverage_weight": config.coverage_weight,
        "seed": config.seed,
    }

    def fn(digests):
        shapes = ShapeTable.read_csv(shapes_path, shapes_memo, digests[str(shapes_path)])
        dictionary = load_dictionary(dict_path)
        assignments = AssignmentTable.read_csv(assign_path, shapes)
        weather = None
        if config.weather:
            weather, _ = read_weather(config.weather)
        frame = analytics.build_frame(assignments, weather)
        with open(dict_path, encoding="utf-8") as fh:
            dictionary_digest = json.load(fh)["digest"]
        provenance = {
            "run_id": run_id_for(config),
            "dictionary_digest": dictionary_digest,
            "params": config.effective_params(),
        }

        strata = analytics.day_type_strata() + analytics.season_strata()
        quartile_note = None
        mode, fixed_bounds = config.quartile_spec()
        summer_dates = sorted(
            {d for d in frame.date if SeasonCalendar.season(d) == "summer"}
        )
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
        summer_mask = np.array(
            [SeasonCalendar.season(d) == "summer" for d in frame.date], dtype=bool
        )
        summer_entropies = (
            analytics.household_entropy(frame, summer_mask)
            if summer_mask.any()
            else {}
        )
        _write_household_entropy(
            out / "household_entropy.csv", entropies, summer_entropies, provenance
        )

        deltas = []
        if config.survey:
            profiles, _ = read_survey(config.survey)
            from .ingest import INDICATOR_VOCABULARY

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

    return _execute("analyze", manifest, params, inputs, out, fn)


def _write_household_entropy(path, entropies, summer_entropies, provenance) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# " + json.dumps(provenance, sort_keys=True, default=str) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["household_id", "entropy", "entropy_summer"])
        for hid in sorted(entropies):
            summer = summer_entropies.get(hid)
            writer.writerow(
                [hid, repr(float(entropies[hid])),
                 "" if summer is None else repr(float(summer))]
            )


_STAGE_FNS = {
    "ingest": stage_ingest,
    "cluster": stage_cluster,
    "truncate": stage_truncate,
    "assign": stage_assign,
    "analyze": stage_analyze,
}


def run_pipeline(config: RunConfig) -> RunResult:
    """Execute the selected stages in order, skipping cached ones."""
    config.validate()
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(out)
    shapes_memo: dict = {}  # sha256 of shapes.csv -> ShapeTable, this run only
    result = RunResult(run_id=run_id_for(config))
    for stage in PIPELINE_STAGES:
        if stage not in config.stages:
            continue
        result.results.append(_STAGE_FNS[stage](config, manifest, shapes_memo))
    return result
