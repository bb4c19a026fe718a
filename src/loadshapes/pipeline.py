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

One ``RunCache`` lives for one ``run_pipeline`` call. It hashes each file
once (keyed by resolved path, size, mtime_ns and inode), and it hands every
artifact or input a later stage reads (shapes.csv, model.json + labels.csv,
dictionary.json, assignments.csv, weather, survey) from the stage that
wrote or parsed it to the next reader, read-only, under the sha256 of the
files it was made from. A reader looks the object up by the digests its
manifest check has just computed and parses only on a miss, so a file
changed on disk is parsed again. A stage command makes a cache for its
one stage, so it parses from disk.

Nothing in the artifacts depends on wall-clock time or the worker count,
so identical configs and inputs reproduce outputs bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from types import MappingProxyType
from typing import Callable

from . import analytics
from .cluster import adaptive_kmeans, hierarchical_merge, load_model, save_model
from .config import flag, read_config
from .dictionary import (
    AssignmentTable,
    assign_all,
    load_dictionary,
    save_dictionary,
    truncate,
)
from .errors import ConfigError, CorruptArtifactError, EmptyInputError, StageError
from .ingest import (
    INDICATOR_VOCABULARY,
    _read_json,
    _write_json,
    read_meter_corpus,
    read_survey,
    read_weather,
)
from .preprocess import ShapeTable, preprocess_days, subsample, SUBSAMPLE_ALGORITHM

MANIFEST_NAME = "run_manifest.json"


# Stage bodies, in pipeline order. Each gets the config, the output
# directory, the shape table (None for ingest) and the run's cache, writes
# its outputs, and leaves what it wrote, read-only, in the cache for the
# stages after it.

def _ingest(config: RunConfig, out: Path, shapes: None, cache: RunCache) -> None:
    days, meter_diags = read_meter_corpus(config.meter, config.meter_schema)
    read = {"meter": (days, meter_diags)}
    for kind in ("weather", "survey"):
        if getattr(config, kind):
            read[kind] = _read_rows(cache, kind, getattr(config, kind))
    report_payload = {}
    for kind, (rows, diags) in read.items():
        report_payload[f"{kind}_rows"] = len(rows)
        report_payload[f"{kind}_diagnostics"] = [
            {"row": d.row, "message": d.message} for d in diags
        ]
    table, report = preprocess_days(days)
    report_payload["cleaning"] = report.counts()
    table.write_csv(out / "shapes.csv", workers=config.threads)
    report.write_csv(out / "cleaning_report.csv")
    _write_json(out / "ingest_report.json", report_payload)
    cache.keep("shapes", [out / "shapes.csv"], table.freeze())


def _cluster(config: RunConfig, out: Path, shapes: ShapeTable, cache: RunCache) -> None:
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
    cache.keep("model", _model_files(out), model.freeze())


def _truncate(config: RunConfig, out: Path, shapes: ShapeTable, cache: RunCache) -> None:
    model = cache.read("model", _model_files(out), lambda: load_model(
        out / "model.json", out / "labels.csv", shapes).freeze())
    dictionary = truncate(model, config.truncate_violation)
    dictionary.provenance["run_id"] = run_id_for(config, cache)
    dictionary.validate()  # the invariants load_dictionary checks
    # the digest load_dictionary would verify and set
    dictionary.digest = save_dictionary(dictionary, out / "dictionary.json")
    cache.keep("dictionary", [out / "dictionary.json"], dictionary.freeze())


def _assign(config: RunConfig, out: Path, shapes: ShapeTable, cache: RunCache) -> None:
    assignments = assign_all(shapes, _read_dictionary(out, cache), workers=config.threads)
    assignments.write_csv(out / "assignments.csv", workers=config.threads)
    cache.keep("assignments", _assignment_files(out), assignments.freeze())


def _analyze(config: RunConfig, out: Path, shapes: ShapeTable, cache: RunCache) -> None:
    dictionary = _read_dictionary(out, cache)
    assignments = cache.read("assignments", _assignment_files(out), lambda: (
        AssignmentTable.read_csv(out / "assignments.csv", shapes).freeze()))
    weather = None
    if config.weather:
        weather, _ = _read_rows(cache, "weather", config.weather)
    frame = analytics.build_frame(assignments, weather)
    provenance = {
        "run_id": run_id_for(config, cache),
        "dictionary_digest": dictionary.digest,
        "params": config.effective_params(),
    }

    strata = analytics.day_type_strata() + analytics.season_strata()
    mode, fixed_bounds = config.quartile_spec()
    summer_mask = frame.season == "summer"
    summer_dates = sorted(set(frame.date[summer_mask]))
    if weather is None or not summer_dates:
        provenance["temperature_strata_skipped"] = "no weather or no summer dates"
    else:
        try:
            temp_strata, bounds = analytics.temperature_quartiles(
                weather, summer_dates, mode=mode, boundaries=fixed_bounds
            )
            strata += temp_strata
            provenance["temperature_boundaries"] = list(bounds)
        except ValueError as exc:
            provenance["temperature_strata_skipped"] = str(exc)

    report = analytics.stratified_entropy(frame, strata)
    analytics.write_entropy_csv(report, out / "entropy_by_stratum.csv", provenance)

    curve = analytics.coverage_curve(
        assignments, dictionary, weight=config.coverage_weight
    )
    analytics.write_coverage_csv(curve, out / "coverage_curve.csv", provenance)

    taxonomy = analytics.peak_taxonomy(dictionary)
    analytics.write_taxonomy_csv(taxonomy, out / "taxonomy.csv", provenance)

    entropies = analytics.household_entropy(frame)
    summer_entropies = analytics.household_entropy(frame, summer_mask)
    analytics.write_household_entropy_csv(
        entropies, summer_entropies, out / "household_entropy.csv", provenance
    )

    deltas = []
    if config.survey:
        profiles, _ = _read_rows(cache, "survey", config.survey)
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


# the files each handed-over artifact is made from: what a reader parses
# it from, and what its cache key digests

def _model_files(out: Path) -> list:
    return [out / "model.json", out / "labels.csv", out / "shapes.csv"]


def _assignment_files(out: Path) -> list:
    return [out / "assignments.csv", out / "shapes.csv"]


def _read_dictionary(out: Path, cache: RunCache):
    return cache.read("dictionary", [out / "dictionary.json"],
                      lambda: load_dictionary(out / "dictionary.json").freeze())


def _read_rows(cache: RunCache, kind: str, path) -> tuple:
    """The (rows, diagnostics) of the weather or survey file ``path``, as
    tuples of frozen records; survey indicators are read-only mappings."""
    def parse():
        rows, diagnostics = (read_weather if kind == "weather" else read_survey)(path)
        if kind == "survey":
            rows = [replace(p, indicators=MappingProxyType(p.indicators)) for p in rows]
        return tuple(rows), tuple(diagnostics)

    return cache.read(kind, [path], parse)


@dataclass(frozen=True)
class Stage:
    """One row of the stage table."""

    name: str
    requires: tuple  # upstream artifacts in the output directory
    outputs: tuple
    params: tuple  # effective_params() keys in the stage's params hash
    sources: tuple  # RunConfig input-file fields it reads; a listed meter is required
    body: Callable  # (config, out, shapes, cache) -> None


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

# stage that produces each artifact, for "run X first" diagnostics
_PRODUCER = {name: stage.name for stage in STAGES.values() for name in stage.outputs}


@dataclass(frozen=True)
class RunConfig:
    """Single configuration surface for the pipeline and stage commands."""

    meter: str | None = flag(None, "meter readings CSV")
    weather: str | None = flag(None, "daily weather CSV")
    survey: str | None = flag(None, "household survey CSV")
    out: str = flag("out", "output directory")
    theta: float = flag(0.3, "RSE threshold")
    merge_violation: float = flag(0.05, "violation budget for hierarchical merging")
    truncate_violation: float = flag(0.30, "violation budget V for dictionary truncation")
    sample: int = flag(100_000, "clustering subsample size")
    seed: int | None = flag(None, "seed for all stochastic stages")
    threads: int = flag(1, "worker bound (outputs unaffected)")
    quartiles: str = flag("empirical", "'empirical' or 'fixed:68,71,76'")
    coverage_weight: str = flag("total", "kWh weighting for coverage: total or discretionary")
    meter_schema: str = flag("wide", "meter CSV layout: wide or long")
    k_init: int = flag(10, "initial k")
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
            raise ConfigError(f"config key 'coverage_weight': bad value '{self.coverage_weight}'")
        if self.meter_schema not in ("wide", "long"):
            raise ConfigError(f"config key 'meter_schema': bad value '{self.meter_schema}'")
        self.quartile_spec()
        unknown = set(self.stages) - set(PIPELINE_STAGES)
        if unknown:
            raise ConfigError(f"unknown stage(s) {sorted(unknown)}")

    def quartile_spec(self):
        """Parse the quartiles option into (mode, boundaries)."""
        if self.quartiles == "empirical":
            return "empirical", None
        if self.quartiles.startswith("fixed:"):
            try:
                b1, b2, b3 = map(float, self.quartiles[len("fixed:"):].split(","))
            except ValueError as exc:
                raise ConfigError(
                    f"config key 'quartiles': expected 3 numeric boundaries, got '{self.quartiles}'"
                ) from exc
            if not all(map(math.isfinite, (b1, b2, b3))) or not b1 <= b2 <= b3:
                raise ConfigError(
                    f"config key 'quartiles': boundaries must be finite and "
                    f"non-decreasing, got '{self.quartiles}'"
                )
            return "fixed", (b1, b2, b3)
        raise ConfigError(
            f"config key 'quartiles': expected 'empirical' or 'fixed:a,b,c', got '{self.quartiles}'"
        )

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "RunConfig":
        """Flat key=value config file; explicit overrides (CLI flags) win."""
        return cls(**{**read_config(cls, path, ConfigError), **(overrides or {})})

    def effective_params(self) -> dict:
        """All parameters that shape the outputs: every field but the file
        paths, ``threads`` and ``stages``, in field order, and the subsample
        algorithm."""
        params = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name not in ("meter", "weather", "survey", "out", "threads", "stages")}
        return {**params, "subsample_algorithm": SUBSAMPLE_ALGORITHM}


def _file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


class RunCache:
    """What one ``run_pipeline`` call has digested and parsed.

    ``digest`` hashes a file once per stat key (resolved path, size,
    ``st_mtime_ns``, ``st_ino``): within a run, an unchanged stat key is
    trusted to mean unchanged bytes. A stage that runs ``forget``s its
    outputs first, so a file the run itself rewrites is hashed again.

    ``keep`` and ``read`` hand parsed artifacts between stages: an object
    is stored under its kind and the sha256 of every file it is made from,
    so a reader finds it only while those files hold what it was made
    from, and parses them otherwise. Stored objects are read-only.
    """

    def __init__(self):
        self._digests: dict = {}  # resolved path -> (stat key, sha256)
        self.objects: dict = {}  # (kind, sha256 of each file) -> read-only object

    def digest(self, path) -> str:
        path = os.path.realpath(path)
        st = os.stat(path)
        stat = (st.st_size, st.st_mtime_ns, st.st_ino)
        known = self._digests.get(path)
        if known is None or known[0] != stat:
            known = self._digests[path] = (stat, _file_digest(path))
        return known[1]

    def forget(self, paths) -> None:
        for path in paths:
            self._digests.pop(os.path.realpath(path), None)

    def key(self, kind: str, paths) -> tuple:
        return (kind, *map(self.digest, paths))

    def keep(self, kind: str, paths, obj) -> None:
        """Store ``obj`` (read-only) as what ``paths`` now hold."""
        self.objects[self.key(kind, paths)] = obj

    def read(self, kind: str, paths, parse: Callable):
        """The object stored for what ``paths`` hold, or ``parse()``,
        which must return it read-only."""
        key = self.key(kind, paths)
        if key not in self.objects:
            self.objects[key] = parse()
        return self.objects[key]


def _params_hash(params: dict) -> str:
    return hashlib.sha256(
        json.dumps(params, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


class Manifest:
    def __init__(self, out_dir: Path):
        self.path = out_dir / MANIFEST_NAME
        self.data = {"stages": {}}
        if self.path.exists():
            try:
                data = _read_json(self.path)
            except CorruptArtifactError:
                data = {}
            if isinstance(data.get("stages"), dict):
                self.data = data
            else:
                warnings.warn(
                    f"{self.path}: damaged, not a JSON object with a 'stages' "
                    "dict; every stage runs again and rewrites it"
                )

    def entry(self, stage: str):
        return self.data["stages"].get(stage)

    def update(self, stage: str, entry: dict) -> None:
        self.data["stages"][stage] = entry
        _write_json(self.path, self.data)

    def drop(self, stage: str) -> None:
        if self.data["stages"].pop(stage, None) is not None:
            _write_json(self.path, self.data)


@dataclass
class StageResult:
    stage: str
    status: str  # "ran" | "cached"


@dataclass
class RunResult:
    run_id: str
    results: list = field(default_factory=list)


def run_id_for(config: RunConfig, cache: RunCache) -> str:
    """Deterministic run id from parameters and input digests."""
    payload = dict(config.effective_params())
    for name in ("meter", "weather", "survey"):
        path = getattr(config, name)
        payload[f"digest_{name}"] = cache.digest(path) if path and Path(path).exists() else None
    return _params_hash(payload)[:12]


def _run_stage(stage: Stage, config: RunConfig, manifest: Manifest | None,
               cache: RunCache | None) -> StageResult:
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
    cache = cache or RunCache()
    effective = config.effective_params()
    entry = {
        "params_hash": _params_hash({key: effective[key] for key in stage.params}),
        "inputs": {str(p): cache.digest(p) for p in inputs},
        "outputs": list(stage.outputs),
    }
    outputs_ok = all((out / name).exists() for name in stage.outputs)
    if manifest.entry(stage.name) == entry and outputs_ok:
        return StageResult(stage.name, "cached")
    cache.forget(out / name for name in stage.outputs)
    try:
        shapes = None
        if "shapes.csv" in stage.requires:
            shapes_path = out / "shapes.csv"
            shapes = ShapeTable.read_csv(shapes_path, cache.objects,
                                         cache.key("shapes", [shapes_path]))
        stage.body(config, out, shapes, cache)
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
            cache: RunCache | None = None) -> StageResult:
        return _run_stage(stage, config, manifest, cache)

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
    cache = RunCache()  # this run only
    result = RunResult(run_id=run_id_for(config, cache))
    for stage in PIPELINE_STAGES:
        if stage in config.stages:
            result.results.append(_STAGE_FNS[stage](config, manifest, cache))
    return result
