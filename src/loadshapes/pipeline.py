"""End-to-end pipeline with reproducible, resumable stages.

Stages: ingest -> cluster -> truncate -> assign -> analyze, declared once in
the ``STAGES`` table. Each entry names the ``HANDED`` objects the stage
reads (their files are its upstream artifacts), the outputs it writes, the
``effective_params()`` keys it hashes, the config input files it reads, and
its body. One runner does the rest for every stage: it validates the
config, checks upstream artifacts and input files, builds what the body
reads and keeps what it returns, records a parameter hash, input-file
digests (paths relative to the output directory) and output digests in
run_manifest.json next to the artifacts, and skips the stage while that
entry matches and every output still has its recorded digest, so an output
rewritten on disk runs its stage again. An upstream artifact whose stage
has no entry is unfinished ("run X first"). A stage that runs drops its
entry first, so a run killed partway leaves it to run again; a failing
stage also removes its partial outputs and raises a stage-named error.

One ``RunCache`` lives for one ``run_pipeline`` call. It hashes each file
once (keyed by resolved path, size, mtime_ns and inode) and holds the
objects stages hand on, read-only, under the sha256 of the files each was
made from, so a reader parses only on a miss and a file changed on disk is
parsed again. A stage command makes a cache for its one stage, so it
parses from disk.

A stage's entry is recorded once its outputs are whole. In a
``run_pipeline`` call with ``threads`` > 1 and a later selected stage that
reads shapes, ingest may leave ``shapes.csv`` to a background child; the
entries of ingest and the stages run beside it are held (they count as
finished for "run X first") and recorded in stage order once the child is
joined: before a cached check against an entry whose params match, or at
the end of the run; a parse meanwhile takes ingest's table, never
shapes.csv. On any error or interrupt before then, the runner kills and
reaps the child and removes the outputs of the held stages, which get no entry.

Nothing in the artifacts depends on wall-clock time or the worker count,
so identical configs and inputs reproduce outputs bit for bit.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import math
import os
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

from . import analytics, ingest
from .cluster import DEFAULT_K_INIT, adaptive_kmeans, hierarchical_merge, load_model, save_model
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
    _frozen,
    _json_digest,
    _read_json,
    _write_json,
    read_meter_corpus,
    read_survey,
    read_weather,
)
from .preprocess import ShapeTable, preprocess_days, subsample, SUBSAMPLE_ALGORITHM

MANIFEST_NAME = "run_manifest.json"

# How much nicer than the run the background writer of shapes.csv runs: on
# a busy core the stages beside it go first, and once the runner waits for
# it nothing of the run competes. On a 2-vCPU host an acceptance-size
# `loadshapes run --threads 2` with BLAS on one thread took 4.1 s with 5,
# 10 or 19 and 4.6-4.8 s at the run's own priority (5.2 s writing first).
BACKGROUND_NICE = 5


# Stage bodies, in pipeline order. ``read`` holds, by kind, the HANDED
# objects and configured weather and survey rows the stage reads; a body
# computes, writes its outputs and returns the objects it hands on.

def _ingest(config: RunConfig, out: Path, read: dict, cache: RunCache) -> dict:
    days, meter_diags = read_meter_corpus(config.meter, config.meter_schema, config.threads)
    report_payload = {}
    for kind, (rows, diags) in {"meter": (days, meter_diags), **read}.items():
        report_payload[f"{kind}_rows"] = len(rows)
        report_payload[f"{kind}_diagnostics"] = [
            {"row": d.row, "message": d.message} for d in diags
        ]
    table, report = preprocess_days(days)
    report_payload["cleaning"] = report.counts()
    cache.write(table, out / "shapes.csv", config.threads)
    report.write_csv(out / "cleaning_report.csv")
    _write_json(out / "ingest_report.json", report_payload)
    return {"shapes": table}


def _cluster(config: RunConfig, out: Path, read: dict, cache: RunCache) -> dict:
    shapes = read["shapes"]
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
    return {"model": model}


def _truncate(config: RunConfig, out: Path, read: dict, cache: RunCache) -> dict:
    dictionary = truncate(read["model"], config.truncate_violation)
    dictionary.provenance["run_id"] = run_id_for(config, cache)
    dictionary.validate()  # the invariants load_dictionary checks
    # the digest load_dictionary would verify and set
    dictionary.digest = save_dictionary(dictionary, out / "dictionary.json")
    return {"dictionary": dictionary}


def _assign(config: RunConfig, out: Path, read: dict, cache: RunCache) -> dict:
    assignments = assign_all(read["shapes"], read["dictionary"], workers=config.threads)
    assignments.write_csv(out / "assignments.csv", workers=config.threads)
    return {"assignments": assignments}


def _analyze(config: RunConfig, out: Path, read: dict, cache: RunCache) -> dict:
    dictionary, assignments = read["dictionary"], read["assignments"]
    weather = read["weather"][0] if "weather" in read else None
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
    if "survey" in read:
        profiles, _ = read["survey"]
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
    return {}


# Objects stages hand on, by kind: the artifacts each is made from (all in its
# cache key) and its parser, given their paths and what the stage read before.
HANDED = {
    "shapes": (("shapes.csv",), None),
    "model": (("model.json", "labels.csv", "shapes.csv"),
              lambda paths, read: load_model(paths[0], paths[1], read["shapes"])),
    "dictionary": (("dictionary.json",), lambda paths, read: load_dictionary(paths[0])),
    "assignments": (("assignments.csv", "shapes.csv"),
                    lambda paths, read: AssignmentTable.read_csv(paths[0], read["shapes"])),
}


@dataclass(frozen=True)
class Stage:
    """One row of the stage table."""

    name: str
    reads: tuple  # HANDED kinds it takes, in the order they are read
    outputs: tuple
    params: tuple  # effective_params() keys in the stage's params hash
    sources: tuple  # RunConfig input-file fields it reads; a listed meter is required
    body: Callable  # (config, out, read, cache) -> {HANDED kind: object}

    @property
    def requires(self) -> tuple:  # upstream artifacts: the files of its reads, in order
        return tuple(dict.fromkeys(name for kind in self.reads for name in HANDED[kind][0]))


STAGES = {stage.name: stage for stage in (
    Stage("ingest", reads=(),
          outputs=("shapes.csv", "cleaning_report.csv", "ingest_report.json"),
          params=("meter_schema",), sources=("meter", "weather", "survey"),
          body=_ingest),
    Stage("cluster", reads=("shapes",), outputs=("model.json", "labels.csv"),
          params=("theta", "merge_violation", "sample", "seed", "k_init",
                  "subsample_algorithm"),
          sources=(), body=_cluster),
    Stage("truncate", reads=("shapes", "model"),
          outputs=("dictionary.json",), params=("truncate_violation",),
          sources=(), body=_truncate),
    Stage("assign", reads=("shapes", "dictionary"),
          outputs=("assignments.csv",), params=(), sources=(), body=_assign),
    Stage("analyze", reads=("shapes", "dictionary", "assignments"),
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
    k_init: int = flag(DEFAULT_K_INIT, "initial k")
    stages: tuple = PIPELINE_STAGES

    def validate(self) -> None:
        for key, ok, rule in (
            ("theta", 0.0 < self.theta < math.inf, "finite and > 0"),
            ("merge_violation", 0.0 <= self.merge_violation < 1.0, "in [0, 1)"),
            ("truncate_violation", 0.0 < self.truncate_violation < 1.0, "in (0, 1)"),
            ("seed", self.seed is not None and self.seed >= 0,
             "an integer >= 0 (runs must be reproducible)"),
            ("sample", self.sample > 0, "> 0"),
            ("threads", self.threads >= 1, ">= 1"),
            ("k_init", self.k_init >= 1, ">= 1"),
            ("coverage_weight", self.coverage_weight in ("total", "discretionary"),
             "total or discretionary"),
            ("meter_schema", self.meter_schema in ("wide", "long"), "wide or long"),
            ("stages", set(self.stages) <= set(PIPELINE_STAGES), f"among {PIPELINE_STAGES}"),
        ):
            if not ok:
                raise ConfigError(
                    f"config key '{key}': bad value {getattr(self, key)!r}, must be {rule}"
                )
        self.quartile_spec()

    def quartile_spec(self):
        """Parse the quartiles option into (mode, boundaries); fixed
        boundaries must pass ``analytics._checked_boundaries``."""
        if self.quartiles == "empirical":
            return "empirical", None
        try:
            if not self.quartiles.startswith("fixed:"):
                raise ValueError(f"expected 'empirical' or 'fixed:a,b,c', got '{self.quartiles}'")
            return "fixed", analytics._checked_boundaries(self.quartiles[len("fixed:"):].split(","))
        except ValueError as exc:
            raise ConfigError(f"config key 'quartiles': {exc}") from exc

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """The config in the flat key=value file ``path``."""
        return cls(**read_config(cls, path, ConfigError))

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


def _stat_key(path) -> tuple:
    st = os.stat(path)
    return (st.st_size, st.st_mtime_ns, st.st_ino)


class RunCache:
    """What one ``run_pipeline`` call has digested and parsed.

    ``digest`` hashes a file once per stat key (resolved path, size,
    ``st_mtime_ns``, ``st_ino``): within a run, an unchanged stat key is
    trusted to mean unchanged bytes. A stage that runs ``forget``s its
    outputs first, so a file the run itself rewrites is hashed again.

    ``keep`` and ``read`` hand parsed artifacts between stages: an object
    is stored under its kind and the sha256 of every file it is made from,
    so a reader finds it only while those files hold what it was made
    from, and parses them otherwise; ``ingest._frozen`` makes it read-only.

    With ``background``, ``write`` may leave a table's file to a
    background child, whose ExitStack stands in for the file's digest in
    object keys until ``join``, at a cached check whose params match or at
    the end of the run; ``record`` holds the stages in ``held`` (None while
    a stage runs) until then and builds their ``entry`` after it.
    """

    def __init__(self, background: bool = False):
        self._digests: dict = {}  # resolved path -> (stat key, sha256)
        self.objects: dict = {}  # (kind, sha256 of each file) -> read-only object
        self.background = background
        self.writing = None  # or (resolved path, ExitStack of its ingest._forked, results)
        self.held: dict = {}  # stage -> (params hash, input paths), in stage order

    def digest(self, path) -> str:
        """The file's sha256; for a file still being written, the
        ExitStack of its writer."""
        path = os.path.realpath(path)
        if self.writing and self.writing[0] == path:
            return self.writing[1]
        stat = _stat_key(path)
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
        """Store ``obj``, made read-only, as what ``paths`` now hold."""
        self.objects[self.key(kind, paths)] = _frozen(obj)

    def read(self, kind: str, paths, parse: Callable):
        """The object stored for what ``paths`` hold, or ``parse()`` made
        read-only and stored."""
        key = self.key(kind, paths)
        if key not in self.objects:
            self.objects[key] = _frozen(parse())
        return self.objects[key]

    def write(self, table, path, workers: int) -> None:
        """Write ``table`` to ``path`` with up to ``workers`` processes:
        with ``background``, for a table the writer would split, in a
        background child, ``BACKGROUND_NICE`` nicer, that hands back the
        file's sha256, so this process never reads it back."""
        if self.background and table._write_shards(workers) > 1:
            writer = contextlib.ExitStack()
            shard, shards, results = writer.enter_context(ingest._forked(2, group=True))
            if shard:  # the background child, which ends with the block
                with writer:
                    os.nice(BACKGROUND_NICE)
                    table.write_csv(path, workers=workers)
                    results.write(_file_digest(path).encode())
            if shards > 1:
                self.writing = os.path.realpath(path), writer, results
                return
            writer.close()
        table.write_csv(path, workers=workers)

    def join(self) -> None:
        """Wait for the write in flight, if any; its sha256 takes its
        child's place in the object keys. A failed child fails ingest,
        naming the file."""
        if self.writing:
            path, writer, results = self.writing
            with writer:
                code, file = next(results)
                digest = file.read().decode()
            self.writing = None
            if code:
                raise StageError("ingest", f"{path}: the background process writing it "
                                 f"failed (exit code {code})")
            self._digests[path] = (_stat_key(path), digest)
            self.objects = {tuple(digest if d is writer else d for d in key): obj
                            for key, obj in self.objects.items()}

    def entry(self, params_hash: str, inputs, outputs, out: Path) -> dict:
        """A stage's manifest entry; input paths are relative to ``out``."""
        return {"params_hash": params_hash,
                "inputs": {_relative(p, out): self.digest(p) for p in inputs},
                "outputs": {name: self.digest(out / name) for name in outputs}}

    def record(self, manifest: Manifest) -> None:
        """Record the entry of every held stage in ``manifest``, in stage
        order, unless a write is in flight."""
        if not self.writing:
            for name, (params_hash, inputs) in self.held.items():
                manifest.update(name, self.entry(params_hash, inputs, STAGES[name].outputs,
                                                 manifest.path.parent))
            self.held = {}

    def abandon(self, out: Path) -> None:
        """After a failure: kill and reap the child of a write in flight,
        and remove the outputs of the held stages, which get no entry."""
        if self.writing:
            self.writing[1].close()
        for stage in self.held:
            _remove(out / name for name in STAGES[stage].outputs)
        self.writing, self.held = None, {}


def _remove(paths) -> None:
    for path in paths:
        with contextlib.suppress(OSError):
            path.unlink(missing_ok=True)


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
        payload[f"digest_{name}"] = cache.digest(path) if path and Path(path).is_file() else None
    return _json_digest(payload)[:12]


def _relative(path, out: Path) -> str:
    try:
        return os.path.relpath(path, out)
    except ValueError:  # on another drive: no relative path reaches it
        return str(path)


def _run_stage(stage: Stage, config: RunConfig, manifest: Manifest | None,
               cache: RunCache | None) -> StageResult:
    """Check, then run or skip, one stage; every stage function calls this."""
    config.validate()
    out = Path(config.out)
    # a file at or above out fails as mkdir would, before the upstream checks blame ingest
    existing = next((path for path in (out, *out.parents) if path.exists()), None)
    if existing and not existing.is_dir():
        code = errno.EEXIST if existing == out else errno.ENOTDIR
        raise StageError(stage.name, f"cannot make output directory {out} ({os.strerror(code)})")
    manifest = manifest or Manifest(out)
    cache = cache or RunCache()
    inputs = []
    for name in stage.requires:
        producer = _PRODUCER[name]
        # a held stage has finished, though its entry or its file may not be there yet
        if producer not in cache.held and (
                not (out / name).exists() or manifest.entry(producer) is None):
            state = "not finished" if (out / name).exists() else "missing"
            raise StageError(stage.name, f"upstream artifact '{name}' is {state}; "
                             f"run `{producer}` first")
        inputs.append(out / name)
    if "meter" in stage.sources and config.meter is None:
        raise StageError(stage.name, "no meter file configured")
    for source in stage.sources:
        path = getattr(config, source)
        if path:
            if not Path(path).is_file():
                raise StageError(stage.name, f"input file not found: {path}")
            inputs.append(Path(path))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StageError(stage.name,
                         f"cannot make output directory {out} ({exc.strerror})") from exc
    effective = config.effective_params()
    params_hash = _json_digest({key: effective[key] for key in stage.params})
    recorded = manifest.entry(stage.name)
    if isinstance(recorded, dict) and recorded.get("params_hash") == params_hash:
        cache.join()  # the check below needs the digest of every input
        entry = cache.entry(params_hash, inputs, (), out)
        if recorded.get("inputs") == entry["inputs"]:  # only then hash the outputs
            # a missing or rewritten output never matches the digest the stage recorded
            present = [name for name in stage.outputs if (out / name).exists()]
            entry["outputs"] = cache.entry(params_hash, (), present, out)["outputs"]
            if recorded == entry:
                cache.record(manifest)
                return StageResult(stage.name, "cached")
    manifest.drop(stage.name)  # no entry until the outputs are whole: a kill re-runs it
    cache.forget(out / name for name in stage.outputs)
    if cache.background:
        cache.held[stage.name] = None  # its outputs go if the run fails before the join
    try:
        read = {}
        for kind in stage.reads:
            files, parse = HANDED[kind]
            paths = [out / name for name in files]
            if parse is None:  # shapes: ShapeTable.read_csv looks the run's table up itself
                read[kind] = ShapeTable.read_csv(paths[0], cache)
            else:
                read[kind] = cache.read(kind, paths, lambda: parse(paths, read))
        for kind in stage.sources:
            if kind != "meter" and (path := getattr(config, kind)):  # the body reads the meter
                reader = read_weather if kind == "weather" else read_survey
                read[kind] = cache.read(kind, [path], lambda: reader(path))
        for kind, obj in stage.body(config, out, read, cache).items():
            cache.keep(kind, [out / name for name in HANDED[kind][0]], obj)
    except Exception as exc:
        _remove(out / name for name in stage.outputs)
        raise StageError(stage.name, str(exc)) from exc
    cache.held[stage.name] = params_hash, inputs
    cache.record(manifest)
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
    """Execute the selected stages in order, skipping cached ones; with
    ``threads`` > 1, ingest may write ``shapes.csv`` beside the later
    stages (see the module docstring)."""
    config.validate()
    selected = [name for name in PIPELINE_STAGES if name in config.stages]
    manifest = Manifest(Path(config.out))
    overlap = config.threads > 1 and any("shapes" in STAGES[name].reads for name in selected)
    cache = RunCache(background=overlap)  # this run only
    result = RunResult(run_id=run_id_for(config, cache))
    try:
        for name in selected:
            result.results.append(_STAGE_FNS[name](config, manifest, cache))
        cache.join()
        cache.record(manifest)
    except BaseException:
        cache.abandon(Path(config.out))
        raise
    return result
