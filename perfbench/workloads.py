"""The benchmark workloads: inputs from a seed, one timed repetition, and
the checks on its outputs.

* ``full_run``: a cold ``run_pipeline`` on a synthetic meter corpus into a
  fresh output directory, then re-runs of the same config that must report
  every stage ``cached``. Mostly CSV parsing and formatting; clustering is
  large-n, small-k. The only workload that touches files.
* ``cluster_fit``: ``adaptive_kmeans`` -> ``hierarchical_merge`` ->
  ``truncate`` in memory on outlier-heavy corpora: small-n, large-k, with
  many split rounds. No file I/O, so CSV changes should not move it.
* ``assign_analyze``: ``assign_all`` of a keyed in-memory ShapeTable
  against a 99-shape dictionary, then the analytics chain. No CSV and no
  clustering.

Program functions are always looked up as module attributes
(``cluster.adaptive_kmeans``), so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from loadshapes import analytics, cluster, dictionary, ingest, pipeline, preprocess, synthetic

from tracing import span_or_null

# Sizes. "bench" is what BENCHMARK.json runs: it keeps each timed part to
# about a second, so that a run holds many samples of it. "acceptance" is
# the corpus of tests/test_acceptance.py. "tiny" is for the benchmark's own
# tests.
SIZES = {
    "full_run": {
        "tiny": {"households": 6, "days": 60, "sample": 250},
        "bench": {"households": 12, "days": 365, "sample": 2_400},
        "acceptance": {"households": 500, "days": 365, "sample": 100_000},
    },
    "cluster_fit": {
        # Fit time varies by up to 2x between corpus seeds (split rounds
        # and Lloyd iterations), so the bench size fits several smaller
        # corpora per repetition to average that out. Each corpus's fit is
        # a timed part of its own.
        "tiny": {"households": 20, "days": 30, "corpora": 2},
        "bench": {"households": 30, "days": 120, "corpora": 10},
        "acceptance": {"households": 200, "days": 120, "corpora": 1},
    },
    "assign_analyze": {
        "tiny": {"households": 24, "days": 60},
        "bench": {"households": 685, "days": 365},
        "acceptance": {"households": 2_740, "days": 365},
    },
}

# Seeds used when none is given: those of the acceptance suite.
DEFAULT_SEEDS = {"full_run": 1234, "cluster_fit": 42, "assign_analyze": 112}
ACCEPTANCE_RUN_SEED = 99  # RunConfig seed of the acceptance big_run

RERUNS = 3  # cached re-runs per full_run repetition, each one a rerun_s sample
DISTANCE_SAMPLE = 500  # rows re-checked by brute force in assign_analyze

ARTIFACTS = (
    "shapes.csv", "cleaning_report.csv", "model.json", "labels.csv",
    "dictionary.json", "assignments.csv", "entropy_by_stratum.csv",
    "coverage_curve.csv", "taxonomy.csv", "household_entropy.csv",
    "char_deltas.csv", "occurrence_map.csv",
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


@dataclass
class Rep:
    """One repetition: timings, the digest of its outputs, the counts the
    program reported, and any failed checks. ``parts`` holds the
    ``_Clock.row`` of each timed part, in the same order in every
    repetition, and ``reruns`` that of each cached re-run; ``wall_s`` and
    ``cpu_s`` sum the parts."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    parts: list = field(default_factory=list)
    reruns: list = field(default_factory=list)
    digest: str = ""
    artifact_digests: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


# The host's CPU speed varies by up to ~1.7x, within a second and over
# minutes, so every timing is taken together with the host's speed: the
# time of a fixed reference loop run just before and just after it.
_REFERENCE_LINES = [
    ",".join(f"{v:.4f}" for v in row)
    for row in np.random.default_rng(0).random((200, 24))
]


def reference_loop() -> float:
    """Seconds a fixed piece of interpreter work takes now: integer
    arithmetic, string keys into a dict, and parsing and formatting CSV
    floats. Of the kinds of work tried, its time followed the speed of all
    three workloads most closely."""
    start = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i
    table = {}
    for i in range(5_000):
        table[str(i)] = i
    for line in _REFERENCE_LINES:
        ",".join(f"{float(x):.3f}" for x in line.split(","))
    return time.perf_counter() - start


# Reported times are scaled to a host on which the reference loop takes
# this long (about its median on the 2-vCPU host of the baseline).
REFERENCE_S = 0.008


def scaled(row: list, column: int = 0) -> float:
    """Wall (column 0) or CPU (column 1) seconds of a ``_Clock.row``,
    scaled to the reference host speed."""
    return row[column] * REFERENCE_S / row[2]


class _Clock:
    """Wall and CPU seconds of the block, and the mean reference-loop time
    around it; the reference loops are outside the timed interval."""

    def __enter__(self):
        self._ref = reference_loop()
        self._cpu = _cpu_seconds()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._wall
        self.cpu = _cpu_seconds() - self._cpu
        self.ref = (self._ref + reference_loop()) / 2
        return False

    @property
    def row(self) -> list:
        return [self.wall, self.cpu, self.ref]


def _hash_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        if a.dtype == object:
            h.update(repr(a.tolist()).encode())
        else:
            h.update(np.ascontiguousarray(a).tobytes())
        h.update(b"|")
    return h.hexdigest()


def _file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _dump(obj, path) -> None:
    with open(path, "wb") as fh:
        pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)


def _load(path):
    # only ever reads the file this benchmark's own setup step wrote
    with open(path, "rb") as fh:
        return pickle.load(fh)


# ---------------------------------------------------------------------------
# full_run


def full_run_setup(size: dict, seed: int, workdir: Path) -> float:
    """Generate and write the meter/weather/survey CSVs; returns the
    build's ``_Clock.row``."""
    config = synthetic.GeneratorConfig(
        archetypes=5, households=size["households"], days=size["days"],
        noise_level=0.25, temperature_response=1.0,
        entropy_bias={"electric_dryer": 0.4, "elderly": -0.3},
        bad_day_rate=0.06,
    )
    with _Clock() as clock:
        corpus = synthetic.generate_synthetic(config, seed=seed)
        corpus.write(workdir / "corpus")
    return clock.row


def full_run_load(size: dict, seed: int, workdir: Path, run_seed: int) -> dict:
    corpus = workdir / "corpus"
    return {
        "meter": str(corpus / "meter.csv"),
        "weather": str(corpus / "weather.csv"),
        "survey": str(corpus / "survey.csv"),
        "sample": size["sample"],
        "run_seed": run_seed,
        "meter_rows": size["households"] * size["days"],
        "workdir": workdir,
    }


def full_run_rep(inputs: dict, tracer=None) -> Rep:
    # the same directory every time: the manifest records paths under it
    out = inputs["workdir"] / "out"
    shutil.rmtree(out, ignore_errors=True)
    config = pipeline.RunConfig(
        meter=inputs["meter"], weather=inputs["weather"], survey=inputs["survey"],
        out=str(out), seed=inputs["run_seed"], sample=inputs["sample"],
        threads=nproc(),
    )
    rep = Rep()
    try:
        with _Clock() as clock, span_or_null(tracer, "op.cold"):
            cold = pipeline.run_pipeline(config)
        rep.wall_s, rep.cpu_s = clock.wall, clock.cpu
        rep.parts = [clock.row]
        statuses = []
        for _ in range(RERUNS):
            with _Clock() as clock, span_or_null(tracer, "op.rerun"):
                again = pipeline.run_pipeline(config)
            rep.reruns.append(clock.row)
            statuses.append([r.status for r in again.results])
        _check_full_run(inputs, out, cold, statuses, rep)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return rep


def _check_full_run(inputs, out: Path, cold, rerun_statuses, rep: Rep) -> None:
    problems = rep.problems
    cold_status = [r.status for r in cold.results]
    if cold_status != ["ran"] * len(pipeline.PIPELINE_STAGES):
        problems.append(f"cold run stage statuses {cold_status}")
    cached = ["cached"] * len(pipeline.PIPELINE_STAGES)
    hits = sum(s.count("cached") for s in rerun_statuses)
    if any(s != cached for s in rerun_statuses):
        problems.append(f"re-run stage statuses {rerun_statuses}")
    rep.artifact_digests = {name: _file_sha256(out / name) for name in ARTIFACTS}
    rep.digest = hashlib.sha256(
        json.dumps(rep.artifact_digests, sort_keys=True).encode()
    ).hexdigest()

    dic = dictionary.load_dictionary(out / "dictionary.json")  # verifies digest
    with open(out / "ingest_report.json", encoding="utf-8") as fh:
        ingest_report = json.load(fh)
    report = preprocess.CleaningReport.read_csv(out / "cleaning_report.csv")
    if report.dropped + report.retained != report.n_input:
        problems.append(f"cleaning tallies {report} do not sum to the input")
    if report.n_input != inputs["meter_rows"] or ingest_report["meter_rows"] != inputs["meter_rows"]:
        problems.append(
            f"ingested {ingest_report['meter_rows']} rows, cleaned {report.n_input}, "
            f"wrote {inputs['meter_rows']}"
        )
    shape_rows = _data_lines(out / "shapes.csv")
    assigned_rows = _data_lines(out / "assignments.csv")
    if not shape_rows == assigned_rows == report.retained:
        problems.append(
            f"{assigned_rows} assignment rows, {shape_rows} shape rows, "
            f"{report.retained} retained"
        )
    with open(out / "model.json", encoding="utf-8") as fh:
        meta = json.load(fh)["meta"]
    rep.counts = {
        "meter_rows": ingest_report["meter_rows"],
        "diagnostics": len(ingest_report["meter_diagnostics"]),
        "retained": report.retained,
        "shapes_assigned": assigned_rows,
        "split_rounds": meta["split_rounds"],
        "k1": meta["k1"],
        "merges": meta["merges"],
        "k2": meta["k2"],
        "truncation_rounds": dic.provenance["truncation_rounds"],
        "dictionary_size": len(dic),
        "exit_violation_rate": dic.provenance["exit_violation_rate"],
        "cache_hits": hits,
        "cache_attempts": len(cold_status) + sum(len(s) for s in rerun_statuses),
        "artifact_bytes": sum(p.stat().st_size for p in out.iterdir() if p.is_file()),
    }


def _data_lines(path) -> int:
    """Rows of a CSV artifact, not counting its header and comment lines."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if not line.startswith("#")) - 1


# ---------------------------------------------------------------------------
# cluster_fit

THETA = 0.3
K_INIT = 10
MERGE_VIOLATION = 0.05
TRUNCATE_VIOLATION = 0.30


def _corpus_seeds(size: dict, seed: int) -> list[int]:
    return [seed + 1000 * j for j in range(size["corpora"])]


def cluster_fit_setup(size: dict, seed: int, workdir: Path) -> float:
    """Recovery-style corpora (spike and fuzz outliers), preprocessed."""
    config = synthetic.GeneratorConfig(
        archetypes=5, households=size["households"], days=size["days"],
        noise_level=0.05, temperature_response=1.0,
        outlier_rate=0.27, fuzz_rate=0.04,
    )
    tables = []
    with _Clock() as clock:
        for s in _corpus_seeds(size, seed):
            corpus = synthetic.generate_synthetic(config, seed=s)
            tables.append(preprocess.preprocess_days(corpus.days)[0])
    _dump(tables, workdir / "cluster_fit.pkl")
    return clock.row


def cluster_fit_load(size: dict, seed: int, workdir: Path, run_seed: int) -> dict:
    return {
        "tables": _load(workdir / "cluster_fit.pkl"),
        "seeds": _corpus_seeds(size, seed),
    }


def cluster_fit_rep(inputs: dict, tracer=None) -> Rep:
    fits, parts = [], []
    with span_or_null(tracer, "op.fit"):
        for table, s in zip(inputs["tables"], inputs["seeds"]):
            with _Clock() as clock:
                model = cluster.adaptive_kmeans(table, theta=THETA, k_init=K_INIT, seed=s)
                merged = cluster.hierarchical_merge(model, MERGE_VIOLATION)
                dic = dictionary.truncate(merged, TRUNCATE_VIOLATION)
            fits.append((model, merged, dic))
            parts.append(clock.row)
    rep = Rep(wall_s=sum(p[0] for p in parts), cpu_s=sum(p[1] for p in parts), parts=parts)
    h = hashlib.sha256()
    counts = dict.fromkeys(
        ("split_rounds", "k1", "merges", "k2", "truncation_rounds", "dictionary_size"), 0)
    exit_rates = []
    for i, (model, merged, dic) in enumerate(fits):
        if model.meta["residual_violations"] != 0:
            rep.problems.append(
                f"corpus {i}: {model.meta['residual_violations']} residual violations")
        rate = merged.violation_rate
        if not rate < MERGE_VIOLATION:
            rep.problems.append(f"corpus {i}: merged violation rate {rate}")
        if not int(dic.member_counts.sum()) == merged.n_shapes == len(model.labels):
            rep.problems.append(f"corpus {i}: truncation lost members")
        h.update(_hash_arrays(model.labels, model.centroids, merged.labels,
                              merged.centroids, merged.ids, dic.values,
                              dic.member_counts).encode())
        counts["split_rounds"] += model.meta["split_rounds"]
        counts["k1"] += model.meta["k1"]
        counts["merges"] += merged.meta["merges"]
        counts["k2"] += merged.meta["k2"]
        counts["truncation_rounds"] += dic.provenance["truncation_rounds"]
        counts["dictionary_size"] += len(dic)
        exit_rates.append(dic.provenance["exit_violation_rate"])
    counts["exit_violation_rate"] = float(np.mean(exit_rates))
    counts["shapes_clustered"] = sum(len(t) for t in inputs["tables"])
    rep.counts = counts
    rep.digest = h.hexdigest()
    return rep


# ---------------------------------------------------------------------------
# assign_analyze

DICTIONARY_SIZE = 99  # as in acceptance criterion 12
ARCHETYPES = 12


def assign_analyze_setup(size: dict, seed: int, workdir: Path) -> float:
    """A keyed ShapeTable drawn from the 12 archetypes (with planted
    per-household entropy differences), the dictionary, weather, survey."""
    with _Clock() as clock:
        config = synthetic.GeneratorConfig(
            archetypes=ARCHETYPES, households=size["households"], days=size["days"],
            noise_level=0.25, temperature_response=1.0,
            entropy_bias={"electric_dryer": 0.4, "elderly": -0.3},
        )
        corpus = synthetic.generate_synthetic(config, seed=seed, include_meter=False)
        rng = np.random.default_rng(seed)
        truth = corpus.truth
        n = len(truth.archetype_ids)
        profile = corpus.archetypes[truth.archetype_ids] * np.exp(
            config.noise_level * rng.standard_normal((n, ingest.HOURS_PER_DAY)))
        profile -= profile.min(axis=1, keepdims=True)
        profile /= profile.sum(axis=1, keepdims=True)
        disc = rng.lognormal(np.log(config.discretionary_kwh_mean), 0.35, n)
        baseload = np.repeat(
            rng.uniform(config.baseload_low_kw, config.baseload_high_kw,
                        size["households"]), size["days"])
        table = preprocess.ShapeTable(
            profile, truth.household_ids, truth.dates,
            disc + ingest.HOURS_PER_DAY * baseload, disc)
        extra = rng.random((DICTIONARY_SIZE - ARCHETYPES, ingest.HOURS_PER_DAY))
        values = np.vstack([corpus.archetypes, extra / extra.sum(axis=1, keepdims=True)])
        ranks = np.arange(DICTIONARY_SIZE, 0, -1, dtype=float)
        dic = dictionary.ClusterDictionary(
            values=values,
            ids=np.arange(1, DICTIONARY_SIZE + 1, dtype=np.int64),
            member_counts=np.ones(DICTIONARY_SIZE, dtype=np.int64),
            member_kwh=ranks, member_discretionary_kwh=ranks,
            theta=THETA, truncation_v=TRUNCATE_VIOLATION,
        )
    summer_dates = [w.date for w in corpus.weather
                    if ingest.SeasonCalendar.season(w.date) == "summer"]
    _dump({"table": table, "dictionary": dic, "weather": corpus.weather,
           "profiles": corpus.profiles, "summer_dates": summer_dates},
          workdir / "assign_analyze.pkl")
    return clock.row


def assign_analyze_load(size: dict, seed: int, workdir: Path, run_seed: int) -> dict:
    inputs = _load(workdir / "assign_analyze.pkl")
    inputs["seed"] = seed
    return inputs


def assign_analyze_rep(inputs: dict, tracer=None) -> Rep:
    table, dic, weather = inputs["table"], inputs["dictionary"], inputs["weather"]
    seed = inputs["seed"]
    with _Clock() as clock, span_or_null(tracer, "op.assign_analyze"):
        assignments = dictionary.assign_all(table, dic, workers=nproc())
        frame = analytics.build_frame(assignments, weather)
        temperature, _ = analytics.temperature_quartiles(weather, inputs["summer_dates"])
        strata = analytics.day_type_strata() + analytics.season_strata() + temperature
        report = analytics.stratified_entropy(frame, strata)
        entropies = analytics.household_entropy(frame)
        deltas = [
            analytics.characteristic_entropy_delta(entropies, inputs["profiles"], name, seed=seed)
            for name in ingest.INDICATOR_VOCABULARY
        ]
        curve = analytics.coverage_curve(assignments, dic)
        occ = analytics.occurrence_map(frame, curve.cluster_ids[:3], dic)
    rep = Rep(wall_s=clock.wall, cpu_s=clock.cpu, parts=[clock.row])
    rep.counts = {"shapes_assigned": len(assignments)}
    _check_assign_analyze(table, dic, assignments, report, seed, rep)
    rep.digest = _hash_arrays(
        assignments.cluster_ids, assignments.distances, assignments.rses,
        np.array([(e.axis, e.label, e.n, e.entropy) for e in report.entries], dtype=object),
        np.array(sorted(entropies.items()), dtype=object),
        np.array([tuple(vars(d).values()) for d in deltas], dtype=object),
        curve.cluster_ids, curve.kwh, curve.cumulative_fraction,
        occ.household_ids, occ.matrix, occ.daily_mean_temp_f, occ.daily_entropy,
    )
    return rep


def _check_assign_analyze(table, dic, assignments, report, seed, rep: Rep) -> None:
    rng = np.random.default_rng(seed)
    rows = rng.choice(len(table), size=min(DISTANCE_SAMPLE, len(table)), replace=False)
    diff = table.values[rows][:, None, :] - dic.values[None, :, :]
    best = np.sqrt((diff**2).sum(axis=-1)).min(axis=1)
    got = assignments.distances[rows]
    off = ~np.isclose(got, best, rtol=1e-12, atol=1e-15)
    if off.any():
        i = int(np.flatnonzero(off)[0])
        rep.problems.append(
            f"{int(off.sum())} of {len(rows)} sampled rows are not at the nearest "
            f"shape, e.g. row {int(rows[i])}: {got[i]!r} vs brute force {best[i]!r}")
    for e in report.entries:
        if e.n and abs(sum(e.frequencies.values()) - 1.0) > 1e-9:
            rep.problems.append(f"stratum {e.axis}/{e.label} frequencies do not sum to 1")
    for axis in ("day_type", "season"):
        covered = sum(e.n for e in report.entries if e.axis == axis)
        if covered != len(table):
            rep.problems.append(f"{axis} strata cover {covered} of {len(table)} rows")


WORKLOADS = {
    "full_run": (full_run_setup, full_run_load, full_run_rep),
    "cluster_fit": (cluster_fit_setup, cluster_fit_load, cluster_fit_rep),
    "assign_analyze": (assign_analyze_setup, assign_analyze_load, assign_analyze_rep),
}

# which count is the "household-days processed" of days_per_s
THROUGHPUT_COUNT = {
    "full_run": "meter_rows",
    "cluster_fit": "shapes_clustered",
    "assign_analyze": "shapes_assigned",
}
