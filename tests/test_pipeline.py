import argparse
import builtins
import dataclasses
import datetime as dt
import errno
import filecmp
import hashlib
import json
import os
import re
import shutil
import threading
import time
import warnings
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

from loadshapes import analytics, cli, cluster, ingest, pipeline
from loadshapes.cli import build_parser, main
from loadshapes.config import config_from
from loadshapes.dictionary import AssignmentTable
from loadshapes.errors import ConfigError, EmptyInputError, StageError
from loadshapes.pipeline import (
    _STAGE_FNS,
    MANIFEST_NAME,
    PIPELINE_STAGES,
    STAGES,
    Manifest,
    RunCache,
    RunConfig,
    run_pipeline,
    stage_analyze,
    stage_assign,
    stage_cluster,
    stage_ingest,
    stage_truncate,
)
from loadshapes.preprocess import ShapeTable
from loadshapes.synthetic import GeneratorConfig, generate_synthetic
from test_writers import forks  # noqa: F401  (a fixture: block size 3, forked pids)

SMOKE_CFG = GeneratorConfig(
    archetypes=4, households=50, days=40,
    noise_level=0.1, temperature_response=1.0,
    outlier_rate=0.1, fuzz_rate=0.02, bad_day_rate=0.05,
)


@pytest.fixture(scope="module")
def smoke_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    corpus = generate_synthetic(SMOKE_CFG, seed=3)
    return corpus.write(out)


# every artifact except the manifest, which records paths
ARTIFACTS = (
    "shapes.csv", "model.json", "labels.csv", "dictionary.json",
    "assignments.csv", "entropy_by_stratum.csv", "coverage_curve.csv",
    "taxonomy.csv", "household_entropy.csv", "char_deltas.csv",
    "occurrence_map.csv",
)


def smoke_config(paths, out, **kw):
    defaults = dict(
        meter=str(paths["meter"]),
        weather=str(paths["weather"]),
        survey=str(paths["survey"]),
        out=str(out),
        seed=5,
        sample=1500,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


@pytest.fixture(scope="module")
def smoke_run(smoke_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = smoke_config(smoke_corpus, out)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_pipeline(config)
    return config, out, result


def test_full_run_emits_all_artifacts(smoke_run):
    _, out, result = smoke_run
    assert [r.status for r in result.results] == ["ran"] * 5
    for names in (
        "shapes.csv cleaning_report.csv ingest_report.json model.json labels.csv "
        "dictionary.json assignments.csv entropy_by_stratum.csv coverage_curve.csv "
        "taxonomy.csv household_entropy.csv char_deltas.csv occurrence_map.csv "
        "run_manifest.json"
    ).split():
        assert (out / names).exists(), names


def _identical_days(out) -> dict:
    """A meter file of 40 days that all hold the same readings."""
    hours = np.tile(np.linspace(0.5, 2.0, 24), (40, 1))
    days = ingest.DayTable([f"H{i % 2}" for i in range(40)],
                           [dt.date(2020, 1, 1) + dt.timedelta(days=i // 2) for i in range(40)],
                           hours)
    ingest.write_meter_corpus(days, out / "meter.csv")
    return {"meter": out / "meter.csv"}


@pytest.mark.parametrize("corpus, flags", [
    (lambda out: generate_synthetic(GeneratorConfig(households=3, days=20), seed=1).write(out),
     {"k_init": 1, "theta": 50.0}),
    (_identical_days, {}),  # k-means++ stops at one centre
], ids=["k-init-1", "identical-days"])
def test_a_one_cluster_fit_runs_every_stage(corpus, flags, tmp_path):
    paths = corpus(tmp_path)
    config = RunConfig(meter=str(paths["meter"]), out=str(tmp_path / "out"), seed=1, **flags)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_pipeline(config)
    assert [r.status for r in result.results] == ["ran"] * 5
    meta = json.loads((tmp_path / "out" / "model.json").read_text())["meta"]
    assert (meta["merges"], meta["k2"]) == (0, 1)
    dictionary = json.loads((tmp_path / "out" / "dictionary.json").read_text())
    assert len(dictionary["ids"]) == 1


def test_second_invocation_fully_cached(smoke_run):
    config, _, _ = smoke_run
    result = run_pipeline(config)
    assert [r.status for r in result.results] == ["cached"] * 5


def test_parameter_change_invalidates_downstream(smoke_corpus, tmp_path):
    out = tmp_path / "own"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_pipeline(smoke_config(smoke_corpus, out))
        changed = smoke_config(smoke_corpus, out, truncate_violation=0.10)
        result = run_pipeline(changed)
    statuses = {r.stage: r.status for r in result.results}
    assert statuses["ingest"] == "cached"
    assert statuses["cluster"] == "cached"
    assert statuses["truncate"] == "ran"
    assert statuses["assign"] == "ran"


def test_invalid_theta_rejected_before_any_work(smoke_corpus, tmp_path):
    config = smoke_config(smoke_corpus, tmp_path / "never", theta=0.0)
    with pytest.raises(ConfigError):
        run_pipeline(config)
    assert not (tmp_path / "never").exists()


def test_missing_upstream_artifact_names_producing_stage(smoke_corpus, tmp_path):
    out = tmp_path / "partial"
    config = smoke_config(
        smoke_corpus, out, stages=("ingest", "cluster", "truncate")
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_pipeline(config)
    with pytest.raises(StageError, match="run `assign` first"):
        stage_analyze(smoke_config(smoke_corpus, out))

    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(StageError, match="run `ingest` first"):
        stage_analyze(smoke_config(smoke_corpus, empty))


def test_failed_stage_removes_partial_outputs(smoke_corpus, tmp_path):
    out = tmp_path / "broken"
    out.mkdir()
    config = smoke_config(smoke_corpus, out, stages=("ingest", "cluster"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_pipeline(config)
    # corrupt shapes.csv so the cluster stage fails mid-flight
    (out / "shapes.csv").write_text("household_id,date\n")
    (out / "model.json").unlink()
    (out / "labels.csv").unlink()
    with pytest.raises(StageError, match="cluster"):
        run_pipeline(smoke_config(smoke_corpus, out, stages=("cluster",)))
    assert not (out / "model.json").exists()
    assert not (out / "labels.csv").exists()


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(seed=None).validate()
    with pytest.raises(ConfigError):
        RunConfig(seed=1, truncate_violation=1.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(seed=1, quartiles="fixed:68,71").validate()
    with pytest.raises(ConfigError):
        RunConfig(seed=1, coverage_weight="net").validate()
    RunConfig(seed=1, quartiles="fixed:68,71,76").validate()


@pytest.mark.parametrize("field", ["theta", "merge_violation", "truncate_violation"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_run_config_rejects_non_finite(field, value):
    with pytest.raises(ConfigError, match=field):
        RunConfig(seed=1, **{field: value}).validate()


@pytest.mark.parametrize("quartiles", ["fixed:nan,71,76", "fixed:68,71,inf",
                                       "fixed:-inf,71,76", "fixed:76,71,68",
                                       "fixed:68,71", "fixed:68,warm,76", "median",
                                       "fixed 68,71,76"])
def test_run_config_rejects_non_finite_quartiles(quartiles):
    with pytest.raises(ConfigError, match="quartiles"):
        RunConfig(seed=1, quartiles=quartiles).validate()


def test_run_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "theta=0.25\nseed=11\nsample=500\nout=somewhere\n"
        "quartiles=fixed:68,71,76\n"
    )
    config = RunConfig.from_file(path)
    assert (config.theta, config.seed, config.sample, config.out) == (0.25, 11, 500, "somewhere")
    assert config.quartile_spec() == ("fixed", (68.0, 71.0, 76.0))

    (tmp_path / "bad.cfg").write_text("nope=1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        RunConfig.from_file(tmp_path / "bad.cfg")


def test_manifest_excluded_from_determinism_but_artifacts_match(
    smoke_corpus, smoke_run, tmp_path
):
    config, out1, _ = smoke_run
    out2 = tmp_path / "again"
    config2 = smoke_config(smoke_corpus, out2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_pipeline(config2)
    for name in ARTIFACTS:
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


# sha256 of each artifact of the smoke run, computed before the CSV writers
# formatted rows in blocks; later writers must reproduce these bytes
SMOKE_SHA256 = {
    "shapes.csv":
        "a32b189e35db1ceb33f976b1730e0a847f5f9ccf863de5ab2df565610880d385",
    "model.json":
        "9ae6d540243bb16e494a20cefc902159bc4405c196a7ad7b6baf3f74aff199cb",
    "labels.csv":
        "319cbd136cc7199a6a42863413407fb98bac08ec71df7df992694c9599f0b624",
    "dictionary.json":
        "d2ae5d12894753f5c1337da4348f6bc6fec5580ee9fef512541dceb750ef55f1",
    "assignments.csv":
        "95ee070adaabf206de0ef89a31b1f02a86808fd0f30db2d5552ec791f1ae942e",
    "entropy_by_stratum.csv":
        "3a0ee75709dd734cbfec459439cecdd76c584ef5e55cd94adb580105b1a76d02",
    "coverage_curve.csv":
        "89469197be615d8a5d6bf65221dec4ca023fa65c1fad5e074ced3373f884bb54",
    "taxonomy.csv":
        "bdaf1cd4f99dd2d09b2927549810f0fadb9764b6ce9e37bd49e6839cc4ca895f",
    "household_entropy.csv":
        "2ccb3f7c929dfdbc49a2237edd6884c393ef84391f7d7bf7ffa75d802c40ba04",
    "char_deltas.csv":
        "271b714bb39602ce5da02d727bf6498e25b192849114f4288a889eceb1fedad5",
    "occurrence_map.csv":
        "94d03dce2383f6d93ec0f8e589188556c7873ff5f4a701b9956e57dc24d21f9f",
    # the ingest reports record no path
    "cleaning_report.csv":
        "8853af19470578e03f74bd753eff6fc6bd18a8e97fdc66f5240a8c6b8e624a50",
    "ingest_report.json":
        "9a36985c33fc70db17893539e2d2ebd12245a1d1614ab17dc02e2eebbd54467d",
}


def test_smoke_run_artifacts_match_golden_digests(smoke_run):
    _, out, _ = smoke_run
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in SMOKE_SHA256}
    assert set(ARTIFACTS) <= set(digests)
    assert digests == SMOKE_SHA256


def test_artifacts_and_run_id_do_not_depend_on_threads(smoke_corpus, smoke_run, tmp_path,
                                                       forks):
    config, out, result = smoke_run
    assert config.threads == 1
    sharded_out = tmp_path / "threads2"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sharded = run_pipeline(smoke_config(smoke_corpus, sharded_out, threads=2))
    # forked here: the child parsing the meter file's second range, the
    # background writer of shapes.csv (which forks the child formatting its
    # second range itself) and the child formatting assignments.csv's
    assert len(forks) == 3
    assert sharded.run_id == result.run_id
    for name in SMOKE_SHA256:
        assert filecmp.cmp(out / name, sharded_out / name, shallow=False), name
    # where the row numbers of the meter diagnostics would show a shard
    assert (out / "ingest_report.json").read_bytes() == (
        sharded_out / "ingest_report.json").read_bytes()
    # a directory one process wrote is up to date for two
    again = run_pipeline(dataclasses.replace(config, threads=2))
    assert [r.status for r in again.results] == ["cached"] * 5
    assert again.run_id == result.run_id


def test_failed_sharded_shapes_write_removes_its_output_and_manifest_entry(
    smoke_corpus, tmp_path, monkeypatch, forks
):
    out = tmp_path / "out"
    config = smoke_config(smoke_corpus, out, threads=2)
    assert stage_ingest(config).status == "ran"
    assert Manifest(out).entry("ingest") is not None
    (out / "shapes.csv").unlink()
    real = ingest.KeyedTable._csv_blocks

    def blocks(self, lo, hi, *columns):
        if lo:  # a child's range
            raise RuntimeError("shard failed")
        return real(self, lo, hi, *columns)

    monkeypatch.setattr(ingest.KeyedTable, "_csv_blocks", blocks)
    with pytest.raises(StageError, match=r"stage 'ingest': .*shapes\.csv: the process formatting"):
        stage_ingest(config)
    assert len(forks) == 4  # per ingest, one for the meter parse and one for shapes.csv
    assert not (out / "shapes.csv").exists()
    assert not list(out.glob("*.part*"))
    assert Manifest(out).entry("ingest") is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def writers(monkeypatch):
    """The pids of the children that write shapes.csv in the background,
    each made the leader of a process group of its own."""
    pids, setpgid = [], os.setpgid

    def noted(pid, pgid):
        if pid:  # this process placing a child, not a child placing itself
            pids.append(pid)
        return setpgid(pid, pgid)

    monkeypatch.setattr(os, "setpgid", noted)
    return pids


def _run(config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_pipeline(config)


def _files(out) -> dict:
    return {path.name: path.read_bytes() for path in sorted(Path(out).iterdir())}


def _alive_in_group(pgid) -> list:
    """Pids of the processes of group ``pgid`` that are not yet dead, after
    up to 5 s for a killed one to go."""
    deadline = time.monotonic() + 5
    while True:
        alive = []
        for entry in filter(str.isdigit, os.listdir("/proc")):
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:  # gone meanwhile
                continue
            state, _, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
            if int(pgrp) == pgid and state not in "ZX":
                alive.append(int(entry))
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.05)


def _fail_the_background_write(monkeypatch) -> None:
    """Make ShapeTable.write_csv raise in any child of this process."""
    parent, write = os.getpid(), ShapeTable.write_csv

    def failing(self, path, workers=1):
        if os.getpid() != parent:
            raise OSError("no space left")
        return write(self, path, workers=workers)

    monkeypatch.setattr(ShapeTable, "write_csv", failing)


BACKGROUND_WRITE_FAILED = (r"^stage 'ingest': .*shapes\.csv: the background process writing "
                           r"it failed \(exit code 1\)$")


def test_a_failed_background_write_fails_ingest_and_leaves_nothing(
    smoke_corpus, tmp_path, monkeypatch, forks, writers
):
    out = tmp_path / "out"
    clustered = []
    monkeypatch.setattr(pipeline, "adaptive_kmeans",
                        _counting(clustered, "adaptive_kmeans", pipeline.adaptive_kmeans))
    _fail_the_background_write(monkeypatch)
    with pytest.raises(StageError, match=BACKGROUND_WRITE_FAILED):
        _run(smoke_config(smoke_corpus, out, threads=2))
    assert len(writers) == 1 and clustered == ["adaptive_kmeans"]
    # no shapes.csv, no output of a later stage, no manifest, no part or temp file
    assert list(out.iterdir()) == []
    assert all(Manifest(out).entry(stage) is None for stage in PIPELINE_STAGES)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_background_write_found_at_a_cached_check_fails_ingest(
    smoke_corpus, tmp_path, monkeypatch, forks, writers
):
    out = tmp_path / "out"
    config = smoke_config(smoke_corpus, out, threads=2)
    _run(config)
    whole = _files(out)
    shapes = (out / "shapes.csv").read_bytes()
    (out / "shapes.csv").write_bytes(shapes[: len(shapes) // 3])
    clustered = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "adaptive_kmeans",
                      _counting(clustered, "adaptive_kmeans", pipeline.adaptive_kmeans))
        _fail_the_background_write(patch)
        # cluster's params match: its cached check waits for the writer
        with pytest.raises(StageError, match=BACKGROUND_WRITE_FAILED):
            _run(config)
    assert len(writers) == 2 and clustered == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    for name in STAGES["ingest"].outputs:
        assert not (out / name).exists(), name
    assert Manifest(out).entry("ingest") is None
    assert [r.status for r in _run(config).results] == ["ran"] + ["cached"] * 4
    assert _files(out) == whole


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process groups from /proc")
def test_an_interrupt_beside_the_background_write_kills_it_and_a_rerun_is_whole(
    smoke_corpus, tmp_path, forks, writers
):
    out = tmp_path / "out"
    config = smoke_config(smoke_corpus, out, threads=2)
    _run(config)
    whole = _files(out)
    shutil.rmtree(out)
    parent, blocks = os.getpid(), ingest.KeyedTable._csv_blocks

    def hanging(self, lo, hi, *columns):  # the writer's second range never ends
        if os.getpid() != parent and lo:
            time.sleep(60)
        return blocks(self, lo, hi, *columns)

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest.KeyedTable, "_csv_blocks", hanging)
        patch.setattr(pipeline, "adaptive_kmeans", interrupted)
        with pytest.raises(KeyboardInterrupt):
            _run(config)
    assert len(writers) == 2
    assert _alive_in_group(writers[1]) == []  # the writer and the child it forked
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(out.iterdir()) == []
    assert [r.status for r in _run(config).results] == ["ran"] * 5
    assert _files(out) == whole


def test_only_a_run_with_threads_and_a_later_shapes_reader_writes_in_the_background(
    smoke_corpus, tmp_path, forks, writers
):
    _run(smoke_config(smoke_corpus, tmp_path / "one", threads=1))
    _run(smoke_config(smoke_corpus, tmp_path / "alone", threads=2, stages=("ingest",)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for stage in _STAGE_FNS.values():
            assert stage(smoke_config(smoke_corpus, tmp_path / "staged", threads=2)).status == "ran"
    assert writers == []
    _run(smoke_config(smoke_corpus, tmp_path / "two", threads=2))
    assert len(writers) == 1
    for out in ("alone", "staged", "two"):
        assert filecmp.cmp(tmp_path / "one" / "shapes.csv", tmp_path / out / "shapes.csv",
                           shallow=False), out


def test_a_cold_run_records_the_same_manifest_with_a_background_write(
    smoke_corpus, tmp_path, forks, writers
):
    for threads in (1, 2):
        _run(smoke_config(smoke_corpus, tmp_path / f"threads{threads}", threads=threads))
    assert len(writers) == 1
    assert _files(tmp_path / "threads1") == _files(tmp_path / "threads2")


def test_a_second_thread_keeps_the_write_of_shapes_csv_in_the_foreground(
    smoke_corpus, tmp_path, forks, writers
):
    # a fork beside another thread could hand the child a lock that thread holds
    _run(smoke_config(smoke_corpus, tmp_path / "threads1", threads=1))
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        _run(smoke_config(smoke_corpus, tmp_path / "threads2", threads=2))
    finally:
        release.set()
        other.join()
    assert forks == [] and writers == []
    assert _files(tmp_path / "threads1") == _files(tmp_path / "threads2")


def test_a_cut_shapes_csv_is_rebuilt_in_the_background_and_the_rest_stays_cached(
    smoke_corpus, tmp_path, forks, writers
):
    out = tmp_path / "out"
    config = smoke_config(smoke_corpus, out, threads=2)
    _run(config)
    whole = _files(out)
    shapes = (out / "shapes.csv").read_bytes()
    (out / "shapes.csv").write_bytes(shapes[: len(shapes) // 3])
    # cluster's entry matches on params: it joins the writer for its cached check
    assert [r.status for r in _run(config).results] == ["ran"] + ["cached"] * 4
    assert len(writers) == 2
    assert _files(out) == whole
    assert [r.status for r in _run(config).results] == ["cached"] * 5


def test_a_parse_beside_the_background_write_never_reads_shapes_csv(
    smoke_corpus, tmp_path, monkeypatch, forks, writers
):
    """While shapes.csv is written, every stage takes ingest's table, so
    the other parsers run beside the write and only the end of the last
    selected stage waits for it."""
    caches, events = [], []
    init = RunCache.__init__

    def noted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        caches.append(self)

    def event(name, fn):
        def traced(*args, **kwargs):
            if name != "join" or caches[-1].writing:  # a join with nothing to wait for is none
                events.append((name, bool(caches[-1].writing)))
            return fn(*args, **kwargs)

        return traced

    monkeypatch.setattr(RunCache, "__init__", noted)
    monkeypatch.setattr(RunCache, "join", event("join", RunCache.join))
    for owner, name in ((pipeline, "load_model"), (pipeline, "load_dictionary"),
                        (AssignmentTable, "read_csv"), (pipeline, "truncate"),
                        (analytics, "occurrence_map")):  # the last two: the end of a body
        monkeypatch.setattr(owner, name, event(name, getattr(owner, name)))
    parse = ShapeTable._parse_csv
    monkeypatch.setattr(ShapeTable, "_parse_csv",
                        classmethod(event("_parse_csv", lambda cls, path: parse(path))))
    runs = [(("ingest", "analyze"), {"coverage_weight": "discretionary"},
             ["load_dictionary", "read_csv", "occurrence_map"]),
            (("ingest", "truncate"), {"truncate_violation": 0.2}, ["load_model", "truncate"])]
    outs = [tmp_path / "threads1", tmp_path / "threads2"]
    for threads, out in enumerate(outs, start=1):
        _run(smoke_config(smoke_corpus, out, threads=threads))
        for stages, changed, calls in runs:
            (out / "shapes.csv").unlink()
            events.clear()
            result = _run(smoke_config(smoke_corpus, out, threads=threads, stages=stages,
                                       **changed))
            assert [r.status for r in result.results] == ["ran", "ran"]
            beside = threads == 2  # the parses run while the write does, then one join
            assert events == [(name, beside) for name in calls] + [("join", True)] * beside
    assert len(writers) == 3
    assert _files(outs[0]) == _files(outs[1])


def test_analytics_carry_run_id_provenance(smoke_run):
    config, out, result = smoke_run
    first = (out / "entropy_by_stratum.csv").read_text().splitlines()[0]
    assert first.startswith("#")
    assert result.run_id in first
    digest = json.loads((out / "dictionary.json").read_text())["digest"]
    assert digest in first


def test_analyze_reads_dictionary_json_once(smoke_corpus, smoke_run, tmp_path,
                                            monkeypatch):
    _, out, _ = smoke_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if not isinstance(file, int):
            opened.append((Path(file).name, args[0] if args else kwargs.get("mode", "r")))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert stage_analyze(smoke_config(smoke_corpus, copy)).status == "ran"
    monkeypatch.undo()
    # parsed once, by load_dictionary, which also verifies the digest
    assert opened.count(("dictionary.json", "r")) == 1
    for name in ARTIFACTS:
        assert filecmp.cmp(out / name, copy / name, shallow=False), name


def test_cli_synth_deterministic(tmp_path, capsys):
    args = ["synth", "--seed", "7", "--households", "20", "--days", "10",
            "--archetypes", "4"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("meter.csv", "weather.csv", "survey.csv", "truth.csv"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False)


def test_cli_full_run_and_stage_commands(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    assert main(["synth", "--seed", "3", "--households", "30", "--days", "30",
                 "--archetypes", "4", "--noise", "0.1", "--outlier-rate", "0.1",
                 "--out", str(corpus_dir)]) == 0
    out = tmp_path / "out"
    base = [
        "--meter", str(corpus_dir / "meter.csv"),
        "--weather", str(corpus_dir / "weather.csv"),
        "--survey", str(corpus_dir / "survey.csv"),
        "--out", str(out), "--seed", "5", "--sample", "500",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["run"] + base) == 0
    captured = capsys.readouterr().out
    assert "analyze: ran" in captured
    assert "run_id:" in captured

    # single stage rerun reports cached
    assert main(["assign"] + base) == 0
    assert "assign: cached" in capsys.readouterr().out


def test_cli_truncate_violation_monotonicity(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    main(["synth", "--seed", "9", "--households", "40", "--days", "40",
          "--archetypes", "5", "--noise", "0.08", "--outlier-rate", "0.15",
          "--fuzz-rate", "0.03", "--out", str(corpus_dir)])
    out = tmp_path / "out"
    base = [
        "--meter", str(corpus_dir / "meter.csv"),
        "--weather", str(corpus_dir / "weather.csv"),
        "--out", str(out), "--seed", "5", "--sample", "1000",
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["ingest"] + base) == 0
        assert main(["cluster"] + base) == 0
        sizes = {}
        for v in ("0.10", "0.30"):
            assert main(["truncate"] + base + ["--truncate-violation", v]) == 0
            payload = json.loads((out / "dictionary.json").read_text())
            sizes[v] = len(payload["ids"])
    assert sizes["0.10"] >= sizes["0.30"]


def test_cli_config_error_exit_code(tmp_path, capsys):
    code = main(["run", "--meter", "x.csv", "--out", str(tmp_path), "--seed",
                 "1", "--theta", "0"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "synth"])
def test_cli_missing_config_file_is_a_config_error(tmp_path, capsys, command):
    missing = tmp_path / "nope.cfg"
    out = ["--out", str(tmp_path / "x")] if command == "synth" else []
    assert main([command, "--config", str(missing), "--seed", "1", *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "nope.cfg" in err
    assert not (tmp_path / "x").exists()
    with pytest.raises(ConfigError, match="nope.cfg: cannot read config file"):
        RunConfig.from_file(missing)


def test_cli_non_finite_theta_is_a_config_error(tmp_path, capsys):
    code = main(["run", "--meter", "x.csv", "--out", str(tmp_path), "--seed",
                 "1", "--theta", "nan"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_stage_error_exit_code(tmp_path, capsys):
    code = main(["analyze", "--out", str(tmp_path), "--seed", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "analyze" in err and "shapes.csv" in err


def test_pipeline_stage_selector_subset(smoke_corpus, tmp_path):
    out = tmp_path / "sel"
    config = smoke_config(smoke_corpus, out, stages=("ingest",))
    result = run_pipeline(config)
    assert [r.stage for r in result.results] == ["ingest"]
    assert (out / "shapes.csv").exists()
    assert not (out / "model.json").exists()


@pytest.fixture
def shape_reads(monkeypatch):
    """Paths that ShapeTable.read_csv parses while the test runs."""
    calls = []
    parse = ShapeTable._parse_csv

    def counted(cls, path):
        calls.append(path)
        return parse(path)

    monkeypatch.setattr(ShapeTable, "_parse_csv", classmethod(counted))
    return calls


def _data_rows(path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if not line.startswith("#")) - 1


def test_run_parses_shapes_csv_at_most_once(smoke_corpus, tmp_path, shape_reads):
    out = tmp_path / "memo"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_pipeline(smoke_config(smoke_corpus, out, sample=500))
        assert shape_reads == []  # every stage takes the table ingest wrote

        # ingest cached: cluster parses shapes.csv, the later stages reuse it
        result = run_pipeline(smoke_config(smoke_corpus, out, sample=500, theta=0.25))
        assert [r.status for r in result.results] == ["cached"] + ["ran"] * 4
        assert len(shape_reads) == 1

        shape_reads.clear()
        config = smoke_config(smoke_corpus, out, sample=500, theta=0.25,
                              truncate_violation=0.2)
        assert stage_truncate(config).status == "ran"
        assert len(shape_reads) == 1


@pytest.mark.parametrize("threads", [1, 2])
def test_stage_by_stage_run_matches_pipeline_artifacts(smoke_corpus, smoke_run, tmp_path_factory,
                                                       monkeypatch, forks, threads):
    # each standalone stage parses shapes.csv; the pipeline (threads 1) hands its table on.
    # At threads 2 ingest parses the meter file in two ranges, whatever its size, and
    # shapes.csv and assignments.csv are written in shards: three forks
    monkeypatch.setattr(ingest, "FORK_MIN_BYTES", 1)
    _, piped, _ = smoke_run
    # beside the piped run, so both manifests record the same relative input paths
    out = tmp_path_factory.mktemp("staged")
    assert os.path.relpath(smoke_corpus["meter"], out) == os.path.relpath(
        smoke_corpus["meter"], piped)
    config = smoke_config(smoke_corpus, out, threads=threads)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for stage in (stage_ingest, stage_cluster, stage_truncate, stage_assign,
                      stage_analyze):
            assert stage(config).status == "ran"
    assert len(forks) == (0 if threads == 1 else 3)
    for name in (*ARTIFACTS, "run_manifest.json"):
        assert filecmp.cmp(piped / name, out / name, shallow=False), name


def _keep_every_other_shape(path) -> int:
    table = ShapeTable.read_csv(path)
    table.take(np.arange(0, len(table), 2)).write_csv(path)
    return (len(table) + 1) // 2


def test_rewritten_shapes_reach_later_stages_within_a_run(
    smoke_corpus, tmp_path, shape_reads
):
    out = tmp_path / "tamper"
    config = smoke_config(smoke_corpus, out, sample=300)
    cache = RunCache()
    stage_ingest(config, cache=cache)
    kept = _keep_every_other_shape(out / "shapes.csv")
    shape_reads.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for stage in (stage_cluster, stage_truncate, stage_assign, stage_analyze):
            assert stage(config, cache=cache).status == "ran"
    assert len(shape_reads) == 1  # the digest changed: cluster misses the cache
    assert _data_rows(out / "assignments.csv") == kept
    tables = [obj for key, obj in cache.objects.items() if key[0] == "shapes"]
    assert len(tables) == 2
    for table in tables:
        assert not any(column.flags.writeable for column in (
            table.values, table.household_ids, table.dates,
            table.day_total_kwh, table.discretionary_kwh))


def test_rewritten_shapes_are_rebuilt_by_ingest_of_next_run(smoke_corpus, tmp_path):
    out = tmp_path / "tamper2"
    config = smoke_config(smoke_corpus, out, sample=300)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_pipeline(config)
        rows = _data_rows(out / "assignments.csv")
        _keep_every_other_shape(out / "shapes.csv")
        result = run_pipeline(config)
    assert [r.status for r in result.results] == ["ran"] + ["cached"] * 4
    assert _data_rows(out / "shapes.csv") == _data_rows(out / "assignments.csv") == rows



def test_truncate_rejects_a_labels_key_listed_twice(smoke_corpus, tmp_path):
    # a labels.csv row overwritten by a copy of another row of its cluster
    # keeps every cluster count, so only the key join can notice it
    out = tmp_path / "dup"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_pipeline(smoke_config(smoke_corpus, out, sample=300,
                                  stages=("ingest", "cluster")))
    lines = (out / "labels.csv").read_text().splitlines(keepends=True)
    hid, date, cid = lines[1].rstrip("\r\n").split(",")
    twin = next(i for i in range(2, len(lines))
                if lines[i].rstrip("\r\n").endswith(f",{cid}"))
    lines[twin] = lines[1]
    (out / "labels.csv").write_text("".join(lines))
    with pytest.raises(StageError, match=f"{hid}.*{date}.*twice"):
        stage_truncate(smoke_config(smoke_corpus, out, sample=300))
    assert not (out / "dictionary.json").exists()


@pytest.mark.parametrize("error", [EmptyInputError("too few households"),
                                   RuntimeError("boom")])
def test_analyze_skips_only_unusable_indicators(
    smoke_corpus, smoke_run, tmp_path, monkeypatch, error
):
    _, out, _ = smoke_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    config = smoke_config(smoke_corpus, copy)

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(analytics, "characteristic_entropy_delta", fail)
    if isinstance(error, EmptyInputError):
        assert stage_analyze(config).status == "ran"
        assert _data_rows(copy / "char_deltas.csv") == 0
    else:
        with pytest.raises(StageError, match="boom") as err:
            stage_analyze(config)
        assert err.value.stage == "analyze"
        assert not (copy / "char_deltas.csv").exists()


@pytest.mark.parametrize("flags, key", [
    (["synth", "--bias", "children_in_home=abc"], "bias.children_in_home"),
    (["synth", "--start-date", "2011-13-01"], "start_date"),
    (["synth", "--config", "{cfg}"], "days"),
    (["run", "--theta", "abc"], "theta"),
    (["run", "--coverage-weight", "foo"], "coverage_weight"),
    (["run", "--quartiles", "fixed:76,71,68"], "quartiles"),
    (["cluster", "--sample", "many"], "sample"),
    (["run", "--k-init", "0"], "k_init"),
    (["cluster", "--seed", "-1"], "seed"),
    (["run", "--theta", "-1"], "theta"),
])
def test_cli_synth_bad_value_is_a_configuration_error(tmp_path, capsys, flags, key):
    """``flags`` starts with the subcommand; a value its key cannot take
    fails the same way from a flag or a config file, for every command,
    before any stage runs."""
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("households=5\ndays=ten\n")
    command, *flags = [f.format(cfg=cfg) for f in flags]
    # the given flags come last, so they win over the default seed
    code = main([command, "--seed", "1", "--out", str(tmp_path / "x"), *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error")
    assert f"'{key}'" in err


def test_failed_stage_command_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "fresh"
    assert main(["truncate", "--seed", "1", "--out", str(out)]) == 1
    assert "run `ingest` first" in capsys.readouterr().err
    assert main(["ingest", "--seed", "1", "--out", str(out),
                 "--meter", str(tmp_path / "missing.csv")]) == 1
    assert "input file not found" in capsys.readouterr().err
    assert main(["ingest", "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: stage 'ingest': no meter file configured\n"
    assert not out.exists()


@pytest.mark.parametrize("source", ["meter", "weather"])
@pytest.mark.parametrize("command", ["run", "ingest"])
def test_an_input_directory_fails_ingest_without_an_output_directory(
        smoke_corpus, tmp_path, capsys, command, source):
    out = tmp_path / "fresh"
    inputs = {"meter": smoke_corpus["meter"], source: tmp_path}
    flags = [arg for name, path in inputs.items() for arg in (f"--{name}", str(path))]
    assert main([command, "--seed", "1", "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: stage 'ingest': input file not found: {tmp_path}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "ingest"])
def test_an_out_path_naming_a_file_fails_ingest(smoke_corpus, tmp_path, capsys, command):
    out = tmp_path / "taken.txt"
    out.write_text("not a directory\n")
    assert main([command, "--seed", "1", "--out", str(out),
                 "--meter", str(smoke_corpus["meter"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: stage 'ingest': cannot make output directory {out} (")
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["cluster", "truncate", "assign", "analyze"])
def test_an_out_path_naming_a_file_fails_a_reading_stage_as_mkdir_would(tmp_path, capsys,
                                                                         command):
    # no ingest run could make a file a directory: the upstream checks must not blame it
    out = tmp_path / "taken.txt"
    out.write_text("not a directory\n")
    assert main([command, "--seed", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: stage '{command}': cannot make output directory {out} "
                   "(File exists)\n")
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["run", *PIPELINE_STAGES])
def test_an_out_path_under_a_file_fails_every_stage_as_mkdir_would(smoke_corpus, tmp_path,
                                                                   capsys, command):
    taken = tmp_path / "taken.txt"
    taken.write_text("not a directory\n")
    out = taken / "sub"
    assert main([command, "--seed", "1", "--out", str(out),
                 "--meter", str(smoke_corpus["meter"])]) == 1
    stage = "ingest" if command == "run" else command
    assert capsys.readouterr().err == (f"error: stage '{stage}': cannot make output "
                                       f"directory {out} (Not a directory)\n")
    assert taken.read_text() == "not a directory\n"


def test_a_refused_mkdir_fails_the_stage_with_its_reason(smoke_corpus, tmp_path, monkeypatch):
    # patched in, since a test run as root makes directories in spite of their modes
    def refused(self, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))

    out = tmp_path / "out"
    monkeypatch.setattr(Path, "mkdir", refused)
    with pytest.raises(StageError, match=rf"^stage 'ingest': cannot make output directory "
                                         rf"{re.escape(str(out))} \(Permission denied\)$"):
        stage_ingest(smoke_config(smoke_corpus, out))
    assert not out.exists()


def test_an_empty_meter_file_fails_ingest(tmp_path, capsys):
    meter = tmp_path / "meter.csv"
    meter.write_bytes(b"")
    assert main(["ingest", "--seed", "1", "--out", str(tmp_path / "out"),
                 "--meter", str(meter)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: stage 'ingest': {meter}: file is empty")


def test_manifest_write_failure_keeps_previous_manifest(tmp_path, monkeypatch):
    manifest = Manifest(tmp_path)
    manifest.update("ingest", {"params_hash": "a", "inputs": {}, "outputs": []})
    before = (tmp_path / MANIFEST_NAME).read_text()

    def torn_dump(obj, fh, **kwargs):
        fh.write('{"stages": {"cluster"')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", torn_dump)
    with pytest.raises(OSError, match="disk full"):
        manifest.update("cluster", {"params_hash": "b", "inputs": {}, "outputs": []})
    with pytest.raises(OSError, match="disk full"):
        manifest.drop("ingest")
    monkeypatch.undo()
    assert (tmp_path / MANIFEST_NAME).read_text() == before
    assert Manifest(tmp_path).entry("ingest")["params_hash"] == "a"
    assert [p.name for p in tmp_path.iterdir()] == [MANIFEST_NAME]


def test_cli_stage_commands_follow_the_stage_table():
    (subcommands,) = [action.choices for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    assert [name for name in subcommands if name not in ("run", "synth")] == list(
        PIPELINE_STAGES)
    assert list(_STAGE_FNS) == list(PIPELINE_STAGES)


RUN_FLAGS = {"--config", "--meter", "--weather", "--survey", "--out", "--theta",
             "--merge-violation", "--truncate-violation", "--sample", "--seed",
             "--threads", "--quartiles", "--coverage-weight", "--meter-schema",
             "--k-init"}
SYNTH_FLAGS = {"--config", "--out", "--seed", "--schema", "--households", "--days",
               "--archetypes", "--start-date", "--noise-level", "--temperature-response",
               "--outlier-rate", "--fuzz-rate", "--bad-day-rate", "--base-entropy", "--bias"}


def test_cli_flag_sets_and_flags_over_config_files(tmp_path, monkeypatch, capsys):
    (subcommands,) = [action.choices for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    for name, parser in subcommands.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert flags - {"-h", "--help"} == (SYNTH_FLAGS if name == "synth" else RUN_FLAGS), name

    generated = []

    def spy(config, seed):
        generated.append(config)
        return generate_synthetic(config, seed)

    monkeypatch.setattr(cli, "generate_synthetic", spy)
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("households=4\ndays=40\nnoise_level=0.3\n"
                   "bias.elderly=0.2\nbias.electric_dryer=0.1\n")
    assert main(["synth", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "c"),
                 "--days", "3", "--noise", "0.01", "--bias", "electric_dryer=-0.4"]) == 0
    # file keys the flags leave alone stay; a flag wins, bias entry by entry
    assert generated == [GeneratorConfig(households=4, days=3, noise_level=0.01, entropy_bias={
        "elderly": 0.2, "electric_dryer": -0.4})]

    cfg.write_text("theta=0.25\nseed=11\nstages=ingest\n")
    args = build_parser().parse_args(["run", "--config", str(cfg), "--theta", "0.5"])
    assert config_from(RunConfig, args, ConfigError) == RunConfig(
        theta=0.5, seed=11, stages=("ingest",))


def test_run_config_file_round_trip(tmp_path):
    config = RunConfig(
        meter="m.csv", weather="w.csv", survey="s.csv", out="results",
        theta=0.125, merge_violation=0.01, truncate_violation=0.2, sample=777,
        seed=13, threads=2, quartiles="fixed:68,71,76",
        coverage_weight="discretionary", meter_schema="long", k_init=7,
        stages=("ingest", "cluster"),
    )
    default = RunConfig()
    assert all(getattr(config, f.name) != getattr(default, f.name)
               for f in dataclasses.fields(RunConfig))
    lines = ["meter=m.csv", "weather=w.csv", "survey=s.csv", "out=results", "theta=0.125",
             "merge_violation=0.01", "truncate_violation=0.2", "sample=777", "seed=13",
             "threads=2", "quartiles=fixed:68,71,76", "coverage_weight=discretionary",
             "meter_schema=long", "k_init=7", "stages=ingest, cluster"]
    assert [line.split("=", 1)[0] for line in lines] == [
        f.name for f in dataclasses.fields(RunConfig)]
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert RunConfig.from_file(path) == config


@pytest.mark.parametrize("key", ["theta", "merge_violation", "truncate_violation",
                                 "sample", "seed", "threads", "k_init"])
def test_run_config_bad_value_names_the_key(tmp_path, key):
    path = tmp_path / "run.cfg"
    path.write_text(f"seed=1\n{key}=abc\n")
    with pytest.raises(ConfigError, match=f"config key '{key}': bad value 'abc'"):
        RunConfig.from_file(path)


def test_a_config_file_skips_blank_and_comment_lines_and_names_a_line_without_a_key(
    tmp_path, capsys
):
    path = tmp_path / "run.cfg"
    path.write_text("# the smoke settings\n\nseed=11\n  # indented\nsample=500\n")
    assert RunConfig.from_file(path) == RunConfig(seed=11, sample=500)
    path.write_text("seed=11\n\nsample 500\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"configuration error: {path}:3: expected key=value\n"
    assert not (tmp_path / "out").exists()


def test_damaged_manifest_is_treated_as_empty(smoke_corpus, smoke_run, tmp_path):
    _, out, _ = smoke_run
    copy = tmp_path / "damaged"
    shutil.copytree(out, copy)
    manifest = copy / MANIFEST_NAME
    manifest.write_bytes(manifest.read_bytes()[:100])
    config = smoke_config(smoke_corpus, copy)
    with pytest.warns(UserWarning, match=MANIFEST_NAME):
        result = run_pipeline(config)
    assert [r.status for r in result.results] == ["ran"] * 5
    assert set(json.loads(manifest.read_text())["stages"]) == set(PIPELINE_STAGES)
    assert [r.status for r in run_pipeline(config).results] == ["cached"] * 5
    for name in ARTIFACTS:
        assert filecmp.cmp(out / name, copy / name, shallow=False), name


@pytest.mark.parametrize("text", ['["stages"]', '{"stages": []}', '{"other": {}}'])
def test_manifest_without_a_stages_dict_is_treated_as_empty(tmp_path, text):
    (tmp_path / MANIFEST_NAME).write_text(text)
    with pytest.warns(UserWarning, match=MANIFEST_NAME):
        manifest = Manifest(tmp_path)
    assert manifest.entry("ingest") is None


def _cut_after_data_row(path, row: int) -> None:
    """Keep the header and ``row - 1`` data rows whole, then half of data
    row ``row``: a write cut short."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:row]) + lines[row][: len(lines[row]) // 2])


@pytest.mark.parametrize("stage, name, damage, message", [
    (stage_analyze, "assignments.csv", "empty", "no header"),
    (stage_analyze, "assignments.csv", "cut", "data row 4: expected 5 cells"),
    (stage_truncate, "labels.csv", "empty", "no header"),
    (stage_truncate, "labels.csv", "cut", "data row 4: expected 3 cells"),
    (stage_cluster, "shapes.csv", "empty", "no header"),
    (stage_cluster, "shapes.csv", "cut", "data row 4: expected 28 cells"),
])
def test_truncated_artifact_names_file_and_row(smoke_corpus, smoke_run, tmp_path,
                                               stage, name, damage, message):
    _, out, _ = smoke_run
    copy = tmp_path / "cut"
    shutil.copytree(out, copy)
    if damage == "empty":
        (copy / name).write_text("")
    else:
        _cut_after_data_row(copy / name, 4)
    with pytest.raises(StageError, match=f"{name}: {message}"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stage(smoke_config(smoke_corpus, copy))


@pytest.fixture
def digests(monkeypatch):
    """Names of the files the pipeline hashes while the test runs."""
    names = []
    digest = pipeline._file_digest

    def counted(path):
        names.append(Path(path).name)
        return digest(path)

    monkeypatch.setattr(pipeline, "_file_digest", counted)
    return names


FILES_OF_A_RUN = sorted(["assignments.csv", "dictionary.json", "labels.csv", "meter.csv",
                         "model.json", "shapes.csv", "survey.csv", "weather.csv",
                         # outputs that no later stage reads
                         "cleaning_report.csv", "ingest_report.json",
                         "entropy_by_stratum.csv", "coverage_curve.csv", "taxonomy.csv",
                         "household_entropy.csv", "char_deltas.csv", "occurrence_map.csv"])


def test_cold_run_and_cached_rerun_digest_each_file_once(smoke_corpus, tmp_path, digests):
    config = smoke_config(smoke_corpus, tmp_path / "once")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert [r.status for r in run_pipeline(config).results] == ["ran"] * 5
    assert sorted(digests) == FILES_OF_A_RUN
    digests.clear()
    assert [r.status for r in run_pipeline(config).results] == ["cached"] * 5
    assert sorted(digests) == FILES_OF_A_RUN


def _analyze_without_a_summer_date(smoke_corpus, smoke_run, tmp_path) -> tuple:
    """Analyze a copy of the smoke run with the weather file's first summer
    date left out: the output directory and that date."""
    _, out, _ = smoke_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    lines = Path(smoke_corpus["weather"]).read_text().splitlines(keepends=True)
    cut = next(i for i, line in enumerate(lines[1:], 1) if line[5:7] in ("06", "07", "08"))
    (tmp_path / "weather.csv").write_text("".join(lines[:cut] + lines[cut + 1:]))
    config = smoke_config(smoke_corpus, copy, weather=str(tmp_path / "weather.csv"))
    assert stage_analyze(config).status == "ran"
    return copy, lines[cut].split(",")[0]


def test_a_cached_check_on_changed_inputs_hashes_no_output(smoke_corpus, smoke_run,
                                                           tmp_path, digests):
    _analyze_without_a_summer_date(smoke_corpus, smoke_run, tmp_path)
    # the inputs once, for the check; the meter file for the run id; each
    # output once, after the stage ran
    assert sorted(digests) == sorted(["shapes.csv", "dictionary.json", "assignments.csv",
                                      "weather.csv", "survey.csv", "meter.csv",
                                      *STAGES["analyze"].outputs])


def test_analyze_records_why_it_skipped_the_temperature_strata(smoke_corpus, smoke_run,
                                                              tmp_path):
    copy, date = _analyze_without_a_summer_date(smoke_corpus, smoke_run, tmp_path)
    for name in STAGES["analyze"].outputs:
        first = (copy / name).read_text().splitlines()[0]
        provenance = json.loads(first.removeprefix("# "))
        assert provenance["temperature_strata_skipped"] == (
            f"weather missing for 1 dates, e.g. {date}"), name
        assert "temperature_boundaries" not in provenance
    _, out, _ = smoke_run
    assert "\ntemperature," in (out / "entropy_by_stratum.csv").read_text()
    assert "\ntemperature," not in (copy / "entropy_by_stratum.csv").read_text()


def _counting(calls: list, name: str, fn):
    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return counted


def test_cold_run_parses_only_its_inputs(smoke_corpus, tmp_path, shape_reads,
                                         monkeypatch):
    parsed = []
    for name in ("read_weather", "read_survey", "load_model", "load_dictionary"):
        monkeypatch.setattr(pipeline, name, _counting(parsed, name, getattr(pipeline, name)))
    monkeypatch.setattr(AssignmentTable, "read_csv",
                        _counting(parsed, "read_csv", AssignmentTable.read_csv))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_pipeline(smoke_config(smoke_corpus, tmp_path / "parsed"))
    assert sorted(parsed) == ["read_survey", "read_weather"]  # by ingest only
    assert shape_reads == []


def _read_only(obj) -> bool:
    """Every array, mapping and sequence reachable through ``obj``'s
    attributes and items refuses writes."""
    if isinstance(obj, np.ndarray):
        return not obj.flags.writeable
    if isinstance(obj, (str, int, float, type(None), dt.date)):
        return True
    if isinstance(obj, (list, dict)):
        return False
    if isinstance(obj, tuple):
        return all(map(_read_only, obj))
    if isinstance(obj, MappingProxyType):
        return all(map(_read_only, obj.values()))
    return all(map(_read_only, vars(obj).values()))


def test_handed_over_objects_are_read_only(smoke_corpus, tmp_path):
    config = smoke_config(smoke_corpus, tmp_path / "frozen", sample=300)
    cache = RunCache()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for stage in _STAGE_FNS.values():
            assert stage(config, cache=cache).status == "ran"
    kinds = sorted(key[0] for key in cache.objects)
    assert kinds == ["assignments", "dictionary", "model", "shapes", "survey", "weather"]
    for key, obj in cache.objects.items():
        assert _read_only(obj), key[0]
    (model,) = [obj for key, obj in cache.objects.items() if key[0] == "model"]
    with pytest.raises(TypeError):
        model.meta["k2"] = 0
    with pytest.raises(ValueError, match="read-only"):
        model.labels[0] = 1
    (dictionary,) = [obj for key, obj in cache.objects.items() if key[0] == "dictionary"]
    with pytest.raises(TypeError):
        dictionary.provenance["model_meta"]["k2"] = 0
    assert isinstance(dictionary.provenance["source_cluster_ids"], tuple)


def test_truncate_stage_checks_the_dictionary_it_hands_over(smoke_corpus, smoke_run,
                                                            tmp_path, monkeypatch):
    """A cold run hands the dictionary to assign without load_dictionary, so
    the truncate stage checks its invariants before saving it."""
    _, out, _ = smoke_run
    copy = tmp_path / "unordered"
    shutil.copytree(out, copy)
    truncate = pipeline.truncate

    def unordered(model, v):
        dictionary = truncate(model, v)
        dictionary.member_kwh = dictionary.member_kwh[::-1].copy()
        return dictionary

    monkeypatch.setattr(pipeline, "truncate", unordered)
    config = smoke_config(smoke_corpus, copy, truncate_violation=0.25)
    with pytest.raises(StageError, match="not ordered by descending member kWh"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stage_truncate(config, cache=RunCache())
    assert not (copy / "dictionary.json").exists()


def test_artifact_rewritten_between_stages_is_digested_and_parsed_again(
    smoke_corpus, smoke_run, tmp_path, digests, monkeypatch
):
    out = tmp_path / "rewrite"
    config = smoke_config(smoke_corpus, out)
    cache = RunCache()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for stage in (stage_ingest, stage_cluster, stage_truncate):
            assert stage(config, cache=cache).status == "ran"
    # the same dictionary in other bytes: a new digest, the same results
    payload = json.loads((out / "dictionary.json").read_text())
    (out / "dictionary.json").write_text(json.dumps(payload, indent=2))
    loads = []
    monkeypatch.setattr(pipeline, "load_dictionary",
                        _counting(loads, "load_dictionary", pipeline.load_dictionary))
    digests.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for stage in (stage_assign, stage_analyze):
            assert stage(config, cache=cache).status == "ran"
    assert loads == ["load_dictionary"]  # parsed by assign, handed to analyze
    assert digests.count("dictionary.json") == 1
    for name in ARTIFACTS:
        if name != "dictionary.json":
            assert filecmp.cmp(smoke_run[1] / name, out / name, shallow=False), name


def test_run_cache_trusts_the_stat_key_until_it_forgets(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("a,b\n")
    cache = RunCache()
    first = cache.digest(path)
    st = path.stat()
    path.write_text("c,d\n")  # same size and inode; the old mtime restored
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert cache.digest(path) == first
    cache.forget([tmp_path / "." / "f.csv"])
    assert cache.digest(path) == hashlib.sha256(b"c,d\n").hexdigest()


def test_a_running_stage_forgets_its_outputs(smoke_corpus, smoke_run, tmp_path,
                                             monkeypatch):
    _, out, _ = smoke_run
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    forgotten = []
    forget = RunCache.forget

    def recording(self, paths):
        paths = list(paths)
        forgotten.extend(p.name for p in paths)
        forget(self, paths)

    monkeypatch.setattr(RunCache, "forget", recording)
    config = smoke_config(smoke_corpus, copy, theta=0.25, truncate_violation=0.2)
    cache = RunCache()
    assert stage_cluster(config, cache=cache).status == "ran"  # new theta
    assert stage_truncate(config, cache=cache).status == "ran"
    assert forgotten == ["model.json", "labels.csv", "dictionary.json"]
    forgotten.clear()
    assert stage_truncate(config, cache=cache).status == "cached"
    assert forgotten == []


def test_handed_over_model_follows_the_shapes_it_was_joined_with(smoke_corpus, tmp_path):
    # model.json and labels.csv unchanged, shapes.csv rewritten with the
    # same keys: truncate must rejoin the labels with the new shapes
    out = tmp_path / "joined"
    config = smoke_config(smoke_corpus, out, sample=300)
    cache = RunCache()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for stage in (stage_ingest, stage_cluster):
            assert stage(config, cache=cache).status == "ran"
        table = ShapeTable.read_csv(out / "shapes.csv")
        ShapeTable(table.values[:, ::-1], table.household_ids, table.dates,
                   table.day_total_kwh, table.discretionary_kwh).write_csv(out / "shapes.csv")
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        assert stage_truncate(config, cache=cache).status == "ran"
        assert stage_truncate(smoke_config(smoke_corpus, copy, sample=300)).status == "ran"
    assert filecmp.cmp(out / "dictionary.json", copy / "dictionary.json", shallow=False)


def _killed_after_writing(monkeypatch, owner, attr, cut) -> None:
    """Make the CSV writer ``owner.attr`` stop as a run killed partway
    through it would: it writes its whole file, keeps ``cut(bytes)`` of it
    and raises KeyboardInterrupt, which no stage catches."""
    write = getattr(owner, attr)

    def killed(self, path, *args, **kwargs):
        write(self, path, *args, **kwargs)
        Path(path).write_bytes(cut(Path(path).read_bytes()))
        raise KeyboardInterrupt

    monkeypatch.setattr(owner, attr, killed)


def test_a_run_killed_while_writing_labels_reruns_cluster_only(
    smoke_corpus, tmp_path, monkeypatch
):
    out = tmp_path / "killed"
    config = smoke_config(smoke_corpus, out, sample=300)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_pipeline(config)
        whole = {name: (out / name).read_bytes() for name in ARTIFACTS}
        _killed_after_writing(monkeypatch, cluster._Labels, "_write_csv",
                              lambda data: data[: len(data) // 2])  # mid-row
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(dataclasses.replace(config, theta=0.25))
        monkeypatch.undo()
        result = run_pipeline(config)
    assert [r.status for r in result.results] == ["cached", "ran", "cached", "cached",
                                                  "cached"]
    assert {name: (out / name).read_bytes() for name in ARTIFACTS} == whole


def _kill_ingest_halfway(smoke_corpus, tmp_path, monkeypatch):
    """A whole run, then a run on a changed meter file killed halfway through
    shapes.csv at a row boundary, then the meter file as it was: the config
    and the data rows of the whole run's shapes.csv."""
    meter = tmp_path / "meter.csv"
    original = Path(smoke_corpus["meter"]).read_bytes()
    meter.write_bytes(original)
    config = smoke_config(smoke_corpus, tmp_path / "out", meter=str(meter), sample=300)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_pipeline(config)
        rows = _data_rows(tmp_path / "out" / "shapes.csv")
        meter.write_bytes(original[: original.rstrip().rfind(b"\n") + 1])  # one day less
        _killed_after_writing(monkeypatch, ShapeTable, "write_csv", lambda data: b"".join(
            data.splitlines(keepends=True)[: rows // 2 + 1]))
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(config)
    monkeypatch.undo()
    meter.write_bytes(original)
    assert _data_rows(tmp_path / "out" / "shapes.csv") == rows // 2
    return config, rows


def test_a_run_killed_while_writing_shapes_reruns_ingest(smoke_corpus, tmp_path,
                                                         monkeypatch):
    config, rows = _kill_ingest_halfway(smoke_corpus, tmp_path, monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_pipeline(config)
    assert [r.status for r in result.results] == ["ran"] + ["cached"] * 4
    assert _data_rows(Path(config.out) / "shapes.csv") == rows
    assert _data_rows(Path(config.out) / "assignments.csv") == rows


def test_an_unfinished_upstream_artifact_counts_as_missing(smoke_corpus, tmp_path,
                                                           monkeypatch):
    config, _ = _kill_ingest_halfway(smoke_corpus, tmp_path, monkeypatch)
    labels = (Path(config.out) / "labels.csv").read_bytes()
    with pytest.raises(StageError, match="'shapes.csv' is not finished; run `ingest` first"):
        stage_cluster(config)
    assert (Path(config.out) / "labels.csv").read_bytes() == labels


def test_upstream_artifacts_are_the_files_of_what_a_stage_reads():
    assert {name: stage.requires for name, stage in pipeline.STAGES.items()} == {
        "ingest": (),
        "cluster": ("shapes.csv",),
        "truncate": ("shapes.csv", "model.json", "labels.csv"),
        "assign": ("shapes.csv", "dictionary.json"),
        "analyze": ("shapes.csv", "dictionary.json", "assignments.csv"),
    }


def test_manifests_record_paths_relative_to_the_output_directory(smoke_corpus, tmp_path):
    outs = [tmp_path / "a", tmp_path / "a_longer_name"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for out in outs:
            run_pipeline(smoke_config(smoke_corpus, out, sample=300))
    first, second = ((out / MANIFEST_NAME).read_bytes() for out in outs)
    assert first == second
    inputs = json.loads(first)["stages"]["analyze"]["inputs"]
    assert sorted(inputs) == sorted(["shapes.csv", "dictionary.json", "assignments.csv"] + [
        os.path.relpath(smoke_corpus[kind], outs[0]) for kind in ("weather", "survey")])


def test_a_path_no_relative_path_reaches_is_recorded_as_given(smoke_corpus, tmp_path,
                                                             monkeypatch):
    def other_drive(path, start=None):
        raise ValueError("path is on mount 'D:', start on mount 'C:'")

    monkeypatch.setattr(os.path, "relpath", other_drive)
    config = smoke_config(smoke_corpus, tmp_path / "out")
    assert stage_ingest(config).status == "ran"
    monkeypatch.undo()
    inputs = Manifest(tmp_path / "out").entry("ingest")["inputs"]
    assert sorted(inputs) == sorted(str(smoke_corpus[kind])
                                    for kind in ("meter", "weather", "survey"))
