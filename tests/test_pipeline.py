import argparse
import builtins
import dataclasses
import filecmp
import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from loadshapes import analytics
from loadshapes.cli import build_parser, main
from loadshapes.config import write_config
from loadshapes.errors import ConfigError, EmptyInputError, StageError
from loadshapes.pipeline import (
    _STAGE_FNS,
    MANIFEST_NAME,
    PIPELINE_STAGES,
    Manifest,
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
                                       "fixed:-inf,71,76"])
def test_run_config_rejects_non_finite_quartiles(quartiles):
    with pytest.raises(ConfigError, match="quartiles"):
        RunConfig(seed=1, quartiles=quartiles).validate()


def test_run_config_file_with_flag_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "theta=0.25\nseed=11\nsample=500\nout=somewhere\n"
        "quartiles=fixed:68,71,76\n"
    )
    config = RunConfig.from_file(path, overrides={"theta": 0.4})
    assert config.theta == 0.4  # flag wins
    assert config.seed == 11
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


def test_stage_by_stage_run_matches_pipeline_artifacts(smoke_corpus, smoke_run, tmp_path):
    # each standalone stage parses shapes.csv; the pipeline hands its table on
    _, piped, _ = smoke_run
    out = tmp_path / "staged"
    config = smoke_config(smoke_corpus, out)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for stage in (stage_ingest, stage_cluster, stage_truncate, stage_assign,
                      stage_analyze):
            assert stage(config).status == "ran"
    for name in ARTIFACTS:
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
    memo: dict = {}
    stage_ingest(config, shapes_memo=memo)
    kept = _keep_every_other_shape(out / "shapes.csv")
    shape_reads.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for stage in (stage_cluster, stage_truncate, stage_assign, stage_analyze):
            assert stage(config, shapes_memo=memo).status == "ran"
    assert len(shape_reads) == 1  # the digest changed: cluster misses the memo
    assert _data_rows(out / "assignments.csv") == kept
    assert len(memo) == 2
    for table in memo.values():
        assert not any(column.flags.writeable for column in (
            table.values, table.household_ids, table.dates,
            table.day_total_kwh, table.discretionary_kwh))


def test_rewritten_shapes_reach_later_stages_of_next_run(smoke_corpus, tmp_path):
    out = tmp_path / "tamper2"
    config = smoke_config(smoke_corpus, out, sample=300)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_pipeline(config)
        kept = _keep_every_other_shape(out / "shapes.csv")
        result = run_pipeline(config)
    assert [r.status for r in result.results] == ["cached"] + ["ran"] * 4
    assert _data_rows(out / "assignments.csv") == kept



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
    (["--bias", "children_in_home=abc"], "bias.children_in_home"),
    (["--start-date", "2011-13-01"], "start_date"),
    (["--config", "{cfg}"], "days"),
])
def test_cli_synth_bad_value_is_a_configuration_error(tmp_path, capsys, flags, key):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("households=5\ndays=ten\n")
    flags = [f.format(cfg=cfg) for f in flags]
    code = main(["synth", "--seed", "1", "--out", str(tmp_path / "x")] + flags)
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
    assert not out.exists()


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
    path = tmp_path / "run.cfg"
    write_config(config, path)
    keys = [line.split("=", 1)[0] for line in path.read_text().splitlines()]
    assert keys == [f.name for f in dataclasses.fields(RunConfig)]
    assert RunConfig.from_file(path) == config


@pytest.mark.parametrize("key", ["theta", "merge_violation", "truncate_violation",
                                 "sample", "seed", "threads", "k_init"])
def test_run_config_bad_value_names_the_key(tmp_path, key):
    path = tmp_path / "run.cfg"
    path.write_text(f"seed=1\n{key}=abc\n")
    with pytest.raises(ConfigError, match=f"config key '{key}': bad value 'abc'"):
        RunConfig.from_file(path)
