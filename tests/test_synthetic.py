import argparse
import dataclasses
import datetime as dt
import filecmp
import math

import numpy as np
import pytest
from scipy import stats

from loadshapes import config
from loadshapes.analytics import build_frame, household_entropy
from loadshapes.cli import main
from loadshapes.config import config_from
from loadshapes.dictionary import AssignmentTable
from loadshapes.errors import CorruptArtifactError, GeneratorConfigError
from loadshapes.ingest import read_meter_corpus, read_survey, read_weather
from loadshapes.pipeline import RunConfig
from loadshapes.preprocess import preprocess_days
from loadshapes.synthetic import (
    COOLING_ARCHETYPE,
    GeneratorConfig,
    SyntheticTruth,
    archetype_shapes,
    generate_synthetic,
)


def truth_frame(corpus):
    """Assignments built from the generator's own archetype labels."""
    ok = corpus.truth.archetype_ids >= 0
    table = AssignmentTable(
        corpus.truth.household_ids[ok],
        corpus.truth.dates[ok],
        corpus.truth.archetype_ids[ok] + 1,
        np.zeros(int(ok.sum())),
        np.zeros(int(ok.sum())),
    )
    return build_frame(table, corpus.weather)


def test_archetypes_are_valid_shapes():
    for k in (2, 5, 9):
        shapes = archetype_shapes(k)
        assert shapes.shape == (k, 24)
        assert np.allclose(shapes.sum(axis=1), 1.0, atol=1e-12)
        assert (shapes.min(axis=1) == 0.0).all()
        d = np.sqrt(((shapes[:, None] - shapes[None]) ** 2).sum(-1))
        np.fill_diagonal(d, np.inf)
        assert d.min() > 0.25  # planted archetypes stay well separated


def test_cooling_archetype_peaks_in_tou_window():
    shapes = archetype_shapes(5)
    assert 16 <= shapes[COOLING_ARCHETYPE].argmax() < 19


def test_generator_determinism_byte_identical(tmp_path):
    cfg = GeneratorConfig(archetypes=5, households=200, days=90)
    a = generate_synthetic(cfg, seed=7).write(tmp_path / "a")
    b = generate_synthetic(cfg, seed=7).write(tmp_path / "b")
    for name in ("meter", "weather", "survey", "truth"):
        assert filecmp.cmp(a[name], b[name], shallow=False)
    c = generate_synthetic(cfg, seed=8).write(tmp_path / "c")
    assert not filecmp.cmp(a["meter"], c["meter"], shallow=False)


def test_generator_validation():
    with pytest.raises(GeneratorConfigError):
        GeneratorConfig(archetypes=1).validate()
    with pytest.raises(GeneratorConfigError):
        GeneratorConfig(days=0).validate()
    with pytest.raises(GeneratorConfigError):
        GeneratorConfig(entropy_bias={"owns_pool": 0.1}).validate()
    with pytest.raises(GeneratorConfigError):
        GeneratorConfig(outlier_rate=0.8, fuzz_rate=0.5).validate()
    with pytest.raises(GeneratorConfigError, match="at least one household"):
        GeneratorConfig(households=0).validate()
    for rate in ("outlier_rate", "fuzz_rate", "bad_day_rate"):
        with pytest.raises(GeneratorConfigError, match=r"rate -0.1 outside \[0, 1\]"):
            GeneratorConfig(**{rate: -0.1}).validate()
    with pytest.raises(GeneratorConfigError, match=r"rate 1.5 outside \[0, 1\]"):
        GeneratorConfig(bad_day_rate=1.5).validate()


@pytest.mark.parametrize("overrides", [
    {"noise_level": float("nan")},
    {"base_entropy": float("inf")},
    {"noise_level": float("nan"), "base_entropy": float("inf")},
    {"temperature_response": float("-inf")},
    {"outlier_rate": float("nan")},
    {"entropy_bias": {"elderly": float("nan")}},
])
def test_generator_validation_rejects_non_finite(overrides):
    with pytest.raises(GeneratorConfigError):
        GeneratorConfig(**overrides).validate()


def test_generated_files_parse_cleanly(tmp_path):
    cfg = GeneratorConfig(archetypes=4, households=30, days=20)
    corpus = generate_synthetic(cfg, seed=3)
    paths = corpus.write(tmp_path)
    days, diags = read_meter_corpus(paths["meter"])
    assert len(days) == 600 and diags == []
    weather, _ = read_weather(paths["weather"])
    assert len(weather) == 20
    survey, _ = read_survey(paths["survey"])
    assert len(survey) == 30
    truth = SyntheticTruth.read_csv(paths["truth"])
    assert len(truth.archetype_ids) == 600
    # truth rows align with meter rows
    assert list(zip(days.household_ids, days.dates)) == [
        (truth.household_ids[i], truth.dates[i]) for i in range(600)
    ]


@pytest.mark.parametrize("text, message", [
    ("household_id,date\r\nH1,2011-06-01\r\n", "header"),
    ("household_id,date,archetype_id\r\nH1,2011-06-01,2\r\nH1,2011-06-02\r\n",
     "data row 2: expected 3 cells, got 2"),
    ("household_id,date,archetype_id\r\nH1,2011-06-31,2\r\n",
     "data row 1: day is out of range"),
    ("household_id,date,archetype_id\r\nH1,2011-06-01,two\r\n",
     "data row 1: invalid literal for int"),
])
def test_damaged_truth_names_file_and_row(tmp_path, text, message):
    path = tmp_path / "truth.csv"
    path.write_text(text, newline="")
    with pytest.raises(CorruptArtifactError, match=f"truth.csv: {message}"):
        SyntheticTruth.read_csv(path)


def test_baseload_exercises_deminning():
    cfg = GeneratorConfig(archetypes=4, households=20, days=15, noise_level=0.0)
    corpus = generate_synthetic(cfg, seed=9)
    kwh = corpus.days.kwh
    assert kwh.min() >= cfg.baseload_low_kw  # baseload offset everywhere
    # with zero noise the preprocessed shapes recover the archetypes
    table, report = preprocess_days(corpus.days)
    assert report.retained == len(corpus.days)
    by_key = {
        (corpus.truth.household_ids[i], corpus.truth.dates[i]):
            int(corpus.truth.archetype_ids[i])
        for i in range(len(corpus.truth.archetype_ids))
    }
    for i in range(len(table)):
        arch = corpus.archetypes[by_key[(table.household_ids[i], table.dates[i])]]
        assert np.allclose(table.values[i], arch, atol=1e-9)


def test_bad_day_injection_hits_retention_target():
    cfg = GeneratorConfig(archetypes=5, households=150, days=100, bad_day_rate=0.06)
    corpus = generate_synthetic(cfg, seed=13)
    _, report = preprocess_days(corpus.days)
    assert report.retention_fraction == pytest.approx(0.94, abs=0.015)
    assert report.dropped_missing_hours > 0
    assert report.dropped_low_demand > 0


def test_zero_temperature_response_gives_independence():
    # chi-square over (temperature quartile x archetype) fails to reject
    # independence at alpha = 0.01
    cfg = GeneratorConfig(archetypes=5, households=300, days=120,
                          temperature_response=0.0)
    corpus = generate_synthetic(cfg, seed=77, include_meter=False)
    temps = {w.date: w.avg_temp_f for w in corpus.weather}
    t = np.array([temps[d] for d in corpus.truth.dates])
    bins = np.digitize(t, np.quantile(t, [0.25, 0.5, 0.75]))
    table = np.zeros((4, 5))
    np.add.at(table, (bins, corpus.truth.archetype_ids), 1)
    _, p, _, _ = stats.chi2_contingency(table)
    assert p > 0.01


def test_temperature_response_shifts_mass_to_cooling_archetype():
    cfg = GeneratorConfig(archetypes=5, households=300, days=120,
                          temperature_response=1.0)
    corpus = generate_synthetic(cfg, seed=77, include_meter=False)
    temps = {w.date: w.avg_temp_f for w in corpus.weather}
    t = np.array([temps[d] for d in corpus.truth.dates])
    hot = t >= np.quantile(t, 0.75)
    cool = t <= np.quantile(t, 0.25)
    cooling = corpus.truth.archetype_ids == COOLING_ARCHETYPE
    assert cooling[hot].mean() > cooling[cool].mean() + 0.2
    # and the dependence is overwhelming under a chi-square test
    bins = np.digitize(t, np.quantile(t, [0.25, 0.5, 0.75]))
    table = np.zeros((4, 5))
    np.add.at(table, (bins, corpus.truth.archetype_ids), 1)
    _, p, _, _ = stats.chi2_contingency(table)
    assert p < 1e-10


def test_entropy_bias_lowers_flagged_household_entropy():
    # elderly bias -0.5: flagged households have lower day-to-day entropy
    # (one-sided Welch test at alpha = 0.01 on ground-truth labels)
    cfg = GeneratorConfig(archetypes=5, households=400, days=120,
                          temperature_response=0.0,
                          entropy_bias={"elderly": -0.5})
    corpus = generate_synthetic(cfg, seed=5, include_meter=False)
    ent = household_entropy(truth_frame(corpus))
    flags = dict(zip(corpus.profiles.household_ids, corpus.profiles.flags("elderly")))
    with_vals = [v for h, v in ent.items() if flags[h] == 1]
    without_vals = [v for h, v in ent.items() if flags[h] == 0]
    res = stats.ttest_ind(with_vals, without_vals, equal_var=False,
                          alternative="less")
    assert res.pvalue < 0.01


def test_target_entropy_tracks_bias_exactly():
    cfg = GeneratorConfig(archetypes=5, households=500, days=10,
                          entropy_bias={"electric_dryer": 0.4})
    corpus = generate_synthetic(cfg, seed=21, include_meter=False)
    flags = np.array(corpus.profiles.flags("electric_dryer")) == 1
    targets = corpus.target_entropy
    gap = targets[flags].mean() - targets[~flags].mean()
    # jitter is +/-0.05 uniform, so the group gap sits within ~0.01 of 0.4
    assert gap == pytest.approx(0.4, abs=0.02)
    assert (targets <= math.log(5)).all() and (targets >= 0.0).all()


def test_outlier_and_fuzz_days_marked_in_truth():
    cfg = GeneratorConfig(archetypes=5, households=100, days=60,
                          outlier_rate=0.2, fuzz_rate=0.05)
    corpus = generate_synthetic(cfg, seed=11, include_meter=False)
    frac = (corpus.truth.archetype_ids == -1).mean()
    assert frac == pytest.approx(0.25, abs=0.02)


def read_file(path) -> GeneratorConfig:
    """The GeneratorConfig that ``synth --config path`` reads."""
    return config_from(GeneratorConfig, argparse.Namespace(config=str(path)),
                       GeneratorConfigError)


def test_generator_config_file_round_trip(tmp_path):
    cfg = GeneratorConfig(
        archetypes=7, households=42, days=33,
        start_date=dt.date(2012, 2, 1),
        noise_level=0.125, temperature_response=0.5,
        base_entropy=1.1, entropy_bias={"elderly": -0.25, "central_ac": 0.1},
        outlier_rate=0.2, fuzz_rate=0.03, bad_day_rate=0.01,
    )
    default = GeneratorConfig()
    assert all(getattr(cfg, f.name) != getattr(default, f.name)
               for f in dataclasses.fields(GeneratorConfig))
    path = tmp_path / "gen.cfg"
    path.write_text("archetypes=7\nhouseholds=42\ndays=33\nstart_date=2012-02-01\n"
                    "noise_level=0.125\ntemperature_response=0.5\nbase_entropy=1.1\n"
                    "bias.elderly=-0.25\nbias.central_ac=0.1\n"
                    "outlier_rate=0.2\nfuzz_rate=0.03\nbad_day_rate=0.01\n")
    assert read_file(path) == cfg


# generator values that no flag or config key sets; generate_synthetic reads
# them from the GeneratorConfig instance
FIXED_VALUES = {"baseload_low_kw": 0.25, "baseload_high_kw": 0.9, "discretionary_kwh_mean": 6.0}


@pytest.mark.parametrize("name", sorted(FIXED_VALUES))
def test_fixed_generator_value_is_read_from_the_instance(name):
    assert getattr(GeneratorConfig(households=3), name) == FIXED_VALUES[name]
    assert name not in {f.name for f in dataclasses.fields(GeneratorConfig)}
    with pytest.raises(TypeError, match=name):
        GeneratorConfig(**{name: 1.0})


@pytest.mark.parametrize("name", sorted(FIXED_VALUES))
def test_fixed_generator_value_is_no_config_key(tmp_path, name):
    path = tmp_path / "gen.cfg"
    path.write_text(f"households=3\n{name}=1.0\n")
    with pytest.raises(GeneratorConfigError, match=f"unknown config key '{name}'"):
        read_file(path)


def test_stages_is_no_run_config_key(tmp_path, capsys):
    # run_pipeline always runs every stage; a stage command runs one
    path = tmp_path / "run.cfg"
    path.write_text("seed=1\nstages=ingest\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "configuration error: unknown config key 'stages'\n"
    assert not (tmp_path / "out").exists()
    assert "stages" not in {f.name for f in dataclasses.fields(RunConfig)}


@pytest.mark.parametrize("cls", [RunConfig, GeneratorConfig])
def test_a_config_file_is_read_by_config_from_only(cls):
    assert not hasattr(cls, "from_file")
    assert not hasattr(config, "read_config")


@pytest.mark.parametrize("name", sorted(FIXED_VALUES))
def test_fixed_generator_value_is_no_synth_flag(tmp_path, capsys, name):
    out = tmp_path / "corpus"
    flag = f"--{name.replace('_', '-')}"
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--seed", "1", "--out", str(out), flag, "1.0"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_generator_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "gen.cfg"
    path.write_text("archetypes=5\nwibble=3\n")
    with pytest.raises(GeneratorConfigError, match="wibble"):
        read_file(path)
