import datetime as dt
import filecmp
import math

import numpy as np
import pytest
from scipy import stats

from loadshapes.analytics import build_frame, household_entropy
from loadshapes.dictionary import AssignmentTable
from loadshapes.errors import GeneratorConfigError
from loadshapes.ingest import read_meter_corpus, read_survey, read_weather
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


@pytest.mark.parametrize("overrides", [
    {"noise_level": float("nan")},
    {"base_entropy": float("inf")},
    {"noise_level": float("nan"), "base_entropy": float("inf")},
    {"temperature_response": float("-inf")},
    {"outlier_rate": float("nan")},
    {"baseload_high_kw": float("inf")},
    {"discretionary_kwh_mean": float("nan")},
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
    profiles, _ = read_survey(paths["survey"])
    assert len(profiles) == 30
    truth = SyntheticTruth.read_csv(paths["truth"])
    assert len(truth.archetype_ids) == 600
    # truth rows align with meter rows
    assert list(zip(days.household_ids, days.dates)) == [
        (truth.household_ids[i], truth.dates[i]) for i in range(600)
    ]


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
    flags = {p.household_id: p.indicators.get("elderly") for p in corpus.profiles}
    with_vals = [v for h, v in ent.items() if flags[h]]
    without_vals = [v for h, v in ent.items() if flags[h] is False]
    res = stats.ttest_ind(with_vals, without_vals, equal_var=False,
                          alternative="less")
    assert res.pvalue < 0.01


def test_target_entropy_tracks_bias_exactly():
    cfg = GeneratorConfig(archetypes=5, households=500, days=10,
                          entropy_bias={"electric_dryer": 0.4})
    corpus = generate_synthetic(cfg, seed=21, include_meter=False)
    flags = np.array(
        [p.indicators["electric_dryer"] for p in corpus.profiles]
    )
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


def test_generator_config_file_round_trip(tmp_path):
    cfg = GeneratorConfig(
        archetypes=7, households=42, days=33,
        start_date=dt.date(2012, 2, 1),
        noise_level=0.125, temperature_response=0.5,
        base_entropy=1.1, entropy_bias={"elderly": -0.25, "central_ac": 0.1},
        outlier_rate=0.2, fuzz_rate=0.03, bad_day_rate=0.01,
    )
    path = tmp_path / "gen.cfg"
    cfg.to_file(path)
    assert GeneratorConfig.from_file(path) == cfg


def test_generator_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "gen.cfg"
    path.write_text("archetypes=5\nwibble=3\n")
    with pytest.raises(GeneratorConfigError, match="wibble"):
        GeneratorConfig.from_file(path)
