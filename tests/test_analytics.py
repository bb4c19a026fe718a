import datetime as dt
import hashlib
import math

import numpy as np
import pytest

from loadshapes.analytics import (
    CharacteristicDelta,
    build_frame,
    characteristic_entropy_delta,
    coverage_curve,
    davies_bouldin,
    day_type_strata,
    entropy,
    find_peaks_circular,
    household_entropy,
    occurrence_map,
    peak_bin_of_hour,
    peak_taxonomy,
    season_strata,
    stratified_entropy,
    temperature_quartiles,
)
from loadshapes.dictionary import AssignmentTable, ClusterDictionary
from loadshapes.errors import (
    CoincidentCentroidsError,
    EmptyInputError,
    NotADistributionError,
    SingletonClusteringError,
)
from loadshapes.ingest import HouseholdProfile, WeatherDay

D = dt.date


def test_entropy_exact_values():
    assert entropy([1.0]) == 0.0
    assert entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-12)
    assert entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_zero_entries_contribute_nothing():
    assert entropy([0.5, 0.5, 0.0, 0.0]) == entropy([0.5, 0.5])


def test_entropy_rejects_non_distribution():
    with pytest.raises(NotADistributionError):
        entropy([0.5, 0.6])
    with pytest.raises(NotADistributionError):
        entropy([1.5, -0.5])
    with pytest.raises(NotADistributionError):
        entropy([])


def test_entropy_upper_bound():
    rng = np.random.default_rng(40)
    for _ in range(50):
        k = int(rng.integers(2, 30))
        p = rng.dirichlet(np.ones(k))
        assert 0.0 <= entropy(p) <= math.log(k) + 1e-12


def test_entropy_mixture_identity_disjoint_supports():
    # pooling parts with disjoint shape supports:
    # S(pooled) = sum w_k S_k + S(w), exactly
    p1 = np.array([0.25, 0.75])            # support {a, b}
    p2 = np.array([0.4, 0.1, 0.5])         # support {c, d, e}
    w = np.array([0.3, 0.7])
    pooled = np.concatenate([w[0] * p1, w[1] * p2])
    lhs = entropy(pooled)
    rhs = w[0] * entropy(p1) + w[1] * entropy(p2) + entropy(w)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def frame_from(records, weather=None):
    """records: (household_id, date, cluster_id[, total_kwh])"""
    hids = [r[0] for r in records]
    dates = [r[1] for r in records]
    cids = [r[2] for r in records]
    totals = [r[3] if len(r) > 3 else 1.0 for r in records]
    table = AssignmentTable(
        hids, dates, cids,
        np.zeros(len(records)), np.zeros(len(records)),
        totals, [t / 2 for t in totals],
    )
    return build_frame(table, weather), table


def test_stratified_entropy_single_shape_summer():
    records = [("H1", D(2011, 7, i + 1), 4) for i in range(10)]
    records += [("H1", D(2011, 1, i + 1), 1 + (i % 3)) for i in range(9)]
    frame, _ = frame_from(records)
    report = stratified_entropy(frame, season_strata())
    assert report.value("summer") == 0.0
    assert report.value("winter") == pytest.approx(math.log(3), abs=1e-12)


def test_stratified_entropy_empty_stratum_is_undefined():
    records = [("H1", D(2011, 7, 1), 2)]
    frame, _ = frame_from(records)
    report = stratified_entropy(frame, season_strata())
    assert report.value("winter") is None
    assert report.get("winter").n == 0


def test_stratified_frequencies_sum_to_one():
    rng = np.random.default_rng(41)
    records = [
        (f"H{i % 7}", D(2011, 6, 1) + dt.timedelta(days=int(i // 7)),
         int(rng.integers(1, 6)))
        for i in range(700)
    ]
    frame, _ = frame_from(records)
    report = stratified_entropy(frame, day_type_strata() + season_strata())
    for e in report.entries:
        if e.n:
            assert sum(e.frequencies.values()) == pytest.approx(1.0, abs=1e-9)


def weather_for(dates, temps):
    return [WeatherDay(d, t) for d, t in zip(dates, temps)]


def test_temperature_quartiles_fixed_boundaries():
    dates = [D(2011, 7, 1) + dt.timedelta(days=i) for i in range(4)]
    weather = weather_for(dates, [78.2, 69.5, 67.9, 71.0])
    strata, bounds = temperature_quartiles(
        weather, dates, mode="fixed", boundaries=(68.0, 71.0, 76.0)
    )
    assert bounds == (68.0, 71.0, 76.0)
    records = [("H1", d, 1) for d in dates]
    frame, _ = frame_from(records, weather)
    by_label = {s.label: s.mask(frame) for s in strata}
    assert by_label["T_4"].tolist() == [True, False, False, False]   # 78.2
    assert by_label["T_2"].tolist() == [False, True, False, False]   # 69.5
    assert by_label["T_1"].tolist() == [False, False, True, False]   # 67.9
    assert by_label["T_3"].tolist() == [False, False, False, True]   # 71.0 left-closed


def test_temperature_quartiles_empirical_equal_sizes():
    rng = np.random.default_rng(42)
    n = 203
    dates = [D(2011, 6, 1) + dt.timedelta(days=i) for i in range(n)]
    temps = rng.uniform(60, 95, n)
    weather = weather_for(dates, temps)
    strata, bounds = temperature_quartiles(weather, dates)
    # oracle: boundaries from the fully sorted sample
    assert bounds == tuple(np.quantile(np.sort(temps), [0.25, 0.5, 0.75]))
    records = [("H1", d, 1) for d in dates]
    frame, _ = frame_from(records, weather)
    sizes = [int(s.mask(frame).sum()) for s in strata]
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1


def test_temperature_quartiles_need_distinct_values():
    dates = [D(2011, 7, 1) + dt.timedelta(days=i) for i in range(5)]
    weather = weather_for(dates, [70.0, 70.0, 70.0, 71.0, 72.0])
    with pytest.raises(ValueError):
        temperature_quartiles(weather, dates)


def test_temperature_quartiles_missing_weather_rejected():
    dates = [D(2011, 7, 1), D(2011, 7, 2)]
    weather = weather_for(dates[:1], [70.0])
    with pytest.raises(ValueError, match="missing"):
        temperature_quartiles(weather, dates)


def test_household_entropy_identical_and_uniform():
    records = [("H1", D(2011, 7, 1) + dt.timedelta(days=i), 3) for i in range(30)]
    records += [
        ("H2", D(2011, 7, 1) + dt.timedelta(days=i), 1 + i % 20) for i in range(40)
    ]
    frame, _ = frame_from(records)
    ent = household_entropy(frame)
    assert ent["H1"] == 0.0
    # two full passes over 20 shapes: uniform, ln 20 ~= 3.0
    assert ent["H2"] == pytest.approx(math.log(20), abs=1e-12)


def test_household_entropy_respects_mask():
    records = [("H1", D(2011, 7, 1), 1), ("H1", D(2011, 7, 2), 2),
               ("H1", D(2011, 1, 5), 3)]
    frame, _ = frame_from(records)
    summer = np.array([d.month == 7 for d in frame.date])
    ent = household_entropy(frame, summer)
    assert ent["H1"] == pytest.approx(math.log(2), abs=1e-12)


def test_build_frame_temperature_join():
    dates = [D(2011, 7, 1), D(2011, 7, 2), D(2011, 7, 3)]
    # 7/2 is missing; 7/1 is listed twice and takes its last value
    weather = weather_for([dates[0], dates[2], dates[0]], [70.0, 80.0, 75.5])
    frame, _ = frame_from([("H1", d, 1) for d in dates + dates[::-1]], weather)
    assert frame.avg_temp_f[[0, 2, 3, 5]].tolist() == [75.5, 80.0, 80.0, 75.5]
    assert np.isnan(frame.avg_temp_f[[1, 4]]).all()


def test_integer_household_ids():
    records = [(7, D(2011, 7, 1), 1), (3, D(2011, 7, 1), 2), (7, D(2011, 7, 2), 2),
               (3, D(2011, 7, 2), 2), (7, D(2011, 7, 3), 1)]
    frame, _ = frame_from(records)
    ent = household_entropy(frame)
    assert list(ent) == [3, 7] and all(type(h) is int for h in ent)
    assert ent[3] == 0.0
    assert ent[7] == pytest.approx(entropy([2 / 3, 1 / 3]), abs=1e-12)
    occ = occurrence_map(frame, [2], dictionary_of([np.full(24, 1 / 24)] * 2))
    assert occ.household_ids.tolist() == [3, 7]


def test_household_entropy_mask_drops_households_and_clusters():
    records = [("HB", D(2011, 7, 1), 5), ("HA", D(2011, 7, 1), 1),
               ("HB", D(2011, 1, 2), 2), ("HC", D(2011, 1, 3), 9),
               ("HA", D(2011, 7, 2), 5), ("HB", D(2011, 7, 3), 1)]
    frame, _ = frame_from(records)
    summer = frame.season == "summer"
    ent = household_entropy(frame, summer)
    assert list(ent) == ["HA", "HB"]
    assert ent["HA"] == ent["HB"] == pytest.approx(math.log(2), abs=1e-12)
    assert household_entropy(frame, np.zeros(len(frame), dtype=bool)) == {}
    report = stratified_entropy(frame, season_strata())
    assert report.get("winter").frequencies == {2: 0.5, 9: 0.5}


def test_occurrence_map_dates_are_the_frames_own_objects():
    dates = [D(2011, 7, 3), D(2011, 7, 1), D(2011, 7, 2)]
    records = [("H1", d, 1) for d in dates] + [("H2", d, 2) for d in dates]
    frame, _ = frame_from(records)
    occ = occurrence_map(frame, [2], dictionary_of([np.full(24, 1 / 24)] * 2))
    assert occ.dates == sorted(dates)
    own = {id(d) for d in frame.date}
    assert all(type(d) is dt.date and id(d) in own for d in occ.dates)


def profiles_with(indicator, with_ids, without_ids, absent_ids=()):
    out = []
    for hid in with_ids:
        out.append(HouseholdProfile(hid, {indicator: True}))
    for hid in without_ids:
        out.append(HouseholdProfile(hid, {indicator: False}))
    for hid in absent_ids:
        out.append(HouseholdProfile(hid, {}))
    return out


def test_delta_indicator_true_for_all_rejected():
    entropies = {f"H{i}": 0.5 for i in range(6)}
    profiles = profiles_with("elderly", [f"H{i}" for i in range(6)], [])
    with pytest.raises(EmptyInputError):
        characteristic_entropy_delta(entropies, profiles, "elderly")


def test_delta_absent_indicator_rejected():
    entropies = {f"H{i}": 0.5 for i in range(6)}
    profiles = profiles_with("elderly", [], [], absent_ids=[f"H{i}" for i in range(6)])
    with pytest.raises(EmptyInputError):
        characteristic_entropy_delta(entropies, profiles, "elderly")


def test_delta_identical_groups_centered_on_zero():
    values = [0.2, 0.4, 0.6, 0.8, 1.0]
    entropies = {}
    with_ids, without_ids = [], []
    for i, v in enumerate(values):
        entropies[f"W{i}"] = v
        entropies[f"О{i}"] = v
        with_ids.append(f"W{i}")
        without_ids.append(f"О{i}")
    profiles = profiles_with("elderly", with_ids, without_ids)
    delta = characteristic_entropy_delta(entropies, profiles, "elderly", seed=0)
    assert delta.delta == 0.0
    assert delta.ci_low <= 0.0 <= delta.ci_high


def test_delta_deterministic_and_excludes_absent():
    rng = np.random.default_rng(43)
    entropies = {f"H{i}": float(rng.uniform(0, 2)) for i in range(40)}
    profiles = profiles_with(
        "electric_dryer",
        [f"H{i}" for i in range(15)],
        [f"H{i}" for i in range(15, 30)],
        absent_ids=[f"H{i}" for i in range(30, 40)],
    )
    a = characteristic_entropy_delta(entropies, profiles, "electric_dryer", seed=5)
    b = characteristic_entropy_delta(entropies, profiles, "electric_dryer", seed=5)
    assert a == b
    assert a.n_with == 15 and a.n_without == 15  # absent households excluded


def test_delta_ci_width_shrinks_with_group_size():
    rng = np.random.default_rng(44)

    def width(n):
        entropies = {}
        with_ids, without_ids = [], []
        for i in range(n):
            entropies[f"W{i}"] = float(rng.normal(1.0, 0.3))
            entropies[f"O{i}"] = float(rng.normal(0.8, 0.3))
            with_ids.append(f"W{i}")
            without_ids.append(f"O{i}")
        profiles = profiles_with("central_ac", with_ids, without_ids)
        d = characteristic_entropy_delta(entropies, profiles, "central_ac",
                                         n_boot=2000, seed=6)
        return d.ci_high - d.ci_low

    assert width(400) < width(40)


def dbi_instance():
    # two clusters varying on coordinate 0 only:
    # members {0, 0.1} and {1, 1.1}, centroids at 0.05 and 1.05
    X = np.zeros((4, 24))
    X[:, 0] = [0.0, 0.1, 1.0, 1.1]
    labels = np.array([0, 0, 1, 1])
    centroids = np.zeros((2, 24))
    centroids[:, 0] = [0.05, 1.05]
    return X, labels, centroids


def test_davies_bouldin_hand_value():
    X, labels, centroids = dbi_instance()
    assert davies_bouldin(X, labels, centroids) == pytest.approx(0.1, abs=1e-12)


def test_davies_bouldin_invariances():
    rng = np.random.default_rng(45)
    X = rng.random((60, 24))
    labels = rng.integers(0, 4, 60)
    labels[:4] = np.arange(4)
    centroids = np.vstack([X[labels == c].mean(0) for c in range(4)])
    base = davies_bouldin(X, labels, centroids)

    perm = np.array([2, 0, 3, 1])
    relabeled = perm[labels]
    inv = np.argsort(perm)
    assert davies_bouldin(X, relabeled, centroids[inv]) == pytest.approx(
        base, abs=1e-9
    )

    shift = rng.random(24)
    assert davies_bouldin(X + shift, labels, centroids + shift) == pytest.approx(
        base, abs=1e-9
    )


def test_davies_bouldin_errors():
    X, labels, centroids = dbi_instance()
    with pytest.raises(SingletonClusteringError):
        davies_bouldin(X, np.zeros(4, dtype=int), centroids[:1])
    co = centroids.copy()
    co[1] = co[0]
    with pytest.raises(CoincidentCentroidsError, match="0 and 1"):
        davies_bouldin(X, labels, co)


def dictionary_of(values, kwh=None):
    k = len(values)
    return ClusterDictionary(
        values=np.asarray(values, dtype=float),
        ids=np.arange(1, k + 1, dtype=np.int64),
        member_counts=np.full(k, 10, dtype=np.int64),
        member_kwh=np.arange(k, 0, -1, dtype=float) if kwh is None else np.asarray(kwh),
        member_discretionary_kwh=np.arange(k, 0, -1, dtype=float),
        theta=0.3,
        truncation_v=0.3,
    )


def test_coverage_curve_single_cluster():
    d = dictionary_of([np.full(24, 1 / 24)])
    records = [("H1", D(2011, 7, 1), 1, 5.0), ("H2", D(2011, 7, 1), 1, 3.0)]
    _, table = frame_from(records)
    curve = coverage_curve(table, d)
    assert curve.cumulative_fraction.tolist() == [1.0]


def test_coverage_curve_equal_weights():
    d = dictionary_of([np.full(24, 1 / 24)] * 4)
    records = []
    for c in range(1, 5):
        records.append((f"H{c}", D(2011, 7, 1), c, 2.5))
    _, table = frame_from(records)
    curve = coverage_curve(table, d)
    assert np.allclose(curve.cumulative_fraction, [0.25, 0.5, 0.75, 1.0], atol=1e-12)


def test_coverage_curve_properties_and_weight_modes():
    rng = np.random.default_rng(46)
    d = dictionary_of([np.full(24, 1 / 24)] * 6)
    records = [
        (f"H{i}", D(2011, 7, 1) + dt.timedelta(days=int(i)), int(rng.integers(1, 7)),
         float(rng.uniform(1, 20)))
        for i in range(300)
    ]
    _, table = frame_from(records)
    for weight in ("total", "discretionary"):
        curve = coverage_curve(table, d, weight=weight)
        cf = curve.cumulative_fraction
        assert (np.diff(cf) >= -1e-15).all()
        assert cf[-1] == pytest.approx(1.0, abs=1e-9)
        increments = np.diff(np.concatenate([[0.0], cf]))
        assert (np.diff(increments) <= 1e-12).all()  # concave in rank


def test_coverage_requires_weights():
    d = dictionary_of([np.full(24, 1 / 24)])
    table = AssignmentTable(["H1"], [D(2011, 7, 1)], [1], [0.0], [0.0])
    with pytest.raises(ValueError, match="weights"):
        coverage_curve(table, d)


def spike_shape(hours, width=0.8):
    t = np.arange(24, dtype=float)
    v = np.zeros(24)
    for h in hours:
        delta = np.minimum(np.abs(t - h), 24 - np.abs(t - h))
        v += np.exp(-0.5 * (delta / width) ** 2)
    v -= v.min()
    return v / v.sum()


def test_peak_bins():
    assert peak_bin_of_hour(23) == "night"
    assert peak_bin_of_hour(0) == "night"
    assert peak_bin_of_hour(5) == "night"
    assert peak_bin_of_hour(6) == "morning"
    assert peak_bin_of_hour(9) == "morning"
    assert peak_bin_of_hour(10) == "daytime"
    assert peak_bin_of_hour(15) == "daytime"
    assert peak_bin_of_hour(16) == "tou"
    assert peak_bin_of_hour(18) == "tou"
    assert peak_bin_of_hour(19) == "evening"
    assert peak_bin_of_hour(22) == "evening"


def test_peak_taxonomy_single_spike_at_17_is_tou():
    d = dictionary_of([spike_shape([17])])
    tax = peak_taxonomy(d)
    entry = tax.get(1)
    assert entry.count_label == "single"
    assert entry.peak_hours == (17,)
    assert entry.primary_bin == "tou"


def test_peak_taxonomy_equal_double_spike_tie_to_earlier_hour():
    d = dictionary_of([spike_shape([8, 21])])
    entry = peak_taxonomy(d).get(1)
    assert entry.count_label == "double"
    assert set(entry.peak_hours) == {8, 21}
    assert entry.primary_hour == 8  # exact tie resolves to the earlier hour
    assert entry.primary_bin == "morning"


def test_peak_taxonomy_flat_centroid_single_peak():
    d = dictionary_of([np.full(24, 1 / 24)])
    entry = peak_taxonomy(d).get(1)
    assert entry.peak_count == 1
    assert entry.peak_hours == (0,)


def test_peak_taxonomy_count_clipped_at_three():
    d = dictionary_of([spike_shape([2, 8, 14, 20])])
    entry = peak_taxonomy(d).get(1)
    assert entry.peak_count == 3
    assert entry.count_label == "multi"
    assert len(entry.peak_hours) == 4


def test_find_peaks_separation_suppresses_shoulder():
    v = spike_shape([12]) + 0.6 * spike_shape([14])
    hours = find_peaks_circular(v / v.sum(), 0.25, 3)
    assert len(hours) == 1  # 2h apart: the smaller shoulder is suppressed


def test_find_peaks_wraps_midnight():
    hours = find_peaks_circular(spike_shape([0]), 0.25, 3)
    assert hours == [0]


def test_find_peaks_prominence_filters_ripples():
    v = spike_shape([18]) + 0.02 * spike_shape([6])
    hours = find_peaks_circular(v / v.sum(), 0.25, 3)
    assert hours == [18]


def test_occurrence_map_all_targets_all_ones():
    d = dictionary_of([np.full(24, 1 / 24)] * 3)
    records = []
    for h in range(4):
        for i in range(5):
            records.append((f"H{h}", D(2011, 7, 1) + dt.timedelta(days=i),
                            1 + (h + i) % 3))
    frame, _ = frame_from(records)
    occ = occurrence_map(frame, [1, 2, 3], d)
    assert occ.matrix.shape == (4, 5)
    assert occ.matrix.all()


def test_occurrence_map_sorting_and_series():
    d = dictionary_of([np.full(24, 1 / 24)] * 2)
    dates = [D(2011, 7, 1), D(2011, 7, 2)]
    weather = weather_for(dates, [70.0, 90.0])
    records = [
        ("HA", dates[0], 2), ("HA", dates[1], 2),   # two hits
        ("HB", dates[0], 1), ("HB", dates[1], 2),   # one hit
        ("HC", dates[0], 1), ("HC", dates[1], 1),   # none
    ]
    frame, _ = frame_from(records, weather)
    occ = occurrence_map(frame, [2], d)
    assert occ.household_ids.tolist() == ["HA", "HB", "HC"]
    assert occ.matrix.tolist() == [[1, 1], [0, 1], [0, 0]]
    assert occ.daily_mean_temp_f.tolist() == [70.0, 90.0]
    assert occ.daily_entropy[0] == pytest.approx(
        entropy([2 / 3, 1 / 3]), abs=1e-12
    )


def test_occurrence_map_rejects_bad_targets():
    d = dictionary_of([np.full(24, 1 / 24)] * 2)
    records = [("H1", D(2011, 7, 1), 1)]
    frame, _ = frame_from(records)
    with pytest.raises(ValueError, match="empty"):
        occurrence_map(frame, [], d)
    with pytest.raises(ValueError, match="unknown"):
        occurrence_map(frame, [9], d)


def test_csv_writers_emit_provenance(tmp_path):
    from loadshapes.analytics import (
        write_char_deltas_csv,
        write_coverage_csv,
        write_entropy_csv,
        write_taxonomy_csv,
    )

    d = dictionary_of([spike_shape([17]), spike_shape([8])])
    records = [("H1", D(2011, 7, 1), 1, 4.0), ("H2", D(2011, 7, 2), 2, 6.0)]
    frame, table = frame_from(records)
    prov = {"run_id": "abc123"}

    report = stratified_entropy(frame, season_strata())
    write_entropy_csv(report, tmp_path / "e.csv", prov)
    write_coverage_csv(coverage_curve(table, d), tmp_path / "c.csv", prov)
    write_taxonomy_csv(peak_taxonomy(d), tmp_path / "t.csv", prov)
    write_char_deltas_csv(
        [CharacteristicDelta("elderly", 0.1, 0.0, 0.2, 5, 5)],
        tmp_path / "d.csv", prov,
    )
    for name in ("e.csv", "c.csv", "t.csv", "d.csv"):
        first = (tmp_path / name).read_text().splitlines()[0]
        assert first.startswith("#") and "abc123" in first


GOLDEN_ANALYTICS_SHA256 = (
    "3a5c8424d37979934b51515c378b7bf8ce642bb69bc3bd17c59a2ed5e48c6dbf"
)


def seeded_analytics_digest() -> str:
    """sha256 over the build_frame -> stratified_entropy -> household_entropy
    (with and without a summer mask) -> occurrence_map outputs on one seeded
    corpus whose rows are not grouped by household and whose weather misses
    some dates."""
    rng = np.random.default_rng(2024)
    n = 4000
    households = np.array([f"H{i:03d}" for i in rng.permutation(60)], dtype=object)
    hids = households[rng.integers(0, 60, n)]
    start = D(2010, 11, 15)
    dates = [start + dt.timedelta(days=int(o)) for o in rng.integers(0, 500, n)]
    p = rng.dirichlet(np.ones(15))
    cids = rng.choice(np.arange(1, 16), size=n, p=p)
    totals = rng.uniform(5.0, 40.0, n)
    table = AssignmentTable(hids, dates, cids, np.zeros(n), np.zeros(n),
                            totals, totals / 2)
    all_days = [start + dt.timedelta(days=i) for i in range(500)]
    missing = set(rng.choice(500, size=25, replace=False).tolist())
    weather = [WeatherDay(d, round(float(t), 1))
               for i, (d, t) in enumerate(zip(all_days, rng.uniform(35, 98, 500)))
               if i not in missing]
    frame = build_frame(table, weather)
    have = {w.date for w in weather}
    summer_dates = sorted({d for d in dates if d.month in (6, 7, 8) and d in have})
    temp_strata, bounds = temperature_quartiles(weather, summer_dates)
    report = stratified_entropy(
        frame, day_type_strata() + season_strata() + temp_strata)
    summer = np.array([d.month in (6, 7, 8) for d in dates])
    ent = household_entropy(frame)
    ent_summer = household_entropy(frame, summer)
    occ = occurrence_map(frame, [2, 5, 11], dictionary_of([np.full(24, 1 / 24)] * 15))
    h = hashlib.sha256()
    for part in (
        repr(frame.season.tolist()), repr(frame.day_type.tolist()),
        frame.avg_temp_f.tobytes(), repr(bounds),
        repr([(e.axis, e.label, e.n, e.entropy, list(e.frequencies.items()))
              for e in report.entries]),
        repr(list(ent.items())), repr(list(ent_summer.items())),
        repr(occ.household_ids.tolist()), repr(occ.dates), occ.matrix.tobytes(),
        occ.daily_mean_temp_f.tobytes(), occ.daily_entropy.tobytes(),
    ):
        h.update(part.encode() if isinstance(part, str) else part)
    return h.hexdigest()


def test_analytics_chain_golden_digest():
    # computed with the per-row (np.unique on objects, np.add.at) analytics
    assert seeded_analytics_digest() == GOLDEN_ANALYTICS_SHA256
