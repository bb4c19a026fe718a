import datetime as dt
import hashlib
import math
import re
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loadshapes import analytics
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
    # sums to 1, so only the sign check can catch it
    with pytest.raises(NotADistributionError, match="-0.5 is negative"):
        entropy([1.5, -0.5])
    with pytest.raises(NotADistributionError):
        entropy([])
    # NaN fails every comparison, so only a finiteness check can catch it
    for bad in ([math.nan, 1.0], [0.5, math.nan], [math.inf, 0.0], [1.0, -math.inf]):
        with pytest.raises(NotADistributionError, match="not finite"):
            entropy(bad)


@pytest.mark.xfail(strict=True, reason="the entropy of one shape is written as -0.0: "
                   "-(p * log p).sum() negates a zero sum (entropy and _row_entropy)")
@pytest.mark.parametrize("compute", [
    lambda: entropy([1.0]),
    lambda: analytics._row_entropy(np.array([[0.0, 3.0]]))[0],
], ids=["entropy", "row_entropy"])
def test_entropy_of_one_shape_is_positive_zero(compute):
    assert math.copysign(1.0, compute()) == 1.0


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
    assert report.get("summer").entropy == 0.0
    assert report.get("winter").entropy == pytest.approx(math.log(3), abs=1e-12)


def test_stratified_entropy_empty_stratum_is_undefined():
    records = [("H1", D(2011, 7, 1), 2)]
    frame, _ = frame_from(records)
    report = stratified_entropy(frame, season_strata())
    assert report.get("winter").entropy is None
    assert report.get("winter").n == 0
    with pytest.raises(KeyError, match="monsoon"):
        report.get("monsoon")


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


NOT_THREE = "boundaries must be three finite numbers that do not decrease"


@pytest.mark.parametrize("mode, boundaries, message", [
    ("median", None, "unknown quartile mode 'median'"),
    ("fixed", None, NOT_THREE),
    ("fixed", (68.0, 71.0), NOT_THREE),
    ("fixed", (68.0, 71.0, 76.0, 80.0), NOT_THREE),
    ("fixed", (76.0, 71.0, 68.0), NOT_THREE),
    ("fixed", (math.inf, math.inf, math.inf), NOT_THREE),
    ("fixed", (-math.inf, 62.0, 65.0), NOT_THREE),
    ("fixed", (math.nan, 71.0, 76.0), NOT_THREE),
    ("fixed", ("68", "warm", "76"), NOT_THREE),
])
def test_temperature_quartiles_reject_a_bad_mode_or_boundaries(mode, boundaries, message):
    dates = [D(2011, 7, 1) + dt.timedelta(days=i) for i in range(4)]
    weather = weather_for(dates, [78.2, 69.5, 67.9, 71.0])
    with pytest.raises(ValueError, match=re.escape(message)):
        temperature_quartiles(weather, dates, mode=mode, boundaries=boundaries)


def test_temperature_quartiles_missing_weather_rejected():
    dates = [D(2011, 7, 1), D(2011, 7, 2)]
    weather = weather_for(dates[:1], [70.0])
    with pytest.raises(ValueError, match="missing for 1 dates, e.g. 2011-07-02"):
        temperature_quartiles(weather, dates)
    with pytest.raises(ValueError, match="missing for 2 dates, e.g. 2011-07-01"):
        temperature_quartiles([], dates)


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


def _copy(s: str) -> str:
    """An equal string that is a different object."""
    return (s + "#")[:-1]


@st.composite
def _id_columns(draw):
    """An id column as build_frame may get it: runs of one household's days,
    grouped or shuffled, as object or ``U`` strings or as ints."""
    kind = draw(st.sampled_from(["object", "copies", "unicode", "int"]))
    if kind == "int":
        ids = draw(st.lists(st.integers(-3, 3), max_size=6))
    else:
        # two characters or more, so a slice is a new object, not a cached one
        ids = ["id" + t for t in draw(st.lists(st.text("ab,\"é", max_size=2), max_size=6))]
    runs = draw(st.lists(st.integers(1, 4), min_size=len(ids), max_size=len(ids)))
    values = [v for v, n in zip(ids, runs) for _ in range(n)]
    if draw(st.booleans()):
        values = draw(st.permutations(values))
    if kind == "copies":
        values = [_copy(v) for v in values]
        assert len({id(v) for v in values}) == len(values)
    if kind == "unicode":
        return np.array(values, dtype=str)
    return np.array(values, dtype=object)


@settings(max_examples=200, deadline=None)
@given(_id_columns())
@example(np.array([], dtype=object))
@example(np.array([], dtype="U1"))
@example(np.array(["H1"], dtype=object))
@example(np.array(["H1"]))
@example(np.array(["Hb", "Ha", _copy("Hb"), "Ha"], dtype=object))
def test_factorize_runs_equals_np_unique(values):
    want, want_codes = np.unique(values, return_inverse=True)
    got, codes = analytics._factorize_runs(values)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert codes.dtype == want_codes.dtype and codes.tolist() == want_codes.tolist()


@pytest.mark.parametrize("n", [0, 1])
def test_build_frame_on_empty_and_one_row_tables(n):
    frame, _ = frame_from([("H1", D(2011, 7, 1), 3)][:n])
    assert len(frame) == n
    assert frame.households.tolist() == ["H1"][:n]
    assert frame.household_code.tolist() == [0][:n]
    assert frame.clusters.tolist() == [3][:n]
    assert frame.cluster_code.tolist() == [0][:n]
    assert frame.day.tolist() == [15156][:n]
    assert frame.season.tolist() == ["summer"][:n]


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


def test_delta_ci_width_shrinks_with_group_size(monkeypatch):
    rng = np.random.default_rng(44)
    monkeypatch.setattr(analytics, "N_BOOT", 2000)

    def width(n):
        entropies = {}
        with_ids, without_ids = [], []
        for i in range(n):
            entropies[f"W{i}"] = float(rng.normal(1.0, 0.3))
            entropies[f"O{i}"] = float(rng.normal(0.8, 0.3))
            with_ids.append(f"W{i}")
            without_ids.append(f"O{i}")
        profiles = profiles_with("central_ac", with_ids, without_ids)
        d = characteristic_entropy_delta(entropies, profiles, "central_ac", seed=6)
        return d.ci_high - d.ci_low

    assert width(400) < width(40)


def _three_and_three():
    entropies = {f"H{i}": float(i) for i in range(6)}
    profiles = profiles_with("elderly", ["H0", "H1", "H2"], ["H3", "H4", "H5"])
    return entropies, profiles


def test_delta_with_a_single_resample(monkeypatch):
    entropies, profiles = _three_and_three()
    monkeypatch.setattr(analytics, "N_BOOT", 1)
    d = characteristic_entropy_delta(entropies, profiles, "elderly")
    assert d.ci_low == d.ci_high


@pytest.mark.parametrize("name,value", [("n_boot", 100), ("alpha", 0.1)])
def test_delta_bootstrap_setting_is_no_parameter(name, value):
    """N_BOOT and ALPHA fix the resample count and the interval level."""
    entropies, profiles = _three_and_three()
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        characteristic_entropy_delta(entropies, profiles, "elderly", **{name: value})


def test_delta_golden_values():
    # computed before the bootstrap was drawn in blocks: the block-wise draw
    # and the helper-thread averaging must not move a single bit
    rng = np.random.default_rng(685)
    ids = [f"H{i:03d}" for i in range(685)]
    entropies = {h: float(v) for h, v in zip(ids, rng.uniform(0.5, 2.5, 685))}
    flags = rng.random(685) < 0.44
    profiles = [HouseholdProfile(h, {"children": bool(f)}) for h, f in zip(ids, flags)]
    d = characteristic_entropy_delta(entropies, profiles, "children", seed=7)
    assert (d.n_with, d.n_without) == (295, 390)
    assert d.delta == -0.06141351061762035
    assert d.ci_low == -0.14616382855718896
    assert d.ci_high == 0.022062539866422967


def _one_shot_means(seed, groups, n_boot):
    rng = np.random.default_rng(seed)
    return [g[rng.integers(0, len(g), size=(n_boot, len(g)))].mean(axis=1)
            for g in groups]


@st.composite
def _bootstrap_cases(draw):
    n_boot = draw(st.integers(1, 5000))
    # cap the one-shot reference at 1.5M draws per group
    largest = max(2, min(3000, 1_500_000 // n_boot))
    n_w = draw(st.integers(2, largest))
    n_wo = draw(st.integers(2, largest))
    seed = draw(st.integers(0, 2**32 - 1))
    return seed, n_w, n_wo, n_boot


def _check_blocks_equal_one_shot(case):
    seed, n_w, n_wo, n_boot = case
    values = np.random.default_rng(seed ^ 0x5EED).uniform(0, 3, n_w + n_wo)
    groups = (values[:n_w], values[n_w:])
    got = analytics._bootstrap_means(np.random.default_rng(seed), groups, n_boot)
    want = _one_shot_means(seed, groups, n_boot)
    assert len(got) == 2
    for g, w in zip(got, want):
        assert g.shape == (n_boot,)
        assert np.array_equal(g, w)


@settings(max_examples=60, deadline=None)
@given(_bootstrap_cases())
def test_bootstrap_blocks_equal_one_shot(case):
    _check_blocks_equal_one_shot(case)


@settings(max_examples=25, deadline=None)
@given(_bootstrap_cases())
def test_bootstrap_many_small_blocks_equal_one_shot(case):
    # 7 draws per block: one row per block once a group has 8 or more
    # households, and a partial last block for the smaller ones
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analytics, "BOOTSTRAP_BLOCK", 7)
        _check_blocks_equal_one_shot(case)


@pytest.mark.parametrize("seed,n_w,n_wo,n_boot", [
    (0, 2, 3, 1),           # a single resample
    (1, 2, 2, 7),           # 7 // 2 = 3 rows per block, partial last block
    (2, 8, 7, 9),           # 7 // 8 = 0 rows: the one-row floor
    (3, 300, 385, 10_000),  # the benchmark's split at full size
])
def test_bootstrap_edge_blocks_equal_one_shot(monkeypatch, seed, n_w, n_wo, n_boot):
    _check_blocks_equal_one_shot((seed, n_w, n_wo, n_boot))
    monkeypatch.setattr(analytics, "BOOTSTRAP_BLOCK", 7)
    _check_blocks_equal_one_shot((seed, n_w, n_wo, n_boot))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 295, 300, 385, 390, 685, 3000, 2**31 + 1, 2**32])
def test_uint32_draws_equal_int64_draws(n):
    for seed in (0, 7, 2**32 - 1):
        a = np.random.default_rng(seed).integers(0, n, size=(50, 40), dtype=np.uint32)
        b = np.random.default_rng(seed).integers(0, n, size=(50, 40))
        assert b.dtype == np.int64
        assert np.array_equal(a, b)


def test_bootstrap_helper_thread_ends_after_return():
    before = threading.active_count()
    groups = (np.arange(5.0), np.arange(9.0))
    analytics._bootstrap_means(np.random.default_rng(0), groups, 2000)
    assert threading.active_count() == before


def test_bootstrap_error_in_block_propagates_and_thread_ends(monkeypatch):
    boom = RuntimeError("gather failed")
    calls = []

    def failing_gather(*args):
        calls.append(args)
        if len(calls) == 3:
            raise boom

    monkeypatch.setattr(analytics, "_block_means", failing_gather)
    monkeypatch.setattr(analytics, "BOOTSTRAP_BLOCK", 7)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        analytics._bootstrap_means(np.random.default_rng(0),
                                   (np.arange(9.0), np.arange(9.0)), 20)
    assert info.value is boom
    assert 3 <= len(calls) <= 4  # stops at the failing block, plus the one drawn meanwhile
    assert threading.active_count() == before


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


GOLDEN_DBI_SHA256 = (
    "7e2c351160c95952bce0bbd698c5eb44affcba73ba55dd3958637b19b481d963"
)


def seeded_dbi_digest() -> str:
    """sha256 over davies_bouldin's value, or its error, on 300 seeded
    partitions: k of 2-8 in 24 or 3 dimensions, points continuous or
    quantized to quarters, centroids the member means (some jittered),
    some clusters left empty and some centroids copied onto others."""
    rng = np.random.default_rng(2718)
    values = []
    for i in range(300):
        k = int(rng.integers(2, 9))
        dim = (24, 24, 3)[i % 3]
        n = int(rng.integers(k, 8 * k + 1)) if i % 4 else int(rng.integers(2, k + 3))
        X = rng.random((n, dim))
        if i % 2:
            X = np.floor(X * 4) / 4
        labels = rng.integers(0, k, n)
        if i % 4:
            labels[:k] = rng.permutation(k)
        C = np.vstack([X[labels == c].mean(0) if (labels == c).any() else rng.random(dim)
                       for c in range(k)])
        if i % 6 == 0:
            C = C + rng.normal(0.0, 0.05, C.shape)
        for _ in range((i % 5 == 0) + (i % 10 == 0)):
            a, b = rng.choice(k, 2, replace=False)
            C[a] = C[b]
        try:
            values.append(davies_bouldin(X, labels, C))
        except (EmptyInputError, CoincidentCentroidsError) as exc:
            values.append(f"{type(exc).__name__}: {exc}")
    return hashlib.sha256(repr(values).encode()).hexdigest()


def test_davies_bouldin_golden_digest():
    # computed with the pair-by-pair loop that the array form replaced
    assert seeded_dbi_digest() == GOLDEN_DBI_SHA256


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


@pytest.mark.parametrize("name,value", [("prominence_frac", 0.5), ("min_separation", 3)])
def test_peak_taxonomy_peak_setting_is_no_parameter(name, value):
    """peak_taxonomy finds peaks with find_peaks_circular's defaults."""
    d = dictionary_of([np.full(24, 1 / 24)])
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        peak_taxonomy(d, **{name: value})


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


def test_coverage_curve_rejects_an_id_the_dictionary_lacks():
    d = dictionary_of([np.full(24, 1 / 24)] * 2)
    d.ids = np.array([1, 3], dtype=np.int64)
    _, table = frame_from([("H1", D(2011, 7, 1), 1, 3.0), ("H2", D(2011, 7, 1), 2, 7.0)])
    with pytest.raises(ValueError, match="cluster id 2"):
        coverage_curve(table, d)


def test_coverage_curve_maps_ids_that_do_not_ascend():
    d = dictionary_of([np.full(24, 1 / 24)] * 2)
    d.ids = np.array([2, 1], dtype=np.int64)
    d.validate()
    _, table = frame_from([("H1", D(2011, 7, 1), 1, 3.0), ("H2", D(2011, 7, 1), 2, 7.0)])
    curve = coverage_curve(table, d)
    assert curve.cluster_ids.tolist() == [2, 1]
    assert curve.kwh.tolist() == [7.0, 3.0]


@st.composite
def _coverage_cases(draw):
    """Dictionaries of up to 120 shapes with ids in any order, and up to
    5,000 assignments to some of them, weighted over many magnitudes."""
    k = draw(st.integers(1, 120))
    n = draw(st.integers(1, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = rng.permutation(np.arange(1, k + 1))
    used = rng.choice(ids, int(rng.integers(1, k + 1)), replace=False)
    weights = rng.random(n) * 10.0 ** rng.integers(-6, 7, n)
    weight = draw(st.sampled_from(["total", "discretionary"]))
    return ids, used[rng.integers(0, len(used), n)], weights, weight


@settings(max_examples=100, deadline=None)
@given(_coverage_cases())
def test_coverage_kwh_equals_add_at(case):
    """coverage_curve's per-shape kWh is, bit for bit, the np.add.at sum it
    replaced: both add each shape's days one by one in row order."""
    ids, cluster_ids, weights, weight = case
    d = dictionary_of([np.full(24, 1 / 24)] * len(ids))
    d.ids = ids
    n = len(cluster_ids)
    table = AssignmentTable(np.full(n, "H1", dtype=object), [D(2011, 7, 1)] * n, cluster_ids,
                            np.zeros(n), np.zeros(n), weights, weights)
    row_of = {int(c): i for i, c in enumerate(ids)}
    want = np.zeros(len(ids))
    np.add.at(want, [row_of[int(c)] for c in cluster_ids], weights)
    curve = coverage_curve(table, d, weight=weight)
    got = np.empty(len(ids))
    got[[row_of[int(c)] for c in curve.cluster_ids]] = curve.kwh
    assert np.array_equal(got, want)


def test_coverage_requires_weights():
    d = dictionary_of([np.full(24, 1 / 24)])
    table = AssignmentTable(["H1"], [D(2011, 7, 1)], [1], [0.0], [0.0])
    with pytest.raises(ValueError, match="weights"):
        coverage_curve(table, d)
    table = AssignmentTable(["H1"], [D(2011, 7, 1)], [1], [0.0], [0.0], [0.0], [0.0])
    with pytest.raises(ValueError, match="unknown coverage weight 'net'"):
        coverage_curve(table, d, weight="net")
    with pytest.raises(EmptyInputError, match="total kWh is zero"):
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
    for hour in (-1, 24):
        with pytest.raises(ValueError, match=f"hour {hour} outside 0..23"):
            peak_bin_of_hour(hour)


def test_peak_taxonomy_single_spike_at_17_is_tou():
    d = dictionary_of([spike_shape([17])])
    tax = peak_taxonomy(d)
    with pytest.raises(KeyError, match="2"):
        tax.get(2)
    entry = tax.get(1)
    assert entry.count_label == "single"
    assert entry.peak_hours == (17,)
    assert entry.primary_bin == "tou"


def test_peak_taxonomy_of_an_empty_dictionary_is_rejected():
    with pytest.raises(EmptyInputError, match="dictionary is empty"):
        peak_taxonomy(dictionary_of(np.empty((0, 24))))


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


GOLDEN_PEAKS_SHA256 = (
    "c09f8e3c314f418ce20a6d281e5d5c638012e6b999ca21b49a720c93f01af8a6"
)


def seeded_peaks_digest() -> str:
    """sha256 over find_peaks_circular's hours on 2,000 seeded profiles:
    continuous ones, ones quantized to 1-5 levels (plateaus, and runs that
    wrap past midnight), flat ones and single spikes, cycling through
    prominence_frac 0/0.1/0.25/0.5 and min_separation 1-7."""
    rng = np.random.default_rng(1313)
    levels = rng.integers(1, 6, size=(800, 1))
    spikes = np.zeros((200, 24))
    spikes[np.arange(200), rng.integers(0, 24, 200)] = rng.uniform(0.1, 2.0, 200)
    profiles = np.concatenate([
        rng.random((800, 24)),
        np.floor(rng.random((800, 24)) * levels) / levels,
        np.repeat(rng.uniform(0.0, 1.0, (200, 1)), 24, axis=1),
        spikes,
    ])
    fracs = (0.0, 0.1, 0.25, 0.5)
    hours = [find_peaks_circular(v, fracs[i % 4], 1 + i // 4 % 7)
             for i, v in enumerate(profiles)]
    return hashlib.sha256(repr(hours).encode()).hexdigest()


def test_find_peaks_golden_digest():
    # computed with the run-list finder that the one-pass finder replaced
    assert seeded_peaks_digest() == GOLDEN_PEAKS_SHA256


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
