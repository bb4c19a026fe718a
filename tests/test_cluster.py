import hashlib
import warnings

import numpy as np
import pytest

from loadshapes.cluster import (
    ClusterModel,
    _group_means,
    _pairwise_sq_dists,
    adaptive_kmeans,
    hierarchical_merge,
    kmeans,
    load_model,
    rse,
    save_model,
)
from loadshapes.dictionary import truncate
from loadshapes.errors import (
    CorruptArtifactError,
    DegenerateCenterError,
    EmptyInputError,
    VersionMismatchError,
)
from loadshapes.preprocess import ShapeTable, preprocess_days
from loadshapes.synthetic import GeneratorConfig, generate_synthetic


def unit_shapes(rng, n):
    x = rng.random((n, 24))
    return x / x.sum(axis=1, keepdims=True)


def test_rse_zero_for_identical():
    u = np.full(24, 1 / 24)
    assert rse(u, u) == 0.0


def test_rse_hand_value_23():
    s = np.zeros(24)
    s[0] = 1.0
    u = np.full(24, 1 / 24)
    # numerator (23/24)^2 + 23*(1/24)^2 = 552/576, denominator 24/576
    assert abs(rse(s, u) - 23.0) <= 1e-12


def test_rse_is_not_symmetric():
    s = np.zeros(24)
    s[0] = 1.0
    u = np.full(24, 1 / 24)
    assert rse(s, u) != rse(u, s)


def test_rse_threshold_strictness():
    # violation is RSE > theta, strictly: 0.29 passes, 0.31 violates
    theta = 0.3
    u = np.full(24, 1 / 24)
    for target in (0.29, 0.31):
        s = u.copy()
        s[0] += np.sqrt(target * float(u @ u))
        value = rse(s, u)
        assert value == pytest.approx(target, rel=1e-12)
        assert (value > theta) == (target == 0.31)


def test_rse_degenerate_center():
    with pytest.raises(DegenerateCenterError):
        rse(np.ones(24), np.zeros(24))


def exhaustive_two_partition_wcss(X):
    n = len(X)
    best = np.inf
    for bits in range(1, 2 ** (n - 1)):
        mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        a, b = X[mask], X[~mask]
        if len(a) == 0 or len(b) == 0:
            continue
        wcss = ((a - a.mean(0)) ** 2).sum() + ((b - b.mean(0)) ** 2).sum()
        best = min(best, wcss)
    return best


def two_archetype_instance(rng, n):
    """Random two-group shape instance: the domain's natural hard case."""
    a = rng.gamma(0.8, size=24)
    a /= a.sum()
    b = rng.gamma(0.8, size=24)
    b /= b.sum()
    labels = rng.integers(0, 2, n)
    labels[0], labels[1] = 0, 1
    base = np.where(labels[:, None] == 0, a, b)
    x = base * np.exp(0.08 * rng.standard_normal((n, 24)))
    return x / x.sum(1, keepdims=True)


def test_kmeans_matches_exhaustive_two_partition():
    rng = np.random.default_rng(12)
    for trial in range(10):
        n = int(rng.integers(3, 9))
        X = two_archetype_instance(rng, n)
        centers, labels, inertia = kmeans(X, 2, seed=trial, n_init=20, rel_tol=0.0)
        best = exhaustive_two_partition_wcss(X)
        assert inertia == pytest.approx(best, abs=1e-9)
        # centers are exact member means
        for c in range(len(centers)):
            assert np.allclose(centers[c], X[labels == c].mean(0), atol=1e-12)


def test_kmeans_deterministic():
    rng = np.random.default_rng(13)
    X = unit_shapes(rng, 100)
    a = kmeans(X, 5, seed=9, n_init=3)
    b = kmeans(X, 5, seed=9, n_init=3)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_kmeans_empty_raises():
    with pytest.raises(EmptyInputError):
        kmeans(np.empty((0, 24)), 2, seed=0)


def two_group_table(rng, n_per=40, spread=0.002):
    a = np.zeros(24)
    a[7] = 1.0
    b = np.zeros(24)
    b[18] = 1.0
    X = np.vstack(
        [a + rng.normal(0, spread, (n_per, 24)),
         b + rng.normal(0, spread, (n_per, 24))]
    )
    truth = np.array([0] * n_per + [1] * n_per)
    return X, truth


def add_at_group_means(X, labels, k, d2min):
    """Reference for _group_means: unbuffered np.add.at row sums."""
    sums = np.zeros((k, X.shape[1]))
    np.add.at(sums, labels, X)
    counts = np.bincount(labels, minlength=k)
    centers = np.empty_like(sums)
    nonzero = counts > 0
    centers[nonzero] = sums[nonzero] / counts[nonzero, None]
    empties = np.flatnonzero(~nonzero)
    order = np.argsort(-d2min, kind="stable")
    for slot, e in enumerate(empties):
        centers[e] = X[order[slot]]
    return centers, counts, empties


@pytest.mark.parametrize("n,k,used", [(3600, 100, 100), (2400, 10, 7), (500, 40, 25)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_group_means_bit_identical_to_add_at(n, k, used, order):
    rng = np.random.default_rng(n + k)
    X = np.asarray(unit_shapes(rng, n) * rng.gamma(2.0, size=(n, 1)), order=order)
    labels = rng.integers(0, used, n)  # clusters used..k-1 stay empty
    d2min = rng.random(n)
    got = _group_means(X, np.ascontiguousarray(X.T), labels, k, d2min)
    want = add_at_group_means(X, labels, k, d2min)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_pairwise_sq_dists_bit_identical_to_expanded_form():
    rng = np.random.default_rng(23)
    X = unit_shapes(rng, 700)
    C = unit_shapes(rng, 31)
    xx = (X**2).sum(axis=1)
    want = np.maximum(xx[:, None] - 2.0 * (X @ C.T) + (C**2).sum(axis=1)[None, :], 0.0)
    assert np.array_equal(_pairwise_sq_dists(X, C), want)
    assert np.array_equal(_pairwise_sq_dists(X, C, xx), want)


def test_cluster_chain_golden_digest():
    # sha256 of the adaptive -> merge -> truncate outputs on one seeded,
    # outlier-heavy corpus (10 split rounds, 29 merges, 2 truncation
    # rounds). Any change to summation order or tie handling in the
    # clustering code shows here as a new digest.
    config = GeneratorConfig(archetypes=5, households=24, days=60, noise_level=0.05,
                             outlier_rate=0.27, fuzz_rate=0.04)
    table = preprocess_days(generate_synthetic(config, seed=2021).days)[0]
    model = adaptive_kmeans(table, theta=0.3, k_init=10, seed=7)
    merged = hierarchical_merge(model, max_violation=0.05)
    dic = truncate(merged, 0.30)
    h = hashlib.sha256()
    for a in (model.labels, model.centroids, merged.labels, merged.centroids,
              merged.ids, dic.values, dic.member_counts, dic.member_kwh,
              dic.member_discretionary_kwh):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == (
        "dd7876236080233c8a4fec5275128eeed36d09892821574bad1d4c5523bcad3a"
    )


def test_adaptive_two_well_separated_groups():
    rng = np.random.default_rng(14)
    X, truth = two_group_table(rng)
    model = adaptive_kmeans(X, theta=0.5, k_init=2, seed=3)
    assert model.n_clusters == 2
    assert model.violation_rate == 0.0
    # recovered split matches the generating groups (up to label swap)
    same = (model.labels == truth).mean()
    assert same in (0.0, 1.0)


def test_adaptive_splits_to_meet_threshold():
    # k_init=1 forces the threshold loop to discover the second group
    rng = np.random.default_rng(15)
    X, _ = two_group_table(rng)
    model = adaptive_kmeans(X, theta=0.3, k_init=1, seed=3)
    assert model.n_clusters >= 2
    assert model.violation_rate == 0.0
    assert model.meta["split_rounds"] >= 1


def test_adaptive_single_repeated_shape():
    shape = np.full(24, 1 / 24)
    X = np.tile(shape, (50, 1))
    model = adaptive_kmeans(X, theta=0.3, k_init=10, seed=0)
    assert model.n_clusters == 1
    assert np.allclose(model.centroids[0], shape, atol=1e-15)
    # the centroid is a 50-term mean of identical values, so the RSE floor
    # is accumulation noise around 1e-31, not an exact 0
    assert model.rse_per_shape().max() <= 1e-24


def test_adaptive_centroid_consistency_and_determinism():
    rng = np.random.default_rng(16)
    X = unit_shapes(rng, 400)
    m1 = adaptive_kmeans(X, theta=0.2, k_init=5, seed=7)
    m2 = adaptive_kmeans(X, theta=0.2, k_init=5, seed=7)
    assert np.array_equal(m1.centroids, m2.centroids)
    assert np.array_equal(m1.labels, m2.labels)
    assert m1.max_consistency_error() <= 1e-9


def test_adaptive_split_cap_warns():
    rng = np.random.default_rng(17)
    X = unit_shapes(rng, 300)
    with pytest.warns(UserWarning, match="residual"):
        model = adaptive_kmeans(X, theta=1e-6, k_init=2, seed=1,
                                max_split_rounds=2)
    assert model.meta["residual_violations"] > 0


def _model_from(X, labels, k, theta):
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    centroids = np.vstack([X[labels == c].mean(0) for c in range(k)])
    from loadshapes.cluster import _bare_table

    return ClusterModel(
        table=_bare_table(X),
        centroids=centroids,
        ids=np.arange(k, dtype=np.int64),
        labels=labels,
        theta=theta,
        meta={},
    )


def test_merge_of_identical_centroids_keeps_rse():
    u = np.full(24, 1 / 24)
    X = np.vstack([u + 0.001, u - 0.001, u + 0.001, u - 0.001])
    model = _model_from(X, [0, 0, 1, 1], 2, theta=0.5)
    before = model.rse_per_shape()
    merged = hierarchical_merge(model, max_violation=0.5)
    assert merged.n_clusters == 1
    assert np.allclose(merged.rse_per_shape(), before, atol=1e-15)


def test_merge_with_zero_budget_returns_input_unchanged():
    rng = np.random.default_rng(18)
    X = unit_shapes(rng, 12)
    model = adaptive_kmeans(X, theta=0.5, k_init=3, seed=0)
    if model.n_clusters < 2:
        pytest.skip("degenerate draw")
    merged = hierarchical_merge(model, max_violation=0.0)
    assert merged.n_clusters == model.n_clusters
    assert np.array_equal(merged.centroids, model.centroids)
    assert np.array_equal(merged.labels, model.labels)


def test_merge_three_cluster_toy_against_brute_force():
    # clusters 0 and 1 are nearly coincident, cluster 2 is far away:
    # the first merge (0,1) keeps violations at zero; merging the result
    # with cluster 2 would send nearly half the shapes over theta, so the
    # 2-cluster model comes back
    u = np.full(24, 1 / 24)
    far = np.zeros(24)
    far[0] = far[1] = 0.5
    X = np.vstack(
        [np.tile(u, (2, 1)),
         np.tile(u + 1e-4, (2, 1)),
         np.tile(far, (5, 1))]
    )
    labels = [0, 0, 1, 1, 2, 2, 2, 2, 2]
    theta = 0.3
    model = _model_from(X, labels, 3, theta)

    merged = hierarchical_merge(model, max_violation=0.05)
    assert merged.n_clusters == 2
    assert merged.violation_rate == 0.0
    assert sorted(merged.counts.tolist()) == [4, 5]

    # brute force every merge order against the 5% budget: only (0,1) is
    # violation-free, every merge across the gap blows the budget, so the
    # 2-cluster model is the unique stopping state
    labels = np.asarray(labels)

    def merge_rate(pair_labels, pair):
        counts = {c: (pair_labels == c).sum() for c in pair}
        centers = {c: X[pair_labels == c].mean(0) for c in pair}
        total = sum(counts[c] for c in pair)
        mid = sum(counts[c] * centers[c] for c in pair) / total
        members = np.isin(pair_labels, pair)
        violating = np.array([rse(m, mid) > theta for m in X[members]])
        return violating.sum() / len(X)

    assert merge_rate(labels, (0, 1)) == 0.0
    assert merge_rate(labels, (0, 2)) >= 0.05
    assert merge_rate(labels, (1, 2)) >= 0.05
    after_first = np.where(labels == 1, 0, labels)
    assert merge_rate(after_first, (0, 2)) >= 0.05


def test_merge_that_lowers_violations_is_silent_and_exact():
    # the merged weighted mean fits one of the two shapes that violated
    # their own cluster means: 2/8 violations before the merge, 1/8 after
    rng = np.random.default_rng(9)
    X = unit_shapes(rng, 8)
    model = _model_from(X, [0, 0, 0, 0, 1, 1, 1, 1], 2, theta=0.26)
    assert model.violation_rate == 0.25
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        merged = hierarchical_merge(model, max_violation=0.5)
    assert merged.n_clusters == 1
    assert merged.violation_rate == 0.125
    brute = [rse(x, merged.centroids[0]) > 0.26 for x in X]
    assert sum(brute) == 1


def test_merge_tie_breaks_to_lowest_id_pair():
    # three exactly equidistant centroids; the budget admits exactly one
    # merge, so which pair merged is visible in the surviving ids
    c0 = np.zeros(24)
    c0[0] = 1.0
    c1 = np.zeros(24)
    c1[1] = 1.0
    c2 = np.zeros(24)
    c2[2] = 1.0  # |c0-c1| == |c1-c2| == |c0-c2|
    X = np.vstack([c0, c0, c1, c1, c2, c2])
    model = _model_from(X, [0, 0, 1, 1, 2, 2], 3, theta=0.8)
    merged = hierarchical_merge(model, max_violation=0.7)
    assert merged.n_clusters == 2
    assert sorted(merged.ids.tolist()) == [0, 2]


def test_merge_requires_two_clusters():
    X = np.tile(np.full(24, 1 / 24), (3, 1))
    model = _model_from(X, [0, 0, 0], 1, theta=0.3)
    with pytest.raises(ValueError):
        hierarchical_merge(model)


def test_model_persistence_round_trip(tmp_path):
    import datetime as dt

    rng = np.random.default_rng(19)
    X = unit_shapes(rng, 60)
    table = ShapeTable(
        X,
        [f"H{i % 6}" for i in range(60)],
        [dt.date(2011, 6, 1) + dt.timedelta(days=i // 6) for i in range(60)],
        np.ones(60),
        np.ones(60),
    )
    model = adaptive_kmeans(table, theta=0.3, k_init=4, seed=2)
    save_model(model, tmp_path / "model.json", tmp_path / "labels.csv")
    back = load_model(tmp_path / "model.json", tmp_path / "labels.csv", table)
    assert np.array_equal(back.centroids, model.centroids)
    assert np.array_equal(back.labels, model.labels)
    assert back.theta == model.theta



def _keyed_table(X):
    import datetime as dt

    n = len(X)
    return ShapeTable(
        X,
        [f"H{i % 6}" for i in range(n)],
        [dt.date(2011, 6, 1) + dt.timedelta(days=i // 6) for i in range(n)],
        np.arange(1.0, n + 1),
        np.ones(n),
    )


def test_load_model_joins_labels_against_the_full_table(tmp_path):
    rng = np.random.default_rng(23)
    full = _keyed_table(unit_shapes(rng, 90))
    sub = full.take(np.sort(rng.choice(90, 40, replace=False)))
    model = adaptive_kmeans(sub, theta=0.3, k_init=4, seed=2)
    save_model(model, tmp_path / "model.json", tmp_path / "labels.csv")
    shuffled = full.take(rng.permutation(90))
    for table in (sub, full, shuffled):
        back = load_model(tmp_path / "model.json", tmp_path / "labels.csv", table)
        assert np.array_equal(back.labels, model.labels)
        for column in ("values", "household_ids", "dates", "day_total_kwh",
                       "discretionary_kwh"):
            assert np.array_equal(getattr(back.table, column),
                                  getattr(model.table, column)), column


def test_load_model_rejects_missing_and_repeated_keys(tmp_path):
    rng = np.random.default_rng(24)
    table = _keyed_table(unit_shapes(rng, 30))
    model = adaptive_kmeans(table, theta=0.5, k_init=2, seed=4)
    save_model(model, tmp_path / "model.json", tmp_path / "labels.csv")
    with pytest.raises(CorruptArtifactError, match=r"\('H0', '2011-06-01'\)"):
        load_model(tmp_path / "model.json", tmp_path / "labels.csv",
                   table.take(np.arange(1, 30)))
    lines = (tmp_path / "labels.csv").read_text().splitlines(keepends=True)
    cid = lines[1].rstrip("\r\n").rsplit(",", 1)[1]
    twin = next(i for i in range(2, len(lines))
                if lines[i].rstrip("\r\n").endswith(f",{cid}"))
    lines[twin] = lines[1]
    (tmp_path / "labels.csv").write_text("".join(lines))
    with pytest.raises(CorruptArtifactError, match=r"\('H0', '2011-06-01'\).*twice"):
        load_model(tmp_path / "model.json", tmp_path / "labels.csv", table)


def test_model_version_mismatch(tmp_path):
    import json

    payload = {"schema_version": 99, "theta": 0.3, "ids": [], "counts": [],
               "centroids": [], "meta": {}}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(VersionMismatchError, match="99"):
        load_model(path, tmp_path / "labels.csv", None)


def test_model_count_mismatch_rejected(tmp_path):
    rng = np.random.default_rng(20)
    X = unit_shapes(rng, 20)
    from loadshapes.cluster import _bare_table

    table = _bare_table(X)
    model = adaptive_kmeans(table, theta=0.5, k_init=2, seed=4)
    save_model(model, tmp_path / "model.json", tmp_path / "labels.csv")
    import json

    payload = json.loads((tmp_path / "model.json").read_text())
    payload["counts"] = [int(c) + 1 for c in payload["counts"]]
    (tmp_path / "model.json").write_text(json.dumps(payload))
    with pytest.raises(CorruptArtifactError):
        load_model(tmp_path / "model.json", tmp_path / "labels.csv", table)


def test_violation_rate_recomputed_not_cached():
    rng = np.random.default_rng(21)
    X = unit_shapes(rng, 30)
    model = adaptive_kmeans(X, theta=0.4, k_init=3, seed=5)
    assert model.violation_rate == 0.0
    # shrink theta: recomputation must see new violations immediately
    model.theta = 1e-9
    assert model.violation_rate > 0.0


def test_model_labels_naming_unknown_cluster_rejected(tmp_path):
    rng = np.random.default_rng(22)
    X = unit_shapes(rng, 20)
    from loadshapes.cluster import _bare_table

    table = _bare_table(X)
    model = adaptive_kmeans(table, theta=0.5, k_init=2, seed=4)
    save_model(model, tmp_path / "model.json", tmp_path / "labels.csv")
    lines = (tmp_path / "labels.csv").read_text().splitlines(keepends=True)
    hid, date, _ = lines[3].rstrip("\r\n").split(",")
    lines[3] = f"{hid},{date},9999\r\n"
    (tmp_path / "labels.csv").write_text("".join(lines))
    with pytest.raises(CorruptArtifactError, match="9999"):
        load_model(tmp_path / "model.json", tmp_path / "labels.csv", table)
