import hashlib
import json
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loadshapes import cluster
from loadshapes.cluster import (
    ClusterModel,
    _group_means,
    _lloyd,
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
from shape_rows import shape_table


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
    centroids = np.vstack([np.full(24, 1 / 24), np.zeros(24)])
    with pytest.raises(DegenerateCenterError, match="a centroid has zero norm"):
        cluster.rse_to_assigned(np.ones((3, 24)), centroids, np.array([0, 1, 0]))


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


def test_kmeans_draws_from_a_generator_given_as_seed():
    X = unit_shapes(np.random.default_rng(14), 60)
    rng = np.random.default_rng(5)
    first, second = kmeans(X, 4, seed=rng), kmeans(X, 4, seed=rng)
    assert np.array_equal(first[0], kmeans(X, 4, seed=5)[0])
    fresh = np.random.default_rng(5)
    kmeans(X, 4, seed=fresh)
    assert np.array_equal(second[0], kmeans(X, 4, seed=fresh)[0])
    assert not np.array_equal(first[0], second[0])  # the second call drew on


def test_kmeans_empty_raises():
    with pytest.raises(EmptyInputError):
        kmeans(np.empty((0, 24)), 2, seed=0)
    with pytest.raises(EmptyInputError, match="adaptive_kmeans on empty input"):
        adaptive_kmeans(shape_table(np.empty((0, 24))), theta=0.3, seed=0)


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
    got = _group_means(X, labels, d2min, np.zeros((k, X.shape[1])), np.ones(k, dtype=bool))
    want = add_at_group_means(X, labels, k, d2min)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_pairwise_sq_dists_bit_identical_to_expanded_form():
    rng = np.random.default_rng(23)
    X = unit_shapes(rng, 700)
    C = unit_shapes(rng, 31)
    xx = (X**2).sum(axis=1)
    want = np.maximum(xx[:, None] - 2.0 * (X @ C.T) + (C**2).sum(axis=1)[None, :], 0.0)
    assert np.array_equal(_pairwise_sq_dists(X, C, xx), want)


def full_recompute_lloyd(X, centers, max_iter, rel_tol):
    """Reference for _lloyd: every iteration recomputes all n x k distances
    and all k group sums (one row-order bincount per hour)."""

    def group_means(labels, k, d2min):
        sums = np.stack([np.bincount(labels, weights=col, minlength=k) for col in XT], axis=1)
        counts = np.bincount(labels, minlength=k)
        means = np.empty_like(sums)
        nonzero = counts > 0
        means[nonzero] = sums[nonzero] / counts[nonzero, None]
        empties = np.flatnonzero(~nonzero)
        if len(empties):
            order = np.argsort(-d2min, kind="stable")
            for slot, e in enumerate(empties):
                means[e] = X[order[slot]]
        return means, counts, empties

    centers = np.array(centers, dtype=float)
    k = len(centers)
    XT = np.ascontiguousarray(X.T)
    xx = (X**2).sum(axis=1)
    prev_inertia = np.inf
    labels = np.zeros(len(X), dtype=np.int64)
    relocated = False
    for _ in range(max_iter):
        d2 = _pairwise_sq_dists(X, centers, xx)
        labels = d2.argmin(axis=1)
        d2min = d2[np.arange(len(X)), labels]
        inertia = float(d2min.sum())
        centers, _, empties = group_means(labels, k, d2min)
        relocated = len(empties) > 0
        if not relocated and prev_inertia - inertia <= rel_tol * max(inertia, 1e-300):
            break
        prev_inertia = inertia
    if relocated:
        d2 = _pairwise_sq_dists(X, centers, xx)
        labels = d2.argmin(axis=1)
        d2min = d2[np.arange(len(X)), labels]
        centers, counts, empties = group_means(labels, k, d2min)
        if len(empties):
            keep = np.flatnonzero(counts > 0)
            remap = np.full(k, -1, dtype=np.int64)
            remap[keep] = np.arange(len(keep))
            centers = centers[keep]
            labels = remap[labels]
    inertia = float(((X - centers[labels]) ** 2).sum())
    return centers, labels, inertia


@st.composite
def lloyd_cases(draw):
    """(X, start centers, max_iter, rel_tol) with k <= n. Rows can repeat
    or sit on a coarse grid (exact distance ties); "dup" starts repeat a
    center and "far" starts put one far from every row, so both force
    empty-cluster relocation."""
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, min(n, 12)))
    d = draw(st.sampled_from([2, 5, 24]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, 4, (n, d)) / 4.0 if draw(st.booleans()) else rng.random((n, d))
    X = X[rng.integers(0, draw(st.integers(1, n)), n)]  # draws from the first m rows
    start = draw(st.sampled_from(["rows", "dup", "far"]))
    if start == "dup":
        C = X[rng.integers(0, n, k)]
    else:
        C = X[rng.choice(n, k, replace=False)]
        if start == "far":
            C[rng.integers(k)] += 10.0
    max_iter = draw(st.sampled_from([1, 2, 3, 5, 100]))
    rel_tol = draw(st.sampled_from([0.0, 1e-6, 1e-2]))
    return X, C, max_iter, rel_tol


def _lone_column_case():
    # rows 0 and 1, repeated in rows 4-7, sit on their start centers, so
    # after the first mean update only center 2 (start: row 2, mean:
    # midpoint of rows 2, 3) moves
    X = np.zeros((8, 24))
    X[[0, 4, 6], 0] = X[[1, 5, 7], 5] = 1.0
    X[2, 10], X[3, 10], X[3, 11] = 1.0, 1.0, 0.25
    return X, X[:3].copy(), 100, 1e-6


def _two_cluster_case():
    X, _ = two_group_table(np.random.default_rng(29), n_per=5, spread=0.05)
    return X, X[[0, 1]], 100, 1e-6


@settings(max_examples=200, deadline=None)
@given(lloyd_cases())
@example(_lone_column_case())
@example(_two_cluster_case())
def test_incremental_lloyd_equals_full_recompute(case):
    X, C, max_iter, rel_tol = case
    got = _lloyd(X, C, max_iter, rel_tol)
    want = full_recompute_lloyd(X, C, max_iter, rel_tol)
    for g, w in zip(got[:2], want[:2]):  # centers, labels
        assert np.array_equal(g, w)


def _lone_row_case():
    # rows 0-7 sit on their start centers in pairs; row 8 starts nearest
    # center 4, which the first mean update moves onto it, so center 4 is
    # the lone changed column and row 8 the lone row whose own center moved
    rng = np.random.default_rng(31)
    X = np.repeat(rng.random((4, 24)), 2, axis=0)
    X = np.vstack([X, X[0] + 10.0])
    C = np.vstack([X[::2][:4], X[8] + 0.25])
    return X, C, 100, 1e-6


@pytest.mark.parametrize("case, labels", [
    (_lone_column_case(), [0, 1, 2, 2, 0, 1, 0, 1]),
    (_lone_row_case(), [0, 0, 1, 1, 2, 2, 3, 3, 4]),
], ids=["lone_column", "lone_row"])
def test_every_distance_product_is_at_least_two_by_two(monkeypatch, case, labels):
    # a product with one row or one column goes through gemv, which rounds
    # differently from the full product's gemm; both cases refresh one
    # changed column, or the full row of one row, on the incremental path
    X, C, max_iter, rel_tol = case
    shapes = []

    def recording(X, C, xx=None):
        shapes.append((len(X), len(C)))
        return _pairwise_sq_dists(X, C, xx)

    monkeypatch.setattr(cluster, "_pairwise_sq_dists", recording)
    got = _lloyd(X, C, max_iter, rel_tol)
    assert got[1].tolist() == labels
    assert all(rows >= 2 and cols >= 2 for rows, cols in shapes), shapes
    n, k = X.shape[0], len(C)
    assert shapes[0] == (n, k)  # a cold start takes the full product
    assert (n, 2) in shapes and (2, k) in shapes  # the widened column and row


def test_blas_blocks_round_like_the_full_product():
    # _assign refreshes distance columns with X @ C[cols].T and full rows
    # with X[rows] @ C.T, and relies on every element of a product with
    # >= 2 rows and >= 2 columns rounding as the same element of the full
    # X @ C.T; a BLAS that breaks this fails here
    rng = np.random.default_rng(30)
    for n, k in [(2, 2), (7, 3), (500, 40), (3600, 100)]:
        X = unit_shapes(rng, n) * rng.gamma(2.0, size=(n, 1))
        C = unit_shapes(rng, k)
        full = X @ C.T
        for _ in range(25):
            cols = np.sort(rng.choice(k, int(rng.integers(2, k + 1)), replace=False))
            rows = rng.choice(n, int(rng.integers(2, n + 1)), replace=False)
            assert np.array_equal(X @ C[cols].T, full[:, cols])
            assert np.array_equal(X[rows] @ C.T, full[rows])
            assert np.array_equal(X[rows] @ C[cols].T, full[np.ix_(rows, cols)])


@st.composite
def assign_cases(draw):
    """(X, before, after, changed): n much larger than k, so that a small
    changed set takes the incremental path. The centers flagged in
    ``changed`` move from ``before`` to ``after``. Grid rows and grid
    centers tie exactly; "dup" moves centers onto other centers, changed or
    not; "lone" gives row 0 a far center of its own and moves only that
    center, onto row 0."""
    k = draw(st.integers(1, 8))
    n = draw(st.integers(max(2, 4 * k), 80))
    d = draw(st.sampled_from([2, 5, 24]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = draw(st.booleans())

    def points(m):
        return rng.integers(0, 4, (m, d)) / 4.0 if grid else rng.random((m, d))

    X = points(n)
    X = X[rng.integers(0, draw(st.integers(1, n)), n)]  # draws from the first m rows
    before = points(k)
    mode = draw(st.sampled_from(["none", "one", "some", "all", "dup", "lone"]))
    if mode in ("none", "all"):
        changed = np.full(k, mode == "all")
    elif mode in ("one", "lone"):
        changed = np.arange(k) == (rng.integers(k) if mode == "one" else 0)
    else:
        changed = rng.random(k) < 0.5
    after = before.copy()
    if mode == "dup":
        after[changed] = before[rng.integers(0, k, int(changed.sum()))]
    elif mode == "lone":
        X[0] += 10.0
        before[0] = X[0] + 0.25
        after[0] = X[0]
    else:
        after[changed] = points(int(changed.sum()))
    return X, before, after, changed


def nearest_by_full_product(X, C, xx):
    d2 = _pairwise_sq_dists(X, C, xx)
    labels = d2.argmin(axis=1)
    return labels, d2[np.arange(len(X)), labels]


@settings(max_examples=300, deadline=None)
@given(assign_cases())
def test_assign_equals_the_full_products_argmin(case):
    X, before, after, changed = case
    xx = (X**2).sum(axis=1)
    labels, d2min = nearest_by_full_product(X, before, xx)
    kept = labels.copy(), d2min.copy()
    got = cluster._assign(X, xx, after, labels, d2min, changed)
    want = nearest_by_full_product(X, after, xx)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    for g, w in zip((labels, d2min), kept):  # the caller's state is left as it was
        assert np.array_equal(g, w)


def cold_adaptive_kmeans(X, theta, k_init, seed):
    """Reference for adaptive_kmeans: the seed fit, every 2-means split and
    every round's re-convergence run full_recompute_lloyd from scratch."""
    rng = np.random.default_rng(seed)

    def fit(X, centers):
        return full_recompute_lloyd(X, centers, cluster.DEFAULT_MAX_ITER, cluster.DEFAULT_REL_TOL)

    centers, labels, _ = fit(X, cluster._kmeans_pp_init(X, min(k_init, len(X)), rng))
    rounds = 0
    while True:
        violating = cluster.rse_to_assigned(X, centers, labels) > theta
        if not violating.any() or rounds == cluster.MAX_SPLIT_ROUNDS:
            break
        new = []
        for c in range(len(centers)):
            rows = np.flatnonzero(labels == c)
            if violating[rows].any() and len(rows) >= 2:
                new.extend(fit(X[rows], cluster._kmeans_pp_init(X[rows], 2, rng))[0])
            else:
                new.append(centers[c])
        centers, labels, _ = fit(X, np.array(new))
        rounds += 1
    meta = {"phase": "adaptive", "seed": seed, "k_init": k_init, "split_rounds": rounds,
            "residual_violations": int(violating.sum()), "k1": len(centers)}
    return centers, labels, meta


@st.composite
def adaptive_cases(draw):
    """(X, theta, k_init, seed) for one adaptive fit. Rows can repeat or
    sit on a coarse grid (exact ties); no row is all zeros, so no centroid
    has zero norm."""
    n = draw(st.integers(2, 80))
    d = draw(st.sampled_from([3, 24]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X = rng.integers(1, 5, (n, d)) / 4.0
    else:
        X = rng.gamma(0.8, size=(n, d)) + 1e-3
    X = X[rng.integers(0, draw(st.integers(1, n)), n)]
    theta = draw(st.sampled_from([0.01, 0.05, 0.2, 0.5]))
    return X, theta, draw(st.integers(1, 6)), draw(st.integers(0, 2**16))


def _emptied_at_a_warm_start_case():
    # the third split round's first assignment leaves a cluster empty
    X = np.array([[25, 22], [20, 24], [21, 23], [21, 25], [20, 23], [24, 21], [25, 25],
                  [21, 23], [21, 21], [23, 20], [22, 20], [20, 21], [23, 21], [24, 20],
                  [20, 25], [23, 24]], dtype=float)
    return X, 0.0012, 2, 12926


@settings(max_examples=150, deadline=None)
@given(adaptive_cases())
@example(_emptied_at_a_warm_start_case())
def test_warm_started_adaptive_kmeans_equals_cold_rounds(case):
    X, theta, k_init, seed = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the split-round cap
        model = adaptive_kmeans(shape_table(X), theta, k_init, seed)
        centers, labels, meta = cold_adaptive_kmeans(X, theta, k_init, seed)
    assert np.array_equal(model.centroids, centers)
    assert np.array_equal(model.labels, labels)
    assert model.meta == meta


def test_a_warm_start_can_relocate_an_emptied_cluster(monkeypatch):
    # keeps the example above meaningful: a warm-started round's first
    # mean update does find an empty cluster
    log = []

    def lloyd(X, centers, max_iter=cluster.DEFAULT_MAX_ITER,
              rel_tol=cluster.DEFAULT_REL_TOL, warm=None):
        log.append("warm" if warm is not None else "cold")
        return _lloyd(X, centers, max_iter, rel_tol, warm)

    def group_means(*args):
        out = _group_means(*args)
        log.append(len(out[2]))
        return out

    monkeypatch.setattr(cluster, "_lloyd", lloyd)
    monkeypatch.setattr(cluster, "_group_means", group_means)
    X, *args = _emptied_at_a_warm_start_case()
    adaptive_kmeans(shape_table(X), *args)
    assert any(a == "warm" and b > 0 for a, b in zip(log, log[1:]))


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
    model = adaptive_kmeans(shape_table(X), theta=0.5, k_init=2, seed=3)
    assert model.n_clusters == 2
    assert model.violation_rate == 0.0
    # recovered split matches the generating groups (up to label swap)
    same = (model.labels == truth).mean()
    assert same in (0.0, 1.0)


def test_adaptive_splits_to_meet_threshold():
    # k_init=1 forces the threshold loop to discover the second group
    rng = np.random.default_rng(15)
    X, _ = two_group_table(rng)
    model = adaptive_kmeans(shape_table(X), theta=0.3, k_init=1, seed=3)
    assert model.n_clusters >= 2
    assert model.violation_rate == 0.0
    assert model.meta["split_rounds"] >= 1


def test_adaptive_single_repeated_shape():
    shape = np.full(24, 1 / 24)
    X = np.tile(shape, (50, 1))
    model = adaptive_kmeans(shape_table(X), theta=0.3, k_init=10, seed=0)
    assert model.n_clusters == 1
    assert np.allclose(model.centroids[0], shape, atol=1e-15)
    # the centroid is a 50-term mean of identical values, so the RSE floor
    # is accumulation noise around 1e-31, not an exact 0
    assert model.rse_per_shape().max() <= 1e-24


def test_adaptive_centroid_consistency_and_determinism():
    rng = np.random.default_rng(16)
    X = unit_shapes(rng, 400)
    m1 = adaptive_kmeans(shape_table(X), theta=0.2, k_init=5, seed=7)
    m2 = adaptive_kmeans(shape_table(X), theta=0.2, k_init=5, seed=7)
    assert np.array_equal(m1.centroids, m2.centroids)
    assert np.array_equal(m1.labels, m2.labels)
    means, counts, _ = add_at_group_means(m1.table.values, m1.labels, m1.n_clusters,
                                          np.zeros(m1.n_shapes))
    assert counts.min() > 0  # every centroid is the mean of its members
    assert np.abs(means - m1.centroids).max() <= 1e-9


def test_adaptive_split_cap_warns(monkeypatch):
    rng = np.random.default_rng(17)
    X = unit_shapes(rng, 300)
    monkeypatch.setattr(cluster, "MAX_SPLIT_ROUNDS", 2)
    with pytest.warns(UserWarning, match="cap 2 reached"):
        model = adaptive_kmeans(shape_table(X), theta=1e-6, k_init=2, seed=1)
    assert model.meta["split_rounds"] == 2
    assert model.meta["residual_violations"] > 0


def _model_from(X, labels, k, theta):
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    centroids = np.vstack([X[labels == c].mean(0) for c in range(k)])
    return ClusterModel(
        table=shape_table(X),
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
    model = adaptive_kmeans(shape_table(X), theta=0.5, k_init=3, seed=0)
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

    # ids out of row order: the lowest id pair (1, 3) sits in rows 1 and 2
    model.ids = np.array([5, 1, 3], dtype=np.int64)
    merged = hierarchical_merge(model, max_violation=0.7)
    assert merged.ids.tolist() == [1, 5]
    assert np.array_equal(merged.centroids, np.vstack([(c1 + c2) / 2, c0]))
    assert merged.ids[merged.labels].tolist() == [5, 5, 1, 1, 1, 1]


def _direct_distance_ties(draws, seed=5):
    """Centroid rows (c1 - v, c1, c1 + v), v on a 1/256 grid, kept where the
    direct squared distances of the middle row to the other two are equal
    bit for bit."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        c1 = rng.random(24)
        v = rng.integers(-16, 17, 24) / 256
        C = np.vstack([c1 - v, c1, c1 + v])
        d = ((C - C[1]) ** 2).sum(axis=1)
        if v.any() and d[0] == d[2]:
            yield C


def test_merge_breaks_direct_distance_ties_to_the_lowest_id_pair():
    # the two tied pairs: merging the one with two members sends two of six
    # rows over theta, which the budget admits; merging the one with five
    # sends five and breaks it, so which pair merged is visible
    cases = 0
    for C in _direct_distance_ties(400):
        cases += 1
        for rows, ids, kept in (
            ([0, 1, 2, 2, 2, 2], [0, 1, 2], [0, 2]),  # the lowest pair (0, 1) in rows 0, 1
            ([0, 0, 0, 0, 1, 2], [5, 1, 3], [1, 5]),  # out of row order: (1, 3) in rows 1, 2
        ):
            model = ClusterModel(table=shape_table(C[rows]), centroids=C.copy(),
                                 ids=np.array(ids, dtype=np.int64),
                                 labels=np.array(rows, dtype=np.int64), theta=1e-9, meta={})
            merged = hierarchical_merge(model, max_violation=0.5)
            assert merged.meta["merges"] == 1
            assert merged.ids.tolist() == kept
    assert cases > 100


def compacting_merge(model, max_violation):
    """Reference for hierarchical_merge: it puts the centroids in ascending
    id order, and after each merge it compacts the distance matrix and the
    centroid arrays and rescans every label.
    Returns (centroids, ids, labels, merges, tried), where ``tried`` holds
    the member count and merged centroid of every pair it tried."""
    X = model.table.values
    n = len(X)
    order = np.argsort(model.ids)
    centroids = model.centroids[order]
    ids = model.ids[order]
    labels = np.argsort(order)[model.labels]
    counts = np.bincount(labels, minlength=len(ids)).astype(np.int64)
    theta = model.theta
    violating = cluster.rse_to_assigned(X, centroids, labels) > theta
    viol_count = int(violating.sum())
    d2 = np.array([((centroids - c) ** 2).sum(axis=1) for c in centroids])
    np.fill_diagonal(d2, np.inf)
    tri = np.triu(np.ones_like(d2, dtype=bool), k=1)
    d2 = np.where(tri, d2, np.inf)
    merges, tried = 0, []
    while len(centroids) >= 2:
        flat = int(d2.argmin())
        p, q = divmod(flat, d2.shape[1])
        if not np.isfinite(d2[p, q]):
            break
        merged = (counts[p] * centroids[p] + counts[q] * centroids[q]) / (
            counts[p] + counts[q]
        )
        members = (labels == p) | (labels == q)
        tried.append((int(members.sum()), merged.tobytes()))
        new_rse = cluster.rse_to_assigned(
            X[members], merged[None, :], np.zeros(int(members.sum()), dtype=np.int64))
        new_viol = viol_count - int(violating[members].sum()) + int((new_rse > theta).sum())
        if new_viol / n >= max_violation:
            break
        centroids[p] = merged
        counts[p] += counts[q]
        labels[members] = p
        violating[members] = new_rse > theta
        viol_count = new_viol
        keep = np.arange(len(centroids)) != q
        centroids = centroids[keep]
        ids = ids[keep]
        counts = counts[keep]
        labels[labels > q] -= 1
        d2 = d2[keep][:, keep]
        dp = ((centroids - centroids[p]) ** 2).sum(axis=1)
        d2[p, p + 1:] = dp[p + 1:]
        d2[:p, p] = dp[:p]
        merges += 1
    return centroids, ids, labels, merges, tried


@st.composite
def merge_cases(draw):
    """(model, budget). Rows and centroids can sit on a coarse grid, so
    that centroid distances tie exactly; ids are shuffled and spaced."""
    n = draw(st.integers(2, 60))
    k = draw(st.integers(2, min(n, 14)))
    d = draw(st.sampled_from([2, 24]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = draw(st.booleans())
    X = rng.integers(1, 5, (n, d)) / 4.0 if grid else rng.random((n, d)) + 0.01
    labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
    rng.shuffle(labels)
    if draw(st.booleans()):
        centroids = np.vstack([X[labels == c].mean(0) for c in range(k)])
    else:  # far from the member means, and on the grid when X is
        centroids = X[rng.integers(0, n, k)]
    model = ClusterModel(
        table=shape_table(X), centroids=centroids,
        ids=rng.permutation(k).astype(np.int64) * 3 + 1, labels=labels,
        theta=draw(st.sampled_from([0.01, 0.1, 0.3, 1.0])), meta={},
    )
    return model, draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9]))


@settings(max_examples=300, deadline=None)
@given(merge_cases())
def test_merge_equals_the_compacting_loop(case):
    model, budget = case
    want_centroids, want_ids, want_labels, want_merges, want_tried = compacting_merge(
        model, budget)
    tried = []
    real = cluster.rse_to_assigned

    def recording(X, centroids, labels):
        if len(centroids) == 1:  # a merge candidate, not the initial rates
            tried.append((len(X), centroids[0].tobytes()))
        return real(X, centroids, labels)

    with mock.patch.object(cluster, "rse_to_assigned", recording):
        got = hierarchical_merge(model, budget)
    assert tried == want_tried
    assert np.array_equal(got.centroids, want_centroids)
    assert np.array_equal(got.ids, want_ids)
    assert np.array_equal(got.labels, want_labels)
    assert got.meta["merges"] == want_merges


def test_a_one_centroid_model_merges_to_itself():
    X = unit_shapes(np.random.default_rng(29), 5)
    model = _model_from(X, [0] * 5, 1, theta=1e-6)  # every shape violates theta
    model.ids = np.array([7], dtype=np.int64)
    model.meta = {"k1": 1}
    merged = hierarchical_merge(model, 0.05)
    assert np.array_equal(merged.centroids, model.centroids)
    assert np.array_equal(merged.ids, model.ids)
    assert np.array_equal(merged.labels, model.labels)
    assert merged.meta == {"k1": 1, "phase": "merged", "merge_max_violation": 0.05,
                           "merges": 0, "k2": 1}


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


def _cut_last_row(path):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1] + [lines[-1][:5]]))


def _edit_json(change):
    def edit(path):
        payload = json.loads(path.read_text())
        change(payload)
        path.write_text(json.dumps(payload))
    return edit


@pytest.mark.parametrize("name, damage, message", [
    ("labels.csv", lambda p: p.write_text(""), "labels.csv: no header"),
    ("labels.csv", lambda p: p.write_text("household_id,date\n"), "labels.csv: header"),
    ("labels.csv", _cut_last_row, "labels.csv: data row 60: expected 3 cells, got 2"),
    ("model.json", lambda p: p.write_text(p.read_text()[:100]), "model.json: not valid JSON"),
    ("model.json", lambda p: p.write_text("[1, 2]"), "model.json: not a JSON object"),
    ("model.json", lambda p: p.write_text('{"schema_version": 1}'),
     "model.json: missing key 'ids'"),
    ("model.json", _edit_json(lambda m: m.pop("counts")), "model.json: missing key 'counts'"),
    ("model.json", _edit_json(lambda m: m["centroids"][0].pop()),
     r"model.json: malformed value \(.*inhomogeneous"),
    ("model.json", _edit_json(lambda m: [row.pop() for row in m["centroids"]]),
     r"model.json: malformed value \(centroids of shape \(\d+, 23\)"),
    ("model.json", _edit_json(lambda m: m.update(ids=m["ids"][:-1])),
     r"model.json: malformed value \(centroids of shape \(\d+, 24\) for \d+ ids"),
    ("model.json", _edit_json(lambda m: m.update(theta="loose")),
     r"model.json: malformed value \('theta': could not convert"),
    ("model.json", _edit_json(lambda m: m.update(ids=["a"] * len(m["ids"]))),
     r"model.json: malformed value \('ids': invalid literal"),
    # values numpy would cast, but of the wrong JSON type
    ("model.json", _edit_json(lambda m: m.update(ids=[i + 0.4 for i in m["ids"]])),
     r"model.json: malformed value \('ids' holds 0.4, not a JSON integer\)"),
    ("model.json", _edit_json(lambda m: m.update(counts=[float(c) for c in m["counts"]])),
     r"model.json: malformed value \('counts' holds \d+\.0, not a JSON integer\)"),
    ("model.json", _edit_json(lambda m: m.update(theta=str(m["theta"]))),
     r"model.json: malformed value \('theta' holds '0.3', not a JSON number\)"),
    ("model.json", _edit_json(lambda m: m["centroids"][0].__setitem__(0, "0.25")),
     r"model.json: malformed value \('centroids' holds '0.25', not a JSON number\)"),
    ("model.json", _edit_json(lambda m: m.update(ids=[[i] for i in m["ids"]])),
     r"model.json: malformed value \('ids' has 2 dimensions, not 1\)"),
    ("model.json", _edit_json(lambda m: m.update(counts=[0] * len(m["counts"]))),
     "model.json: label counts disagree"),
])
def test_load_model_names_the_damaged_file(tmp_path, name, damage, message):
    table = _keyed_table(unit_shapes(np.random.default_rng(24), 60))
    model = adaptive_kmeans(table, theta=0.3, k_init=4, seed=2)
    save_model(model, tmp_path / "model.json", tmp_path / "labels.csv")
    damage(tmp_path / name)
    with pytest.raises(CorruptArtifactError, match=message):
        load_model(tmp_path / "model.json", tmp_path / "labels.csv", table)


def test_load_model_names_the_row_of_a_bad_cluster_id(tmp_path):
    table = _keyed_table(unit_shapes(np.random.default_rng(24), 60))
    model = adaptive_kmeans(table, theta=0.3, k_init=4, seed=2)
    save_model(model, tmp_path / "model.json", tmp_path / "labels.csv")
    lines = (tmp_path / "labels.csv").read_text().splitlines(keepends=True)
    lines[7] = lines[7].rsplit(",", 1)[0] + ",1e3\r\n"
    (tmp_path / "labels.csv").write_text("".join(lines))
    with pytest.raises(CorruptArtifactError,
                       match="labels.csv: data row 7: invalid literal for int"):
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
    table = shape_table(X)
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
    model = adaptive_kmeans(shape_table(X), theta=0.4, k_init=3, seed=5)
    assert model.violation_rate == 0.0
    # shrink theta: recomputation must see new violations immediately
    model.theta = 1e-9
    assert model.violation_rate > 0.0


def test_model_labels_naming_unknown_cluster_rejected(tmp_path):
    rng = np.random.default_rng(22)
    X = unit_shapes(rng, 20)
    table = shape_table(X)
    model = adaptive_kmeans(table, theta=0.5, k_init=2, seed=4)
    save_model(model, tmp_path / "model.json", tmp_path / "labels.csv")
    lines = (tmp_path / "labels.csv").read_text().splitlines(keepends=True)
    hid, date, _ = lines[3].rstrip("\r\n").split(",")
    lines[3] = f"{hid},{date},9999\r\n"
    (tmp_path / "labels.csv").write_text("".join(lines))
    with pytest.raises(CorruptArtifactError, match="9999"):
        load_model(tmp_path / "model.json", tmp_path / "labels.csv", table)


@pytest.mark.parametrize("kwargs,name", [
    ({"theta": float("nan")}, "theta"),
    ({"theta": float("inf")}, "theta"),
    ({"theta": 0.0}, "theta"),
    ({"k_init": 0}, "k_init"),
])
def test_adaptive_kmeans_rejects_bad_parameters(kwargs, name):
    X = unit_shapes(np.random.default_rng(26), 300)
    args = {"theta": 0.3, "k_init": 10, "seed": 0, **kwargs}
    with pytest.raises(ValueError, match=name):
        adaptive_kmeans(shape_table(X), **args)


@pytest.mark.parametrize("fit", [
    lambda X: kmeans(X, 3, seed=0),
    lambda X: adaptive_kmeans(shape_table(X), theta=0.3, seed=0),
])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_fits_name_the_first_non_finite_row(fit, bad):
    X = unit_shapes(np.random.default_rng(32), 40)
    X[17, 5] = X[30, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"row 17 holds a non-finite value"):
            fit(X)


@pytest.mark.parametrize("fit", [
    lambda X: kmeans(X, 3, seed=0),
    lambda X: adaptive_kmeans(shape_table(X), theta=0.3, seed=0),
])
@pytest.mark.parametrize("shape", [(24,), (2, 3, 24)])
def test_fits_reject_an_array_that_is_not_a_table_of_rows(fit, shape):
    with pytest.raises(ValueError, match=rf"2-D array.*got shape {re.escape(str(shape))}"):
        fit(np.full(shape, 1 / 24))


@pytest.mark.parametrize("kwargs,name", [
    ({"k": 0}, "k"),
    ({"k": -2}, "k"),
    ({"rel_tol": float("inf")}, "rel_tol"),
    ({"rel_tol": -1.0}, "rel_tol"),
    ({"n_init": 0}, "n_init"),
])
def test_kmeans_rejects_bad_parameters(kwargs, name):
    X = unit_shapes(np.random.default_rng(27), 300)
    args = {"k": 3, "seed": 0, **kwargs}
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        kmeans(X, **args)


@pytest.mark.parametrize("fit,name", [
    (adaptive_kmeans, "max_split_rounds"),  # MAX_SPLIT_ROUNDS caps the split rounds
    (kmeans, "max_iter"),  # DEFAULT_MAX_ITER caps the Lloyd iterations
])
def test_fixed_fit_setting_is_no_parameter(fit, name):
    X = unit_shapes(np.random.default_rng(26), 300)
    args = {"theta": 0.3} if fit is adaptive_kmeans else {"k": 3}
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        fit(X, seed=0, **args, **{name: 5})


def test_save_model_requires_a_labels_path(tmp_path):
    model = adaptive_kmeans(shape_table(unit_shapes(np.random.default_rng(26), 300)),
                            theta=0.3, seed=0)
    with pytest.raises(TypeError, match="labels_path"):
        save_model(model, tmp_path / "model.json")
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("budget", [float("nan"), 1.0, 1.5, -0.01, float("inf")])
def test_merge_rejects_budget_outside_unit_interval(budget):
    rng = np.random.default_rng(28)
    X = unit_shapes(rng, 40)
    model = _model_from(X, np.arange(40) % 4, 4, theta=0.3)
    with pytest.raises(ValueError, match="max_violation"):
        hierarchical_merge(model, max_violation=budget)
