import datetime as dt
import json

import numpy as np
import pytest

from loadshapes.cluster import ClusterModel, _bare_table
from loadshapes.dictionary import (
    AssignmentTable,
    ClusterDictionary,
    _dictionary_digest,
    assign_all,
    load_dictionary,
    save_dictionary,
    truncate,
)
from loadshapes.errors import (
    CorruptArtifactError,
    EmptyInputError,
    VersionMismatchError,
)
from loadshapes.preprocess import ShapeTable


def unit_shapes(rng, n):
    x = rng.random((n, 24))
    return x / x.sum(axis=1, keepdims=True)


def make_model(X, labels, theta, day_kwh=None):
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    k = labels.max() + 1
    centroids = np.vstack([X[labels == c].mean(0) for c in range(k)])
    table = _bare_table(X)
    if day_kwh is not None:
        table.day_total_kwh = np.asarray(day_kwh, dtype=float)
    return ClusterModel(
        table=table,
        centroids=centroids,
        ids=np.arange(k, dtype=np.int64),
        labels=labels,
        theta=theta,
        meta={},
    )


def spaced_shapes(k):
    """k concentrated shapes far apart (one hot hour each)."""
    shapes = np.full((k, 24), 1e-4)
    for i in range(k):
        shapes[i, (3 * i) % 24] = 1.0
    return shapes / shapes.sum(axis=1, keepdims=True)


def toy_counts_model(counts=(90, 8, 2), theta=0.3):
    """Clusters of the given sizes, mutually far apart; every re-homed
    orphan violates theta."""
    base = spaced_shapes(len(counts))
    rows, labels = [], []
    for c, n in enumerate(counts):
        rows.extend([base[c]] * n)
        labels.extend([c] * n)
    return make_model(np.array(rows), labels, theta)


def test_truncate_toy_90_8_2_hand_simulation():
    # V=0.10, N=100, cap=10: clusters with counts 2 then 8 go (cumulative
    # 10), the orphans re-home to the remaining cluster and all violate,
    # so the recomputed rate 0.10 >= V ends the loop with one cluster
    model = toy_counts_model()
    dictionary = truncate(model, 0.10)
    assert len(dictionary) == 1
    assert dictionary.member_counts.tolist() == [100]
    assert dictionary.provenance["entry_violation_rate"] == 0.0
    assert dictionary.provenance["exit_violation_rate"] == pytest.approx(0.10)
    assert dictionary.provenance["truncation_rounds"] == 1


def test_truncate_already_violating_returns_unchanged():
    rng = np.random.default_rng(30)
    base = spaced_shapes(3)
    rows, labels = [], []
    for c, n in enumerate((90, 8, 2)):
        noisy = base[c] + rng.normal(0, 1e-3, (n, 24))
        rows.extend(noisy)
        labels.extend([c] * n)
    model = make_model(np.array(rows), labels, theta=1e-9)
    assert model.violation_rate == 1.0  # >= V: loop body never runs
    dictionary = truncate(model, 0.10)
    assert len(dictionary) == 3
    assert sorted(dictionary.member_counts.tolist()) == [2, 8, 90]
    assert dictionary.provenance["truncation_rounds"] == 0


def test_truncate_conserves_membership():
    rng = np.random.default_rng(31)
    X = unit_shapes(rng, 400)
    labels = rng.integers(0, 12, 400)
    labels[:12] = np.arange(12)  # every cluster non-empty
    model = make_model(X, labels, theta=0.05)
    for v in (0.05, 0.10, 0.30, 0.8):
        dictionary = truncate(model, v)
        assert dictionary.member_counts.sum() == 400


def test_truncate_size_non_increasing_in_v():
    rng = np.random.default_rng(32)
    X = unit_shapes(rng, 500)
    labels = rng.integers(0, 15, 500)
    labels[:15] = np.arange(15)
    model = make_model(X, labels, theta=0.1)
    sizes = [len(truncate(model, v)) for v in (0.05, 0.10, 0.30)]
    assert sizes == sorted(sizes, reverse=True)


def test_truncate_removes_at_least_one_cluster_per_round():
    # cap floor(V*N) smaller than the smallest cluster still removes one
    model = toy_counts_model(counts=(50, 50))
    dictionary = truncate(model, 0.02)  # cap = floor(0.02*100) = 2 < 50
    assert len(dictionary) == 1
    assert dictionary.member_counts.tolist() == [100]


def test_truncate_tie_breaks_by_cluster_id():
    model = toy_counts_model(counts=(10, 10, 80), theta=0.3)
    # cap floor(0.10*100)=10: the count tie between ids 0 and 1 breaks to
    # id 0; its 10 orphans all violate, so the loop stops right after
    dictionary = truncate(model, 0.10)
    assert len(dictionary) == 2
    assert 0 not in dictionary.provenance["source_cluster_ids"]
    assert 1 in dictionary.provenance["source_cluster_ids"]


def test_truncate_validates_budget():
    model = toy_counts_model()
    for v in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            truncate(model, v)


def test_dictionary_ordering_by_kwh():
    rng = np.random.default_rng(36)
    base = spaced_shapes(3)
    labels = [0] * 5 + [1] * 3 + [2] * 2
    noise = rng.normal(0, 1e-3, (10, 24))
    noise -= noise.mean(axis=1, keepdims=True)  # keep rows unit-sum
    rows = base[labels] + noise
    # cluster 2 members carry huge kWh, so it ranks first despite count 2
    kwh = [1.0] * 5 + [2.0] * 3 + [100.0] * 2
    # theta tiny: the model enters truncation already violating, so the
    # cluster set is untouched and only ordering is exercised
    model = make_model(rows, labels, theta=1e-9, day_kwh=kwh)
    dictionary = truncate(model, 0.5)
    assert dictionary.ids.tolist() == [1, 2, 3]
    assert dictionary.member_kwh.tolist() == [200.0, 6.0, 5.0]
    assert dictionary.member_counts.tolist() == [2, 3, 5]
    dictionary.validate()


def small_dictionary(k=4):
    values = spaced_shapes(k)
    return ClusterDictionary(
        values=values,
        ids=np.arange(1, k + 1, dtype=np.int64),
        member_counts=np.full(k, 10, dtype=np.int64),
        member_kwh=np.arange(k, 0, -1, dtype=float) * 100,
        member_discretionary_kwh=np.arange(k, 0, -1, dtype=float) * 50,
        theta=0.3,
        truncation_v=0.3,
        provenance={"note": "test"},
    )


def test_assign_identical_shape_distance_zero():
    dictionary = small_dictionary()
    out = assign_all(dictionary.values[2][None, :], dictionary)
    assert out.cluster_ids.tolist() == [3]
    assert out.distances[0] == 0.0
    assert out.rses[0] == 0.0


def test_assign_tie_goes_to_lowest_id():
    dictionary = small_dictionary(k=2)
    midpoint = (dictionary.values[0] + dictionary.values[1]) / 2
    out = assign_all(midpoint[None, :], dictionary)
    assert out.cluster_ids.tolist() == [1]


def swap_tie_cases(rng, n):
    """(a, b, x): b is a with two hours swapped and x holds a with both of
    those hours set to their midpoint, so the direct squared distances from
    x to a and to b are equal bit for bit."""
    cases = []
    for _ in range(n):
        a = unit_shapes(rng, 1)[0]
        i, j = rng.choice(24, size=2, replace=False)
        b = a.copy()
        b[[i, j]] = a[[j, i]]
        x = a.copy()
        x[i] = x[j] = (a[i] + a[j]) / 2
        cases.append((a, b, x))
    return cases


def two_shape_dictionary(first, second, ids=(1, 2)):
    return ClusterDictionary(
        values=np.vstack([first, second]),
        ids=np.array(ids, dtype=np.int64),
        member_counts=np.full(2, 10, dtype=np.int64),
        member_kwh=np.array([2.0, 1.0]),
        member_discretionary_kwh=np.array([2.0, 1.0]),
        theta=0.3,
        truncation_v=0.3,
    )


def test_assign_exact_ties_go_to_lowest_id():
    rng = np.random.default_rng(36)
    wrong = []
    for a, b, x in swap_tie_cases(rng, 2000):
        assert ((x - a) ** 2).sum() == ((x - b) ** 2).sum()
        for first, second, ids in ((a, b, (1, 2)), (b, a, (1, 2)), (a, b, (2, 1))):
            out = assign_all(x[None, :], two_shape_dictionary(first, second, ids))
            if out.cluster_ids[0] != 1:
                wrong.append(ids)
    assert wrong == []


def test_assign_matches_brute_force():
    rng = np.random.default_rng(33)
    X = unit_shapes(rng, 100)
    values = unit_shapes(rng, 10)
    dictionary = ClusterDictionary(
        values=values,
        ids=np.arange(1, 11, dtype=np.int64),
        member_counts=np.full(10, 5, dtype=np.int64),
        member_kwh=np.arange(10, 0, -1, dtype=float),
        member_discretionary_kwh=np.arange(10, 0, -1, dtype=float),
        theta=0.3,
        truncation_v=0.3,
    )
    out = assign_all(X, dictionary, chunk_size=17)
    d2 = ((X[:, None, :] - values[None, :, :]) ** 2).sum(axis=2)
    expected = d2.argmin(axis=1) + 1
    assert np.array_equal(out.cluster_ids, expected)
    assert np.allclose(out.distances, np.sqrt(d2.min(axis=1)), atol=1e-12)
    denom = (values**2).sum(axis=1)
    assert np.allclose(out.rses, d2.min(axis=1) / denom[d2.argmin(axis=1)], atol=1e-12)


def test_assign_idempotent_and_worker_independent():
    rng = np.random.default_rng(34)
    X = unit_shapes(rng, 500)
    dictionary = small_dictionary()
    one = assign_all(X, dictionary, workers=1, chunk_size=64)
    four = assign_all(X, dictionary, workers=4, chunk_size=64)
    assert np.array_equal(one.cluster_ids, four.cluster_ids)
    assert np.array_equal(one.distances, four.distances)
    again = assign_all(X, dictionary, workers=1, chunk_size=64)
    assert np.array_equal(one.cluster_ids, again.cluster_ids)


def test_assign_does_not_depend_on_chunking():
    rng = np.random.default_rng(37)
    k = 99
    values = unit_shapes(rng, k)
    dictionary = ClusterDictionary(
        values=values,
        ids=np.arange(1, k + 1, dtype=np.int64),
        member_counts=np.full(k, 5, dtype=np.int64),
        member_kwh=np.arange(k, 0, -1, dtype=float),
        member_discretionary_kwh=np.arange(k, 0, -1, dtype=float),
        theta=0.3,
        truncation_v=0.3,
    )
    ties = [x for _, _, x in swap_tie_cases(rng, 50)]
    X = np.vstack([unit_shapes(rng, 9000), values[::7], ties])
    n = len(X)
    table = ShapeTable(X, np.array([f"h{i % 40}" for i in range(n)], dtype=object),
                       np.array([dt.date(2011, 1, 1)] * n, dtype=object),
                       np.ones(n), np.ones(n))
    for shapes in (table, X):
        ref = assign_all(shapes, dictionary)
        for chunk_size in (1, 7, 8192, 65536, n):
            for workers in (1, 4):
                out = assign_all(shapes, dictionary, workers=workers,
                                 chunk_size=chunk_size)
                assert np.array_equal(out.cluster_ids, ref.cluster_ids)
                assert np.array_equal(out.distances, ref.distances)
                assert np.array_equal(out.rses, ref.rses)


def test_assign_empty_dictionary_rejected():
    empty = ClusterDictionary(
        values=np.empty((0, 24)),
        ids=np.empty(0, dtype=np.int64),
        member_counts=np.empty(0, dtype=np.int64),
        member_kwh=np.empty(0),
        member_discretionary_kwh=np.empty(0),
        theta=0.3,
        truncation_v=0.3,
    )
    with pytest.raises(EmptyInputError):
        assign_all(np.full((3, 24), 1 / 24), empty)


def test_dictionary_save_load_round_trip(tmp_path):
    dictionary = small_dictionary()
    path = tmp_path / "dictionary.json"
    save_dictionary(dictionary, path)
    back = load_dictionary(path)
    assert np.array_equal(back.values, dictionary.values)
    assert np.array_equal(back.ids, dictionary.ids)
    assert np.array_equal(back.member_counts, dictionary.member_counts)
    assert back.theta == dictionary.theta
    assert back.provenance["note"] == "test"


def test_dictionary_load_rejects_tampered_digest(tmp_path):
    dictionary = small_dictionary()
    path = tmp_path / "dictionary.json"
    save_dictionary(dictionary, path)
    payload = json.loads(path.read_text())
    payload["centroids"][0][0] += 0.001
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptArtifactError, match="digest"):
        load_dictionary(path)


def test_dictionary_load_rejects_bad_centroid_sum(tmp_path):
    dictionary = small_dictionary()
    path = tmp_path / "dictionary.json"
    save_dictionary(dictionary, path)
    payload = json.loads(path.read_text())
    payload["centroids"][1] = [0.5] * 24  # sums to 12, digest regenerated
    payload["digest"] = _dictionary_digest(
        np.asarray(payload["ids"]), np.asarray(payload["centroids"])
    )
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptArtifactError, match="sums to"):
        load_dictionary(path)


def test_dictionary_load_version_mismatch_names_versions(tmp_path):
    dictionary = small_dictionary()
    path = tmp_path / "dictionary.json"
    save_dictionary(dictionary, path)
    payload = json.loads(path.read_text())
    payload["schema_version"] = 7
    path.write_text(json.dumps(payload))
    with pytest.raises(VersionMismatchError) as err:
        load_dictionary(path)
    assert "7" in str(err.value) and "1" in str(err.value)


def test_assignments_csv_round_trip(tmp_path):
    rng = np.random.default_rng(35)
    X = unit_shapes(rng, 12)
    table = ShapeTable(
        X,
        [f"H{i % 3}" for i in range(12)],
        [dt.date(2011, 7, 1) + dt.timedelta(days=i // 3) for i in range(12)],
        rng.uniform(5, 20, 12),
        rng.uniform(2, 10, 12),
    )
    out = assign_all(table, small_dictionary())
    path = tmp_path / "assignments.csv"
    out.write_csv(path)
    back = AssignmentTable.read_csv(path, table)
    assert np.array_equal(back.cluster_ids, out.cluster_ids)
    assert np.array_equal(back.distances, out.distances)
    assert np.array_equal(back.rses, out.rses)
    assert np.array_equal(back.day_total_kwh, table.day_total_kwh)


def test_assignments_read_rejects_misaligned_middle_row(tmp_path):
    rng = np.random.default_rng(36)
    X = unit_shapes(rng, 5)
    table = ShapeTable(
        X,
        ["H0", "H1", "H2", "H3", "H4"],
        [dt.date(2011, 7, 1)] * 5,
        np.ones(5),
        np.ones(5),
    )
    path = tmp_path / "assignments.csv"
    assign_all(table, small_dictionary()).write_csv(path)
    lines = path.read_text().splitlines(keepends=True)
    lines[2], lines[4] = lines[4], lines[2]  # swap data rows 2 and 4; ends intact
    path.write_text("".join(lines))
    with pytest.raises(CorruptArtifactError, match="aligned"):
        AssignmentTable.read_csv(path, table)
