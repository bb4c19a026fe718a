import datetime as dt
import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from loadshapes import dictionary as dictionary_module
from loadshapes.cluster import ClusterModel, adaptive_kmeans, save_model
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
from loadshapes.ingest import _frozen
from loadshapes.preprocess import ShapeTable
from shape_rows import shape_table


def unit_shapes(rng, n):
    x = rng.random((n, 24))
    return x / x.sum(axis=1, keepdims=True)


def make_model(X, labels, theta, day_kwh=None):
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    k = labels.max() + 1
    centroids = np.vstack([X[labels == c].mean(0) for c in range(k)])
    table = shape_table(X)
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
    empty = ClusterModel(table=shape_table(np.empty((0, 24))), centroids=np.empty((0, 24)),
                         ids=np.empty(0, dtype=np.int64), labels=np.empty(0, dtype=np.int64),
                         theta=0.3)
    with pytest.raises(EmptyInputError, match="cannot truncate an empty model"):
        truncate(empty, 0.3)


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
    out = assign_all(shape_table(dictionary.values[2][None, :]), dictionary)
    assert out.cluster_ids.tolist() == [3]
    assert out.distances[0] == 0.0
    assert out.rses[0] == 0.0


def test_assign_tie_goes_to_lowest_id():
    dictionary = small_dictionary(k=2)
    midpoint = (dictionary.values[0] + dictionary.values[1]) / 2
    out = assign_all(shape_table(midpoint[None, :]), dictionary)
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
            out = assign_all(shape_table(x[None, :]), two_shape_dictionary(first, second, ids))
            if out.cluster_ids[0] != 1:
                wrong.append(ids)
    assert wrong == []


def test_truncate_rehomes_exact_ties_to_lowest_id():
    # clusters 0 and 1 hold 10 exact copies of their centroid, cluster 2
    # holds x alone: cap = floor(0.04 * 21) = 0, so the one round removes
    # cluster 2, and x is equally far from both survivors
    rng = np.random.default_rng(38)
    wrong = []
    for a, b, x in swap_tie_cases(rng, 2000):
        for first, second in ((a, b), (b, a)):
            model = ClusterModel(
                table=shape_table(np.vstack([first] * 10 + [second] * 10 + [x])),
                centroids=np.vstack([first, second, x]),
                ids=np.arange(3, dtype=np.int64),
                labels=np.repeat(np.arange(3, dtype=np.int64), [10, 10, 1]),
                theta=1e-12,
            )
            dictionary = truncate(model, 0.04)
            assert dictionary.provenance["truncation_rounds"] == 1
            # by descending member kWh: x's 11 days lead, so its cluster is first
            order = dictionary.provenance["source_cluster_ids"]
            if order != [0, 1]:
                wrong.append(order)
    assert wrong == []


def test_assign_matches_brute_force(monkeypatch):
    monkeypatch.setattr(dictionary_module, "NEAREST_CHUNK_ROWS", 17)
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
    out = assign_all(shape_table(X), dictionary)
    d2 = ((X[:, None, :] - values[None, :, :]) ** 2).sum(axis=2)
    expected = d2.argmin(axis=1) + 1
    assert np.array_equal(out.cluster_ids, expected)
    assert np.allclose(out.distances, np.sqrt(d2.min(axis=1)), atol=1e-12)
    denom = (values**2).sum(axis=1)
    assert np.allclose(out.rses, d2.min(axis=1) / denom[d2.argmin(axis=1)], atol=1e-12)


def test_assign_idempotent_and_worker_independent(monkeypatch):
    monkeypatch.setattr(dictionary_module, "NEAREST_CHUNK_ROWS", 64)
    rng = np.random.default_rng(34)
    table = shape_table(unit_shapes(rng, 500))
    dictionary = small_dictionary()
    one = assign_all(table, dictionary, workers=1)
    four = assign_all(table, dictionary, workers=4)
    assert np.array_equal(one.cluster_ids, four.cluster_ids)
    assert np.array_equal(one.distances, four.distances)
    again = assign_all(table, dictionary, workers=1)
    assert np.array_equal(one.cluster_ids, again.cluster_ids)


def test_one_worker_searches_in_the_calling_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-worker search started a thread pool")

    monkeypatch.setattr(dictionary_module, "NEAREST_CHUNK_ROWS", 64)
    monkeypatch.setattr(dictionary_module, "ThreadPoolExecutor", no_pool)
    rng = np.random.default_rng(35)
    table = shape_table(unit_shapes(rng, 300))
    dictionary = small_dictionary()
    out = assign_all(table, dictionary, workers=1)
    monkeypatch.setattr(dictionary_module, "ThreadPoolExecutor", ThreadPoolExecutor)
    pooled = assign_all(table, dictionary, workers=2)
    assert np.array_equal(out.cluster_ids, pooled.cluster_ids)
    assert np.array_equal(out.rses, pooled.rses)


def test_assign_does_not_depend_on_chunking(monkeypatch):
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
    ref = assign_all(table, dictionary)
    for chunk_rows in (1, 7, 8192, 65536, n):
        monkeypatch.setattr(dictionary_module, "NEAREST_CHUNK_ROWS", chunk_rows)
        for workers in (1, 4):
            out = assign_all(table, dictionary, workers=workers)
            assert np.array_equal(out.cluster_ids, ref.cluster_ids)
            assert np.array_equal(out.distances, ref.distances)
            assert np.array_equal(out.rses, ref.rses)


def empty_dictionary():
    return ClusterDictionary(
        values=np.empty((0, 24)),
        ids=np.empty(0, dtype=np.int64),
        member_counts=np.empty(0, dtype=np.int64),
        member_kwh=np.empty(0),
        member_discretionary_kwh=np.empty(0),
        theta=0.3,
        truncation_v=0.3,
    )


def test_assign_empty_dictionary_rejected():
    with pytest.raises(EmptyInputError):
        assign_all(shape_table(np.full((3, 24), 1 / 24)), empty_dictionary())


@pytest.mark.parametrize("call", [
    lambda X: adaptive_kmeans(X, theta=float("nan"), seed=0),
    lambda X: assign_all(X, empty_dictionary()),
], ids=["adaptive_kmeans", "assign_all"])
def test_table_layer_rejects_a_bare_array(call):
    # the type is checked first: a bad theta or an empty dictionary is not reached
    with pytest.raises(TypeError, match="needs a ShapeTable, got ndarray"):
        call(np.full((3, 24), 1 / 24))


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
    assert back.digest == json.loads(path.read_text())["digest"]
    assert dictionary.digest is None  # built in memory, never verified


def test_frozen_model_and_dictionary_save_the_same_bytes(tmp_path):
    """_frozen reaches into nested metadata, and the writers save a frozen
    model or dictionary as they save it unfrozen."""
    model = toy_counts_model()
    model.meta = {"k1": 3, "rounds": [{"k": 3, "ids": [0, 1, 2]}]}
    save_model(model, tmp_path / "plain_model.json", tmp_path / "plain_labels.csv")
    save_dictionary(truncate(model, 0.3), tmp_path / "plain.json")
    assert _frozen(model) is model
    with pytest.raises(TypeError):
        model.meta["rounds"][0]["k"] = 0
    save_model(model, tmp_path / "frozen_model.json", tmp_path / "frozen_labels.csv")
    dictionary = _frozen(truncate(model, 0.3))
    with pytest.raises(TypeError):
        dictionary.provenance["model_meta"]["rounds"][0]["k"] = 0
    assert isinstance(dictionary.provenance["source_cluster_ids"], tuple)
    save_dictionary(dictionary, tmp_path / "frozen.json")
    for plain, frozen in (("plain_model.json", "frozen_model.json"),
                          ("plain_labels.csv", "frozen_labels.csv"),
                          ("plain.json", "frozen.json")):
        assert (tmp_path / frozen).read_bytes() == (tmp_path / plain).read_bytes()


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


def _redigest(payload, **changes):
    """Apply ``changes`` to a dictionary.json payload and record the digest
    of its new ids and centroids, so only the invariant checks can fail."""
    payload.update(changes)
    payload["digest"] = _dictionary_digest(
        np.asarray(payload["ids"]), np.asarray(payload["centroids"])
    )


@pytest.mark.parametrize("damage, message", [
    (lambda d: d.clear() or d.update(schema_version=1), "missing key 'ids'"),
    (lambda d: d.pop("member_kwh"), "missing key 'member_kwh'"),
    (lambda d: d["centroids"][0].pop(), r"malformed value \(.*inhomogeneous"),
    (lambda d: [row.pop() for row in d["centroids"]],
     r"malformed value \(centroids of shape \(\d+, 23\)"),
    (lambda d: d.update(centroids=[]), r"malformed value \('centroids' has 1 dimensions, not 2\)"),
    (lambda d: d.update(theta="tight"), r"malformed value \('theta': could not convert"),
    (lambda d: d.update(member_counts=[1, None]),
     r"malformed value \('member_counts': .*NoneType"),
    # values numpy would cast, but of the wrong JSON type; cast, the ids
    # [1, 2, 3, 4] would match the recorded digest
    (lambda d: d.update(ids=[1.9, "2", 3, 4]),
     r"malformed value \('ids' holds 1.9, not a JSON integer\)"),
    (lambda d: d.update(ids=[True, 2, 3, 4]),
     r"malformed value \('ids' holds True, not a JSON integer\)"),
    (lambda d: d.update(member_counts=[10.7, 10, 10, 10]),
     r"malformed value \('member_counts' holds 10.7, not a JSON integer\)"),
    (lambda d: d["member_kwh"].__setitem__(0, "400.0"),
     r"malformed value \('member_kwh' holds '400.0', not a JSON number\)"),
    (lambda d: d.update(theta="0.3"),
     r"malformed value \('theta' holds '0.3', not a JSON number\)"),
    (lambda d: d.update(truncation_v=True),
     r"malformed value \('truncation_v' holds True, not a JSON number\)"),
    (lambda d: d.update(ids=[2**70, 2, 3, 4]), r"malformed value \('ids': Python int too large"),
    (lambda d: d.update(theta=[0.3]), r"malformed value \('theta' has 1 dimensions, not 0\)"),
    (lambda d: _redigest(d, centroids=[[0.5] * 24, *d["centroids"][1:]]),
     "dictionary shape id 1 sums to 12.0"),
    (lambda d: _redigest(d, centroids=[d["centroids"][0], [float("nan")] * 24,
                                       *d["centroids"][2:]]),
     "dictionary shape id 2 sums to nan"),
    (lambda d: _redigest(d, ids=[1] * len(d["ids"])), "dictionary ids are not unique"),
    (lambda d: d.update(member_kwh=d["member_kwh"][::-1]),
     "dictionary rows are not ordered by descending member kWh"),
])
def test_dictionary_load_names_the_file_of_a_malformed_payload(tmp_path, damage, message):
    """A dictionary.json that is valid JSON but lacks a key or holds a value
    of the wrong type or shape is reported as a damaged file, by name."""
    path = tmp_path / "dictionary.json"
    save_dictionary(small_dictionary(), path)
    payload = json.loads(path.read_text())
    damage(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(CorruptArtifactError, match=f"dictionary.json: {message}"):
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
    with pytest.raises(CorruptArtifactError,
                       match=r"assignments.csv: .*not aligned \(first at data row 2\)"):
        AssignmentTable.read_csv(path, table)
    with pytest.raises(CorruptArtifactError, match="assignments.csv: .*row counts differ"):
        AssignmentTable.read_csv(path, table.take([0, 1, 2, 3]))


@pytest.mark.parametrize("line, message", [
    ("H1,2011-07-02,1,0.5", "data row 2: expected 5 cells, got 4"),
    ("H1,2011-07-32,1,0.5,0.1", "data row 2: day is out of range"),
    ("H1,2011-07-02,x,0.5,0.1", "data row 2: invalid literal for int"),
    ("H1,2011-07-02,1,0.5,", "data row 2: could not convert"),
])
def test_assignments_read_names_file_and_row_of_a_bad_row(tmp_path, line, message):
    path = tmp_path / "assignments.csv"
    path.write_text("household_id,date,cluster_id,distance,rse\n"
                    f"H0,2011-07-01,1,0.5,0.1\n{line}\n")
    # the parse fails before the join with the shapes
    shapes = ShapeTable(unit_shapes(np.random.default_rng(37), 2), ["H0", "H1"],
                        [dt.date(2011, 7, 1), dt.date(2011, 7, 2)], np.ones(2), np.ones(2))
    with pytest.raises(CorruptArtifactError, match=f"assignments.csv: {message}"):
        AssignmentTable.read_csv(path, shapes)
