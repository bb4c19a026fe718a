"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[PASS]/[FAIL] criterion N` line (visible with
`pytest -s` or in failure reports). The heavyweight corpora and pipeline
runs are shared module-scoped fixtures, so the suite stays within a few
minutes on a single core.
"""

import datetime as dt
import filecmp
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from loadshapes.analytics import (
    build_frame,
    characteristic_entropy_delta,
    coverage_curve,
    davies_bouldin,
    entropy,
    household_entropy,
)
from loadshapes.cluster import adaptive_kmeans, hierarchical_merge, rse
from loadshapes.dictionary import (
    AssignmentTable,
    ClusterDictionary,
    assign_all,
    truncate,
)
from loadshapes.ingest import DayTable
from loadshapes.pipeline import RunConfig, run_pipeline
from loadshapes.preprocess import ShapeTable, normalize, preprocess_days, shape_from_day
from loadshapes.synthetic import GeneratorConfig, generate_synthetic
from shape_rows import shape_table
from test_cluster import best_of_inits

ARTIFACTS = (
    "shapes.csv", "cleaning_report.csv", "model.json", "labels.csv",
    "dictionary.json", "assignments.csv", "entropy_by_stratum.csv",
    "coverage_curve.csv", "taxonomy.csv", "household_entropy.csv",
    "char_deltas.csv", "occurrence_map.csv",
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared corpora


@pytest.fixture(scope="module")
def recovery_chain(tmp_path_factory):
    """Five well-separated archetypes plus spike/fuzz outlier mass, pushed
    through preprocess -> adaptive k-means -> merge -> truncate -> assign."""
    config = GeneratorConfig(
        archetypes=5, households=200, days=120,
        noise_level=0.05, temperature_response=1.0,
        outlier_rate=0.27, fuzz_rate=0.04,
    )
    corpus = generate_synthetic(config, seed=42)
    table, _ = preprocess_days(corpus.days)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = adaptive_kmeans(table, theta=0.3, k_init=10, seed=42)
        merged = hierarchical_merge(model, 0.05)
        dictionary = truncate(merged, 0.30)
        assignments = assign_all(table, dictionary)
    elapsed = time.perf_counter() - t0
    return {
        "corpus": corpus,
        "table": table,
        "model": model,
        "merged": merged,
        "dictionary": dictionary,
        "assignments": assignments,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def sweep_table():
    config = GeneratorConfig(
        archetypes=5, households=100, days=180,
        noise_level=0.25, temperature_response=1.0,
    )
    corpus = generate_synthetic(config, seed=21)
    table, _ = preprocess_days(corpus.days)
    assert len(table) <= 20_000
    return table


@pytest.fixture(scope="module")
def big_run(tmp_path_factory):
    """500 households x 365 days (~180K shapes): one corpus, two full
    pipeline runs into separate directories."""
    base = tmp_path_factory.mktemp("big")
    config = GeneratorConfig(
        archetypes=5, households=500, days=365,
        noise_level=0.25, temperature_response=1.0,
        entropy_bias={"electric_dryer": 0.4, "elderly": -0.3},
        bad_day_rate=0.06,
    )
    corpus = generate_synthetic(config, seed=1234)
    paths = corpus.write(base / "corpus")
    runs = []
    for name in ("out1", "out2"):
        run_config = RunConfig(
            meter=str(paths["meter"]),
            weather=str(paths["weather"]),
            survey=str(paths["survey"]),
            out=str(base / name),
            seed=99,
        )
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_pipeline(run_config)
        runs.append({"out": base / name, "elapsed": time.perf_counter() - t0})
    return {"n_days": len(corpus.days), "runs": runs}


def read_entropy_rows(path):
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or line.startswith("axis"):
            continue
        axis, label, n, ent = line.split(",")
        rows.append((axis, label, int(n), float(ent) if ent else None))
    return rows


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_rse_oracle():
    t0 = time.perf_counter()
    s = np.zeros(24)
    s[0] = 1.0
    uniform = np.full(24, 1 / 24)
    hand = rse(s, uniform)
    rng = np.random.default_rng(101)
    x = rng.random((1000, 24))
    x /= x.sum(axis=1, keepdims=True)
    self_errors = np.array([rse(row, row) for row in x])
    elapsed = time.perf_counter() - t0
    ok = (
        abs(hand - 23.0) <= 1e-12
        and (np.abs(self_errors) <= 1e-12).all()
        and elapsed < 1.0
    )
    report(1, ok, f"rse spike-vs-uniform={hand!r}, max self-rse="
                  f"{self_errors.max():.1e}, {elapsed:.2f}s")


def test_criterion_02_demin_normalize_invariants():
    rng = np.random.default_rng(102)
    kwh = rng.uniform(0.25, 3.0, (10_000, 24))
    days = DayTable([f"H{i}" for i in range(10_000)], [dt.date(2011, 6, 1)] * 10_000, kwh)
    table, _ = preprocess_days(days)
    sums_ok = np.abs(table.values.sum(axis=1) - 1.0).max() <= 1e-9
    min_ok = (table.values.min(axis=1) == 0.0).all()

    scale_ok = True
    for i in rng.choice(10_000, 200, replace=False):
        deminned = kwh[i] - kwh[i].min()
        base = normalize(deminned)
        for c in (0.5, 2.0, 10.0):
            scaled = normalize(c * deminned)
            scale_ok &= bool(
                np.allclose(scaled, base, rtol=1e-12, atol=0)
            )
            scale_ok &= scaled.min() == 0.0

    flatten_ok = True
    for _ in range(100):
        p = rng.integers(0, 256, 24).astype(float) / 256.0
        p[rng.integers(0, 24)] = 0.0
        if p.max() == p.min():
            p[3] = 0.5
        b1 = float(rng.integers(1, 8)) / 8.0
        b2 = b1 + float(rng.integers(1, 16)) / 4.0
        d1 = b1 + p
        d2 = b2 + p
        flatten_ok &= bool(
            np.array_equal(shape_from_day(d1), shape_from_day(d2))
        )
        n1 = d1 / d1.sum()
        n2 = d2 / d2.sum()
        flatten_ok &= (n2.max() - n2.min()) < (n1.max() - n1.min())

    ok = sums_ok and min_ok and scale_ok and flatten_ok
    report(2, ok, f"10000 days: unit sums {sums_ok}, exact zero min {min_ok}, "
                  f"scale invariance {scale_ok}, flattening pairs {flatten_ok}")


def test_criterion_03_kmeans_oracle():
    def two_archetype_instance(rng, n):
        a = rng.gamma(0.8, size=24)
        a /= a.sum()
        b = rng.gamma(0.8, size=24)
        b /= b.sum()
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 0, 1
        base = np.where(labels[:, None] == 0, a, b)
        x = base * np.exp(0.08 * rng.standard_normal((n, 24)))
        return x / x.sum(1, keepdims=True)

    def exhaustive(X):
        n = len(X)
        best = np.inf
        for bits in range(1, 2 ** (n - 1)):
            mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
            a, b = X[mask], X[~mask]
            if len(a) == 0 or len(b) == 0:
                continue
            best = min(
                best, ((a - a.mean(0)) ** 2).sum() + ((b - b.mean(0)) ** 2).sum()
            )
        return best

    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    worst_gap = 0.0
    for trial in range(50):
        n = int(rng.integers(3, 9))
        X = two_archetype_instance(rng, n)
        _, _, inertia = best_of_inits(X, 2, seed=12_000 + trial, n_init=20)
        worst_gap = max(worst_gap, inertia - exhaustive(X))
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-9 and elapsed < 30.0
    report(3, ok, f"50 instances, worst WCSS gap {worst_gap:.2e}, {elapsed:.1f}s")


def test_criterion_04_adaptive_threshold_guarantee(sweep_table):
    t0 = time.perf_counter()
    k1s = []
    guarantees = []
    for theta in (0.1, 0.2, 0.3, 0.4, 0.5):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = adaptive_kmeans(sweep_table, theta=theta, k_init=10, seed=21)
        capped = any("residual" in str(w.message) for w in caught)
        guarantees.append(model.violation_rate == 0.0 or capped)
        k1s.append(model.n_clusters)
    elapsed = time.perf_counter() - t0
    monotone = all(k1s[i] >= k1s[i + 1] for i in range(len(k1s) - 1))
    ok = all(guarantees) and monotone and elapsed < 120.0
    report(4, ok, f"K1 across theta 0.1..0.5 = {k1s} (non-increasing "
                  f"{monotone}), zero-violation guarantee {all(guarantees)}, "
                  f"{elapsed:.0f}s")


def test_criterion_05_archetype_recovery(recovery_chain):
    corpus = recovery_chain["corpus"]
    table = recovery_chain["table"]
    dictionary = recovery_chain["dictionary"]
    assignments = recovery_chain["assignments"]

    # the planted corpus satisfies the stated separation precondition
    shapes = corpus.archetypes
    dists = np.sqrt(((shapes[:, None] - shapes[None]) ** 2).sum(-1))
    np.fill_diagonal(dists, np.inf)
    truth_by_key = {
        (corpus.truth.household_ids[i], corpus.truth.dates[i]):
            int(corpus.truth.archetype_ids[i])
        for i in range(len(corpus.truth.archetype_ids))
    }
    truth_rows = np.array(
        [truth_by_key[(table.household_ids[i], table.dates[i])]
         for i in range(len(table))]
    )
    devs = []
    for j in range(5):
        sel = truth_rows == j
        devs.append(np.sqrt(((table.values[sel] - shapes[j]) ** 2).sum(1)))
    within_noise = float(np.concatenate(devs).mean())
    separation_ratio = float(dists.min()) / within_noise

    dict_to_arch = np.argmin(
        ((dictionary.values[:, None] - shapes[None]) ** 2).sum(-1), axis=1
    )
    pred = dict_to_arch[np.searchsorted(dictionary.ids, assignments.cluster_ids)]
    scored = truth_rows >= 0
    accuracy = float((pred[scored] == truth_rows[scored]).mean())

    elapsed = recovery_chain["elapsed"]
    ok = (
        separation_ratio >= 5.0
        and len(dictionary) == 5
        and len(set(dict_to_arch.tolist())) == 5
        and accuracy >= 0.99
        and elapsed < 120.0
    )
    report(5, ok, f"separation {separation_ratio:.1f}x, dictionary size "
                  f"{len(dictionary)}, accuracy {accuracy:.4f}, {elapsed:.0f}s")


def test_criterion_06_truncation_contract(recovery_chain):
    merged = recovery_chain["merged"]
    n = merged.n_shapes
    sizes = []
    conserved = True
    for v in (0.05, 0.10, 0.30):
        d = truncate(merged, v)
        sizes.append(len(d))
        conserved &= int(d.member_counts.sum()) == n
    monotone = sizes[0] >= sizes[1] >= sizes[2]

    # toy {90, 8, 2} hand simulation: cap floor(0.10*100)=10 removes the
    # 2- and 8-count clusters; the 10 re-homed orphans all violate, the
    # rate hits exactly 0.10 and the loop stops with one cluster of 100
    base = np.full((3, 24), 1e-4)
    for i in range(3):
        base[i, 3 * i] = 1.0
    base /= base.sum(axis=1, keepdims=True)
    rows, labels = [], []
    for c, count in enumerate((90, 8, 2)):
        rows.extend([base[c]] * count)
        labels.extend([c] * count)
    from loadshapes.cluster import ClusterModel

    toy = ClusterModel(
        table=shape_table(np.array(rows)),
        centroids=base.copy(),
        ids=np.arange(3, dtype=np.int64),
        labels=np.array(labels, dtype=np.int64),
        theta=0.3,
        meta={},
    )
    toy_dict = truncate(toy, 0.10)
    toy_ok = (
        len(toy_dict) == 1
        and toy_dict.member_counts.tolist() == [100]
        and toy_dict.provenance["exit_violation_rate"] == pytest.approx(0.10)
    )
    ok = conserved and monotone and toy_ok
    report(6, ok, f"conservation {conserved}, sizes at V 0.05/0.10/0.30 = "
                  f"{sizes} (non-increasing {monotone}), toy end state {toy_ok}")


def test_criterion_07_entropy_exactness(big_run):
    exact = all(
        abs(entropy(np.full(k, 1.0 / k)) - math.log(k)) <= 1e-12
        for k in (1, 2, 4, 16, 99)
    )
    bound = math.log(99) + 1e-12
    observed = []
    for run in big_run["runs"]:
        for _, _, _, value in read_entropy_rows(run["out"] / "entropy_by_stratum.csv"):
            if value is not None:
                observed.append(value)
    bounded = all(v <= bound for v in observed)
    ok = exact and bounded and len(observed) > 0
    report(7, ok, f"uniform ln(k) exact {exact}; {len(observed)} stratum values "
                  f"all below ln(99)={math.log(99):.3f} (max {max(observed):.3f})")


def test_criterion_08_stratification_ordering(big_run):
    rows = read_entropy_rows(big_run["runs"][0]["out"] / "entropy_by_stratum.csv")
    by_axis = {}
    for axis, label, _, value in rows:
        if value is not None:
            by_axis.setdefault(axis, {})[label] = value
    temps = [by_axis["temperature"][f"T_{i}"] for i in (1, 2, 3, 4)]
    strictly_decreasing = all(temps[i] > temps[i + 1] for i in range(3))
    d_temp = max(temps) - min(temps)
    d_season = max(by_axis["season"].values()) - min(by_axis["season"].values())
    d_daytype = max(by_axis["day_type"].values()) - min(by_axis["day_type"].values())
    ordered = d_temp > d_season > d_daytype
    ok = strictly_decreasing and ordered
    report(8, ok, f"T1..T4 entropies {[round(t, 3) for t in temps]} strictly "
                  f"decreasing {strictly_decreasing}; spreads temp "
                  f"{d_temp:.3f} > season {d_season:.3f} > day-type "
                  f"{d_daytype:.3f} = {ordered}")


def test_criterion_09_characteristic_delta_recovery():
    planted = {"electric_dryer": 0.4, "elderly": -0.3, "chronically_ill": 0.0}
    config = GeneratorConfig(
        archetypes=5, households=500, days=120,
        noise_level=0.05, temperature_response=0.0,
        entropy_bias=planted,
    )
    hits = {name: 0 for name in planted}
    trials = 100
    for trial in range(trials):
        corpus = generate_synthetic(config, seed=10_000 + trial,
                                    include_meter=False)
        ok_rows = corpus.truth.archetype_ids >= 0
        assignments = AssignmentTable(
            corpus.truth.household_ids[ok_rows],
            corpus.truth.dates[ok_rows],
            corpus.truth.archetype_ids[ok_rows] + 1,
            np.zeros(int(ok_rows.sum())),
            np.zeros(int(ok_rows.sum())),
        )
        frame = build_frame(assignments, corpus.weather)
        entropies = household_entropy(frame)
        for name, true_value in planted.items():
            delta = characteristic_entropy_delta(
                entropies, corpus.profiles, name, seed=trial
            )
            if delta.ci_low <= true_value <= delta.ci_high:
                hits[name] += 1
    ok = all(count >= 90 for count in hits.values())
    report(9, ok, f"95% CI covered the planted effect in {hits} of {trials} trials")


def test_criterion_10_dbi_oracle():
    X = np.zeros((4, 24))
    X[:, 0] = [0.0, 0.1, 1.0, 1.1]
    labels = np.array([0, 0, 1, 1])
    centroids = np.zeros((2, 24))
    centroids[:, 0] = [0.05, 1.05]
    hand = davies_bouldin(X, labels, centroids)

    rng = np.random.default_rng(110)
    Y = rng.random((80, 24))
    lab = rng.integers(0, 5, 80)
    lab[:5] = np.arange(5)
    cents = np.vstack([Y[lab == c].mean(0) for c in range(5)])
    base = davies_bouldin(Y, lab, cents)
    perm = np.array([3, 0, 4, 1, 2])
    relabel_gap = abs(
        davies_bouldin(Y, perm[lab], cents[np.argsort(perm)]) - base
    )
    shift = rng.random(24)
    translate_gap = abs(davies_bouldin(Y + shift, lab, cents + shift) - base)
    ok = (
        abs(hand - 0.1) <= 1e-12
        and relabel_gap <= 1e-9
        and translate_gap <= 1e-9
    )
    report(10, ok, f"hand instance {hand!r}; relabel gap {relabel_gap:.1e}, "
                   f"translation gap {translate_gap:.1e}")


def test_criterion_11_coverage_curve_properties(big_run, recovery_chain):
    def curve_ok(fractions):
        non_decreasing = (np.diff(fractions) >= -1e-15).all()
        terminal = abs(fractions[-1] - 1.0) <= 1e-9
        increments = np.diff(np.concatenate([[0.0], fractions]))
        concave = (np.diff(increments) <= 1e-12).all()
        return bool(non_decreasing and terminal and concave)

    checks = []
    for run in big_run["runs"]:
        fractions = []
        for line in (run["out"] / "coverage_curve.csv").read_text().splitlines():
            if line.startswith("#") or line.startswith("rank"):
                continue
            fractions.append(float(line.split(",")[3]))
        checks.append(curve_ok(np.array(fractions)))

    curve = coverage_curve(
        recovery_chain["assignments"], recovery_chain["dictionary"]
    )
    checks.append(curve_ok(curve.cumulative_fraction))

    equal = ClusterDictionary(
        values=np.full((4, 24), 1 / 24),
        ids=np.arange(1, 5, dtype=np.int64),
        member_counts=np.full(4, 1, dtype=np.int64),
        member_kwh=np.ones(4),
        member_discretionary_kwh=np.ones(4),
        theta=0.3,
        truncation_v=0.3,
    )
    table = AssignmentTable(
        [f"H{i}" for i in range(4)],
        [dt.date(2011, 7, 1)] * 4,
        [1, 2, 3, 4],
        np.zeros(4),
        np.zeros(4),
        np.full(4, 2.5),
        np.full(4, 1.0),
    )
    quarters = coverage_curve(table, equal).cumulative_fraction
    equal_ok = bool(np.allclose(quarters, [0.25, 0.5, 0.75, 1.0], atol=1e-12))
    ok = all(checks) and equal_ok
    report(11, ok, f"curve properties on {len(checks)} runs {all(checks)}; "
                   f"equal-weight K=4 curve {np.round(quarters, 4).tolist()}")


def test_criterion_12_determinism_and_throughput(big_run):
    identical = all(
        filecmp.cmp(
            big_run["runs"][0]["out"] / name,
            big_run["runs"][1]["out"] / name,
            shallow=False,
        )
        for name in ARTIFACTS
    )
    timings = [run["elapsed"] for run in big_run["runs"]]
    under_budget = all(t < 300.0 for t in timings)

    rng = np.random.default_rng(112)
    n = 5_000_000
    X = rng.random((n, 24))
    X /= X.sum(axis=1, keepdims=True)
    # assign_all needs no unique keys: one id and one date serve every row
    shapes = ShapeTable(X, np.full(n, "h", dtype=object),
                        np.full(n, dt.date(2000, 1, 1), dtype=object), np.ones(n), np.ones(n))
    values = rng.random((99, 24))
    values /= values.sum(axis=1, keepdims=True)
    dictionary = ClusterDictionary(
        values=values,
        ids=np.arange(1, 100, dtype=np.int64),
        member_counts=np.ones(99, dtype=np.int64),
        member_kwh=np.arange(99, 0, -1, dtype=float),
        member_discretionary_kwh=np.arange(99, 0, -1, dtype=float),
        theta=0.3,
        truncation_v=0.3,
    )
    t0 = time.perf_counter()
    assign_all(shapes, dictionary, workers=8)
    rate = n / (time.perf_counter() - t0)
    ok = identical and under_budget and rate > 100_000
    report(12, ok, f"bit-identical artifacts {identical}; runs took "
                   f"{timings[0]:.0f}s/{timings[1]:.0f}s on "
                   f"{big_run['n_days']} days; assign rate {rate/1000:.0f}K "
                   f"shapes/s with 8 workers")
