import datetime as dt
import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadshapes.errors import ZeroDiscretionaryError
from loadshapes.ingest import DayTable, read_meter_corpus
from loadshapes.preprocess import (
    LOW_DEMAND_KW,
    CleaningReport,
    ShapeTable,
    clean,
    demin,
    normalize,
    preprocess_days,
    shape_from_day,
    subsample,
)
from loadshapes.synthetic import GeneratorConfig, generate_synthetic

D = dt.date(2011, 6, 1)


def days_of(rows, hids=None, dates=None):
    """A DayTable of the given 24-reading rows; keys default to H1 on D."""
    kwh = np.asarray(rows, dtype=float).reshape(-1, 24)
    n = len(kwh)
    return DayTable(hids or ["H1"] * n, dates or [D] * n, kwh)


def test_missing_hour_dropped():
    kwh = [1.0] * 24
    kwh[12] = np.nan
    kept, report = clean(days_of([kwh]))
    assert list(kept.household_ids) == []
    assert report.dropped_missing_hours == 1


def test_low_demand_dropped_and_boundary_inclusive():
    kept, report = clean(days_of([[0.19] * 24, [0.2] * 24]))
    assert report.dropped_low_demand == 1
    assert len(kept) == 1
    assert kept.kwh[0, 0] == 0.2


def test_day_failing_both_rules_counts_as_missing_hours():
    kwh = [0.1] * 24
    kwh[3] = np.nan
    _, report = clean(days_of([kwh]))
    assert report.dropped_missing_hours == 1
    assert report.dropped_low_demand == 0


def test_demin_constant_day_goes_to_zero():
    assert np.array_equal(demin([1.0] * 24), np.zeros(24))


def test_demin_definition_and_idempotence():
    rng = np.random.default_rng(0)
    kwh = rng.uniform(0.4, 2.0, 24)
    kwh[4] = 0.3  # the daily minimum
    out = demin(kwh)
    assert out[4] == 0.0
    assert np.array_equal(out, kwh - 0.3)
    again = demin(out)
    assert np.array_equal(again, out)


def test_normalize_definition():
    deminned = np.zeros(24)
    deminned[18] = 2.5
    deminned[6] = 2.5
    assert normalize(deminned)[18] == 0.5


def test_preprocess_days_records_day_and_discretionary_kwh():
    # the day of test_normalize_definition, on a 7/24 kWh/h baseload
    deminned = np.zeros(24)
    deminned[18] = 2.5
    deminned[6] = 2.5
    table, _ = preprocess_days(days_of([deminned + 7 / 24]))
    assert table.values[0, 18] == 0.5
    assert table.discretionary_kwh[0] == 5.0
    assert table.day_total_kwh[0] == 12.0


def test_normalize_zero_discretionary_raises():
    with pytest.raises(ZeroDiscretionaryError):
        normalize(np.zeros(24))


def test_normalize_unit_sum_and_exact_zero_min():
    rng = np.random.default_rng(1)
    for _ in range(200):
        shape = shape_from_day(rng.uniform(0.3, 3.0, 24))
        assert abs(shape.sum() - 1.0) <= 1e-9
        assert shape.min() == 0.0
        assert (shape >= 0).all()


def test_scale_invariance():
    rng = np.random.default_rng(2)
    deminned = rng.uniform(0, 2.0, 24)
    deminned[7] = 0.0
    base = normalize(deminned)
    for c in (0.5, 2.0, 10.0):
        scaled = normalize(c * deminned)
        assert np.allclose(scaled, base, rtol=1e-12, atol=0)
        assert scaled.min() == 0.0


def _dyadic_profile(rng):
    # dyadic values keep baseload-shift arithmetic exact in binary floats
    p = rng.integers(0, 256, 24).astype(float) / 256.0
    p[rng.integers(0, 24)] = 0.0
    if p.sum() == 0 or p.max() == p.min():
        p[3] = 0.5
    return p


def test_flattening_property_of_demin():
    # two days with identical discretionary profiles but different
    # baseloads: plain normalization flattens the high-baseload day, while
    # demin-then-normalize gives bit-identical shapes
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = _dyadic_profile(rng)
        b1 = rng.integers(1, 8) / 8.0
        b2 = b1 + rng.integers(1, 16) / 4.0
        day1 = b1 + p
        day2 = b2 + p

        assert np.array_equal(shape_from_day(day1), shape_from_day(day2))

        flat1 = day1 / day1.sum()
        flat2 = day2 / day2.sum()
        assert flat2.max() - flat2.min() < flat1.max() - flat1.min()


def test_preprocess_days_tallies_zero_discretionary():
    days = days_of(
        [
            [1.0] * 24,                             # flat -> zero discretionary
            [0.5 + 0.1 * t for t in range(24)],
            [0.1] * 24,                             # low demand
        ],
        hids=["H1", "H2", "H3"],
    )
    table, report = preprocess_days(days)
    assert report.n_input == 3
    assert report.dropped_zero_discretionary == 1
    assert report.dropped_low_demand == 1
    assert report.retained == 1
    assert len(table) == 1
    assert table.household_ids[0] == "H2"
    report.check()


def test_cleaning_report_csv_round_trip(tmp_path):
    report = CleaningReport(100, 3, 2, 1, 94)
    path = tmp_path / "cleaning_report.csv"
    report.write_csv(path)
    assert CleaningReport.read_csv(path) == report


def test_shape_table_csv_round_trip_lossless(tmp_path):
    rng = np.random.default_rng(5)
    days = days_of(
        rng.uniform(0.3, 3.0, (20, 24)),
        hids=[f"H{i}" for i in range(20)],
        dates=[D + dt.timedelta(days=i) for i in range(20)],
    )
    table, _ = preprocess_days(days)
    path = tmp_path / "shapes.csv"
    table.write_csv(path)
    back = ShapeTable.read_csv(path)
    assert np.array_equal(back.values, table.values)
    assert np.array_equal(back.day_total_kwh, table.day_total_kwh)
    assert np.array_equal(back.discretionary_kwh, table.discretionary_kwh)
    assert list(back.household_ids) == list(table.household_ids)
    assert list(back.dates) == list(table.dates)


# household ids with the characters CSV must quote: comma, quote, CR, LF
_HOUSEHOLD_IDS = st.text(
    alphabet=st.sampled_from(list('ab ,"\'\r\n;\t\u00e9\u4e2d')), max_size=8
)
_FLOATS = st.floats(allow_nan=False, width=64)


@st.composite
def shape_tables(draw):
    n = draw(st.integers(0, 6))
    return ShapeTable(
        np.array(
            draw(st.lists(st.lists(_FLOATS, min_size=24, max_size=24),
                          min_size=n, max_size=n)),
            dtype=float,
        ).reshape(n, 24),
        draw(st.lists(_HOUSEHOLD_IDS, min_size=n, max_size=n)),
        draw(st.lists(st.dates(), min_size=n, max_size=n)),
        draw(st.lists(_FLOATS, min_size=n, max_size=n)),
        draw(st.lists(_FLOATS, min_size=n, max_size=n)),
    )


@settings(max_examples=80, deadline=None)
@given(shape_tables())
def test_shape_table_csv_round_trip_is_byte_exact(table):
    # the pipeline hands the table ingest wrote to later stages instead of
    # re-reading shapes.csv, so the file must read back to the same bytes
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "shapes.csv"
        table.write_csv(path)
        back = ShapeTable.read_csv(path)
    for column in ("values", "day_total_kwh", "discretionary_kwh"):
        a, b = getattr(back, column), getattr(table, column)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), column
    assert back.household_ids.dtype == back.dates.dtype == object
    assert list(back.household_ids) == list(table.household_ids)
    assert list(back.dates) == list(table.dates)


def test_freeze_makes_every_column_read_only():
    table = ShapeTable(np.ones((2, 24)) / 24, ["H1", "H2"], [D, D], [1.0, 2.0], [0.5, 1.0])
    assert table.freeze() is table
    for column in (table.values, table.household_ids, table.dates,
                   table.day_total_kwh, table.discretionary_kwh):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]
    assert table.take([1, 0]).values.flags.writeable  # copies stay writable


def test_read_csv_with_memo_parses_each_digest_once(tmp_path, monkeypatch):
    table = ShapeTable(np.ones((2, 24)) / 24, ["H1", "H2"], [D, D], [1.0, 2.0], [0.5, 1.0])
    path = tmp_path / "shapes.csv"
    table.write_csv(path)
    parsed = []
    parse = ShapeTable._parse_csv
    monkeypatch.setattr(ShapeTable, "_parse_csv",
                        classmethod(lambda cls, p: parsed.append(p) or parse(p)))
    memo: dict = {}
    first = ShapeTable.read_csv(path, memo, "d1")
    assert ShapeTable.read_csv(path, memo, "d1") is first
    assert not first.values.flags.writeable
    assert ShapeTable.read_csv(path, memo, "d2") is not first  # new content
    assert ShapeTable.read_csv(path).values.flags.writeable  # no memo: own copy
    assert len(parsed) == 3
    assert np.array_equal(first.values, table.values)


def test_subsample_identity_and_determinism():
    rng = np.random.default_rng(6)
    days = days_of(rng.uniform(0.3, 2.0, (50, 24)), hids=[f"H{i}" for i in range(50)])
    table, _ = preprocess_days(days)
    full = subsample(table, 50, seed=1)
    assert np.array_equal(np.sort(full.values, axis=0), np.sort(table.values, axis=0))
    a = subsample(table, 10, seed=1)
    b = subsample(table, 10, seed=1)
    c = subsample(table, 10, seed=2)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_subsample_too_large_raises():
    rng = np.random.default_rng(7)
    days = days_of(rng.uniform(0.3, 2.0, (5, 24)), hids=[f"H{i}" for i in range(5)])
    table, _ = preprocess_days(days)
    with pytest.raises(ValueError):
        subsample(table, 6, seed=0)


def reference_clean(rows):
    """The per-day cleaning loop the columnar ``clean`` replaced."""
    report = CleaningReport(n_input=len(rows))
    kept = []
    for i, kwh in enumerate(rows):
        if np.isnan(kwh).any():
            report.dropped_missing_hours += 1
        elif kwh.mean() < LOW_DEMAND_KW:
            report.dropped_low_demand += 1
        else:
            kept.append(i)
    report.retained = len(kept)
    return kept, report


def reference_preprocess(rows, hids, dates):
    """The stacking ``preprocess_days`` the columnar one replaced."""
    kept, report = reference_clean(rows)
    if not kept:
        return ShapeTable(np.empty((0, 24)), [], [], [], []), report
    kwh = np.stack([rows[i] for i in kept])
    deminned = kwh - kwh.min(axis=1, keepdims=True)
    totals = deminned.sum(axis=1)
    flat = totals == 0.0
    report.dropped_zero_discretionary = int(flat.sum())
    report.retained -= report.dropped_zero_discretionary
    ok = ~flat
    table = ShapeTable(
        deminned[ok] / totals[ok, None],
        [hids[i] for i, keep in zip(kept, ok) if keep],
        [dates[i] for i, keep in zip(kept, ok) if keep],
        kwh[ok].sum(axis=1),
        totals[ok],
    )
    return table, report


# readings at and around the 0.2 kWh/h boundary, so sums of them land on,
# just under and just over it
_NEAR_THRESHOLD = [0.1, 0.2, 0.3, 0.19999999999999998, 0.20000000000000004, 0.0]


@st.composite
def day_rows(draw):
    kind = draw(st.sampled_from(["any", "flat", "near_threshold"]))
    if kind == "flat":
        row = [draw(st.sampled_from([0.0, 0.19, 0.2, 0.25, 1.0, np.nan]))] * 24
    else:
        cells = (st.floats(0.0, 5.0) if kind == "any"
                 else st.sampled_from(_NEAR_THRESHOLD))
        row = draw(st.lists(cells, min_size=24, max_size=24))
    for t in draw(st.lists(st.integers(0, 23), max_size=2)):
        row[t] = np.nan
    return np.array(row, dtype=float)


@settings(max_examples=200, deadline=None)
@given(st.lists(day_rows(), max_size=12))
def test_columnar_preprocessing_equals_per_day_reference(rows):
    n = len(rows)
    hids = [f"H{i}" for i in range(n)]
    dates = [D + dt.timedelta(days=i) for i in range(n)]
    days = days_of(np.array(rows).reshape(n, 24), hids=hids, dates=dates)

    kept, report = clean(days)
    ref_kept, ref_report = reference_clean(rows)
    assert report == ref_report
    assert list(kept.household_ids) == [hids[i] for i in ref_kept]

    table, report = preprocess_days(days)
    ref_table, ref_report = reference_preprocess(rows, hids, dates)
    assert report == ref_report
    for column in ("values", "day_total_kwh", "discretionary_kwh"):
        a, b = getattr(table, column), getattr(ref_table, column)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), column
    assert list(table.household_ids) == list(ref_table.household_ids)
    assert list(table.dates) == list(ref_table.dates)


# sha256 of the files written from this corpus while each day was its own
# object, cleaned one at a time; the columnar path must reproduce them
GOLDEN_SHA256 = {
    ("wide", "meter.csv"):
        "1ff03aabe4f483bfe24e666dd8e27e3e6b115fbd36e04852035e975a7f4e8807",
    ("long", "meter.csv"):
        "ea6503407ff51e4e26e8940fa5da2e017c048211e54ee7e047a0095392403d89",
    ("wide", "shapes.csv"):
        "bd8bcdbd73a2600c38898c8f3a6a9b5b25a4636cca7b3d4808ca0f3d80ffd1f0",
    ("long", "shapes.csv"):
        "bd8bcdbd73a2600c38898c8f3a6a9b5b25a4636cca7b3d4808ca0f3d80ffd1f0",
    ("wide", "cleaning_report.csv"):
        "8dcb2b2ce63dd753aa14952ea4db9f2fd41ac7bb9592f4ad9994ea71e9449421",
    ("long", "cleaning_report.csv"):
        "8dcb2b2ce63dd753aa14952ea4db9f2fd41ac7bb9592f4ad9994ea71e9449421",
}


def test_seeded_corpus_files_match_golden_digests(tmp_path):
    config = GeneratorConfig(archetypes=5, households=6, days=45, outlier_rate=0.05,
                             fuzz_rate=0.05, bad_day_rate=0.2)
    corpus = generate_synthetic(config, seed=2718)
    digests = {}
    for schema in ("wide", "long"):
        out = tmp_path / schema
        paths = corpus.write(out, schema)
        days, _ = read_meter_corpus(paths["meter"], schema)
        table, report = preprocess_days(days)
        assert report.dropped_missing_hours and report.dropped_low_demand
        table.write_csv(out / "shapes.csv")
        report.write_csv(out / "cleaning_report.csv")
        for name in ("meter.csv", "shapes.csv", "cleaning_report.csv"):
            digests[schema, name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert digests == GOLDEN_SHA256
