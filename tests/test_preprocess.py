import datetime as dt
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadshapes.errors import ZeroDiscretionaryError
from loadshapes.ingest import LoadDay
from loadshapes.preprocess import (
    CleaningReport,
    ShapeTable,
    clean,
    demin,
    normalize,
    preprocess_days,
    shape_from_day,
    subsample,
)

D = dt.date(2011, 6, 1)


def day(kwh, hid="H1", date=D):
    return LoadDay(hid, date, np.asarray(kwh, dtype=float))


def test_missing_hour_dropped():
    kwh = [1.0] * 24
    kwh[12] = np.nan
    kept, report = clean([day(kwh)])
    assert kept == []
    assert report.dropped_missing_hours == 1


def test_low_demand_dropped_and_boundary_inclusive():
    kept, report = clean([day([0.19] * 24), day([0.2] * 24)])
    assert report.dropped_low_demand == 1
    assert len(kept) == 1
    assert kept[0].kwh[0] == 0.2


def test_day_failing_both_rules_counts_as_missing_hours():
    kwh = [0.1] * 24
    kwh[3] = np.nan
    _, report = clean([day(kwh)])
    assert report.dropped_missing_hours == 1
    assert report.dropped_low_demand == 0


def test_demin_constant_day_goes_to_zero():
    assert np.array_equal(demin(day([1.0] * 24)), np.zeros(24))


def test_demin_definition_and_idempotence():
    rng = np.random.default_rng(0)
    kwh = rng.uniform(0.4, 2.0, 24)
    kwh[4] = 0.3  # the daily minimum
    d = day(kwh)
    out = demin(d)
    assert out[4] == 0.0
    assert np.array_equal(out, kwh - 0.3)
    again = demin(day(out))
    assert np.array_equal(again, out)


def test_normalize_definition():
    deminned = np.zeros(24)
    deminned[18] = 2.5
    deminned[6] = 2.5
    sv = normalize(deminned, "H1", D, day_total_kwh=12.0)
    assert sv.values[18] == 0.5
    assert sv.discretionary_kwh == 5.0
    assert sv.day_total_kwh == 12.0


def test_normalize_zero_discretionary_raises():
    with pytest.raises(ZeroDiscretionaryError):
        normalize(np.zeros(24))


def test_normalize_unit_sum_and_exact_zero_min():
    rng = np.random.default_rng(1)
    for _ in range(200):
        sv = shape_from_day(day(rng.uniform(0.3, 3.0, 24)))
        assert abs(sv.values.sum() - 1.0) <= 1e-9
        assert sv.values.min() == 0.0
        assert (sv.values >= 0).all()


def test_scale_invariance():
    rng = np.random.default_rng(2)
    deminned = rng.uniform(0, 2.0, 24)
    deminned[7] = 0.0
    base = normalize(deminned)
    for c in (0.5, 2.0, 10.0):
        scaled = normalize(c * deminned)
        assert np.allclose(scaled.values, base.values, rtol=1e-12, atol=0)
        assert scaled.values.min() == 0.0


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
        day1 = day(b1 + p)
        day2 = day(b2 + p)

        sv1 = shape_from_day(day1)
        sv2 = shape_from_day(day2)
        assert np.array_equal(sv1.values, sv2.values)

        flat1 = day1.kwh / day1.kwh.sum()
        flat2 = day2.kwh / day2.kwh.sum()
        assert flat2.max() - flat2.min() < flat1.max() - flat1.min()


def test_preprocess_days_tallies_zero_discretionary():
    days = [
        day([1.0] * 24, "H1"),                      # flat -> zero discretionary
        day([0.5 + 0.1 * t for t in range(24)], "H2"),
        day([0.1] * 24, "H3"),                      # low demand
    ]
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
    days = [
        day(rng.uniform(0.3, 3.0, 24), f"H{i}", D + dt.timedelta(days=i))
        for i in range(20)
    ]
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
    days = [day(rng.uniform(0.3, 2.0, 24), f"H{i}") for i in range(50)]
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
    days = [day(rng.uniform(0.3, 2.0, 24), f"H{i}") for i in range(5)]
    table, _ = preprocess_days(days)
    with pytest.raises(ValueError):
        subsample(table, 6, seed=0)
