import datetime as dt
import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loadshapes.errors import CorruptArtifactError, EmptyInputError, ZeroDiscretionaryError
from loadshapes.ingest import DayTable, _frozen, read_meter_corpus
from loadshapes.pipeline import RunCache
from loadshapes.preprocess import (
    LOW_DEMAND_KW,
    LOW_DEMAND_RTOL,
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


def test_low_demand_boundary_holds_for_means_rounded_below_it():
    # 0.2 kWh/h in decimal, but each float64 mean is 0.19999999999999998
    on_boundary = [[0.3] * 12 + [0.1] * 12, [4.8] + [0.0] * 23]
    below = [[0.2 - 1e-9] * 24]
    days = days_of(on_boundary + below)
    assert (days.kwh.mean(axis=1)[:2] < 0.2).all()
    kept, report = clean(days)
    assert report.dropped_low_demand == 1
    assert kept.kwh.tolist() == on_boundary


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


def test_cleaning_report_check_raises_on_unbalanced_tallies():
    # a ValueError, not an assert, so that it also holds under python -O
    with pytest.raises(ValueError, match="1 dropped and 8 retained of 10 input days"):
        CleaningReport(10, 1, 0, 0, 8).check()


@pytest.mark.parametrize("text, message", [
    ("rule,count\r\ninput,10\r\n", "no count for rule 'dropped_missing_hours'"),
    ("rule,count\r\ninput,10\r\ndropped_missing_hours,x\r\n",
     "data row 2: invalid literal for int"),
    ("rule,count\r\ninput,10\r\ndropped_missing_hours\r\n",
     "data row 2: expected 2 cells, got 1"),
    ("input,10\r\n", "header"),
    ("", "no header"),
    ("rule,count\r\ninput,10\r\ninput,12\r\n", "data row 2: rule 'input' listed twice"),
    ("rule,count\r\ninput,10\r\nbogus,3\r\n", "data row 2: unknown rule 'bogus'"),
    ("rule,count\r\ninput,10\r\ndropped_missing_hours,1\r\ndropped_low_demand,2\r\n"
     "dropped_zero_discretionary,3\r\nretained,5\r\n",
     "tallies do not sum: 6 dropped and 5 retained of 10 input days"),
])
def test_damaged_cleaning_report_names_file_and_row(tmp_path, text, message):
    path = tmp_path / "cleaning_report.csv"
    path.write_text(text, newline="")
    with pytest.raises(CorruptArtifactError, match=f"cleaning_report.csv: {message}"):
        CleaningReport.read_csv(path)


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


def _damage_cell(path, row: int, cell: int, text: str) -> None:
    """Replace one cell of data row ``row``; ``cell`` -1 appends a cell."""
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    if cell == -1:
        cells.append(text)
    else:
        cells[cell] = text
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("cell, text, message", [
    (1, "2011-13-01", "month must be in 1..12"),
    (2, "1.2.3", "could not convert"),
    (10, "", "could not convert"),
    (-1, "0.5", "expected 28 cells, got 29"),
    (0, '"H', "expected 28 cells, got 1"),  # a stray quote: one field to the end of the file
])
def test_shapes_parse_names_file_and_row_of_a_bad_row(tmp_path, cell, text, message):
    rng = np.random.default_rng(5)
    table, _ = preprocess_days(days_of(rng.uniform(0.3, 3.0, (5, 24))))
    path = tmp_path / "shapes.csv"
    table.write_csv(path)
    _damage_cell(path, 3, cell, text)
    with pytest.raises(CorruptArtifactError, match=f"shapes.csv: data row 3: {message}"):
        ShapeTable.read_csv(path)


def _shapes_lines(tmp_path, n: int) -> list[bytes]:
    """The lines of the shapes.csv of ``n`` random days, header first."""
    table, _ = preprocess_days(days_of(np.random.default_rng(5).uniform(0.3, 3.0, (n, 24))))
    table.write_csv(tmp_path / "shapes.csv")
    return (tmp_path / "shapes.csv").read_bytes().split(b"\r\n")


# a text file is decoded 8 kB at a time: data row 3 is in the first chunk,
# which the header read decodes, and rows 36 and 37 in later ones
@pytest.mark.parametrize("row, where", [(0, "header"), (3, "data row 3"),
                                        (36, "data row 36"), (37, "data row 37")])
def test_shapes_parse_names_the_row_of_a_byte_that_is_not_utf8(tmp_path, row, where):
    lines = _shapes_lines(tmp_path, 40)
    assert len(b"\r\n".join(lines[:4])) < 8192 < len(b"\r\n".join(lines[:36]))
    lines[row] = lines[row][:5] + b"\xff" + lines[row][5:]
    (tmp_path / "shapes.csv").write_bytes(b"\r\n".join(lines))
    with pytest.raises(CorruptArtifactError,
                       match=f"shapes.csv: {where}: byte 0xff is not UTF-8$"):
        ShapeTable.read_csv(tmp_path / "shapes.csv")


def test_shapes_parse_names_the_row_of_a_stray_quote_past_the_field_limit(tmp_path):
    lines = _shapes_lines(tmp_path, 300)
    lines[5] = b'"' + lines[5]
    (tmp_path / "shapes.csv").write_bytes(b"\r\n".join(lines))
    with pytest.raises(CorruptArtifactError,
                       match=r"shapes.csv: data row 5: field larger than field limit \(131072\)$"):
        ShapeTable.read_csv(tmp_path / "shapes.csv")


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
    # _frozen is the rule RunCache applies to the tables it hands between stages
    table = ShapeTable(np.ones((2, 24)) / 24, ["H1", "H2"], [D, D], [1.0, 2.0], [0.5, 1.0])
    assert _frozen(table) is table
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
    cache = RunCache()
    first = ShapeTable.read_csv(path, cache)
    assert ShapeTable.read_csv(path, cache) is first
    assert not first.values.flags.writeable
    assert np.array_equal(first.values, table.values)
    table.take([1]).write_csv(path)  # new content, of another size
    second = ShapeTable.read_csv(path, cache)
    assert second is not first and list(second.household_ids) == ["H2"]
    assert ShapeTable.read_csv(path, cache) is second
    assert ShapeTable.read_csv(path).values.flags.writeable  # no cache: own copy
    assert len(parsed) == 3


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
    with pytest.raises(EmptyInputError, match="cannot subsample an empty collection"):
        subsample(table.take([]), 0, seed=0)


def reference_clean(rows):
    """The per-day cleaning loop the columnar ``clean`` replaced, with the
    boundary rule of ``clean``: a mean within ``LOW_DEMAND_RTOL`` of 0.2 kW
    is on the (inclusive) boundary."""
    report = CleaningReport(n_input=len(rows))
    kept = []
    for i, kwh in enumerate(rows):
        if np.isnan(kwh).any():
            report.dropped_missing_hours += 1
        elif kwh.mean() < LOW_DEMAND_KW * (1 - LOW_DEMAND_RTOL):
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
# float64 means of 0.19999999999999998, on the boundary
@example([np.array([0.3] * 12 + [0.1] * 12)])
@example([np.array([0.19999999999999998] * 24)])
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
# the generator's side files, whichever meter schema it writes
for _schema in ("wide", "long"):
    GOLDEN_SHA256.update({
        (_schema, "weather.csv"):
            "8693e639dadd2954d05be9bda63900968dd7f1f868bbf1a4f3947c82016c7e88",
        (_schema, "survey.csv"):
            "d850b182d861f11c3696c62ddbb312416612f1285ac091221ceee00c260cd93a",
        (_schema, "truth.csv"):
            "9e81567d9bd3670dc6fd70e57271b0b3ac1d49da4a4faeb77b3363ebfc2e33f2",
    })


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
        for name in ("meter.csv", "shapes.csv", "cleaning_report.csv",
                     "weather.csv", "survey.csv", "truth.csv"):
            digests[schema, name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert digests == GOLDEN_SHA256
