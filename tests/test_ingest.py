import copy
import csv
import datetime as dt
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loadshapes import ingest
from loadshapes.dictionary import AssignmentTable
from loadshapes.errors import (
    DuplicateRecordError,
    HeaderMismatchError,
    MalformedInputError,
    UnknownIndicatorError,
)
from loadshapes.ingest import (
    HOURS_PER_DAY,
    INDICATOR_VOCABULARY,
    WIDE_HEADER,
    DayTable,
    Diagnostic,
    KeyedTable,
    SeasonCalendar,
    Survey,
    WeatherDay,
    _frozen,
    _parse_kwh_cell,
    read_meter_corpus,
    read_survey,
    read_weather,
    write_meter_corpus,
    write_survey,
    write_weather,
)
from loadshapes.pipeline import RunCache
from loadshapes.preprocess import ShapeTable
from loadshapes.synthetic import GeneratorConfig, SyntheticTruth, generate_synthetic

D = dt.date


def wide_header():
    return "household_id,date," + ",".join(f"h{i}" for i in range(1, 25))


def wide_row(hid, date, values):
    return f"{hid},{date}," + ",".join(str(v) for v in values)


def test_wide_row_parses(tmp_path):
    path = tmp_path / "meter.csv"
    values = [0.3, 0.4] + [0.5] * 22
    path.write_text(wide_header() + "\n" + wide_row("H1", "2011-06-01", values) + "\n")
    days, diags = read_meter_corpus(path)
    assert diags == []
    assert len(days) == 1
    assert days.household_ids[0] == "H1"
    assert days.dates[0] == D(2011, 6, 1)
    assert np.array_equal(days.kwh[0], np.array(values))


def test_wide_row_with_23_values_rejected(tmp_path):
    path = tmp_path / "meter.csv"
    path.write_text(
        wide_header() + "\n" + wide_row("H1", "2011-06-01", [0.3] * 23) + "\n"
    )
    days, diags = read_meter_corpus(path)
    assert list(days.household_ids) == []
    assert len(diags) == 1
    assert diags[0].row == 2
    assert "expected 24 hourly columns" in diags[0].message


def test_malformed_cell_becomes_missing_not_zero(tmp_path):
    path = tmp_path / "meter.csv"
    values = ["0.3"] * 24
    values[12] = "oops"
    values[13] = ""
    values[14] = "-1.5"
    path.write_text(wide_header() + "\n" + wide_row("H1", "2011-06-01", values) + "\n")
    days, diags = read_meter_corpus(path)
    assert len(days) == 1
    kwh = days.kwh[0]
    assert np.isnan(kwh[12]) and np.isnan(kwh[13]) and np.isnan(kwh[14])
    assert not np.any(kwh == 0.0)
    # malformed text and negative cells get diagnostics; an empty cell is
    # legitimate missing data
    assert len(diags) == 2


def test_duplicate_household_date_raises(tmp_path):
    path = tmp_path / "meter.csv"
    row = wide_row("H1", "2011-06-01", [0.3] * 24)
    path.write_text(wide_header() + "\n" + row + "\n" + row + "\n")
    with pytest.raises(DuplicateRecordError):
        read_meter_corpus(path)


def test_header_mismatch_raises(tmp_path):
    path = tmp_path / "meter.csv"
    path.write_text("household,date,h1\nH1,2011-06-01,0.3\n")
    with pytest.raises(HeaderMismatchError):
        read_meter_corpus(path)
    with pytest.raises(ValueError, match="unknown meter schema 'tall'"):
        read_meter_corpus(path, "tall")


def test_bad_date_rejected_with_row_number(tmp_path):
    path = tmp_path / "meter.csv"
    path.write_text(
        wide_header() + "\n"
        + wide_row("H1", "06/01/2011", [0.3] * 24) + "\n"
        + wide_row("H1", "2011-06-02", [0.3] * 24) + "\n"
    )
    days, diags = read_meter_corpus(path)
    assert len(days) == 1
    assert diags[0].row == 2 and "date" in diags[0].message


_ODD_CELLS = st.sampled_from(
    ["", " ", " 1.5 ", "nan", "NaN", "inf", "-inf", "-1", "-0.0", "0",
     "1e400", "abc", "1_0", "0x1", "\u00a02.5", "1.5e-3"]
)


@st.composite
def meter_rows(draw):
    """24 readings, mostly clean, with up to three odd cells."""
    cells = draw(st.lists(st.floats(min_value=0, max_value=1e6).map(repr),
                          min_size=HOURS_PER_DAY, max_size=HOURS_PER_DAY))
    for t in draw(st.lists(st.integers(0, HOURS_PER_DAY - 1), max_size=3)):
        cells[t] = draw(_ODD_CELLS)
    return cells


# rows the reader rejects whole: too few cells, too many, an impossible date
_REJECTED_ROWS = st.sampled_from(["short", "long", "date"])
_CLEAN = ["0.5"] * HOURS_PER_DAY


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(meter_rows(), _REJECTED_ROWS), min_size=1, max_size=10))
@example([_CLEAN, ["0.5", "nan"] + _CLEAN[2:], "short", _CLEAN[1:] + ["inf"],
          "date", _CLEAN[:12] + ["-1"] + _CLEAN[13:], "long", _CLEAN])
def test_whole_row_parse_matches_per_cell_parse(rows):
    # diagnostics of rejected rows and of missing-marked cells must come out
    # in row order
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "meter.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(WIDE_HEADER)
            for i, cells in enumerate(rows):
                if cells == "short":
                    writer.writerow([f"H{i}", "2011-06-01"] + _CLEAN[1:])
                elif cells == "long":
                    writer.writerow([f"H{i}", "2011-06-01"] + _CLEAN + ["0.5"])
                elif cells == "date":
                    writer.writerow([f"H{i}", "2011-02-30"] + _CLEAN)
                else:
                    writer.writerow([f"H{i}", "2011-06-01"] + cells)
        days, diags = read_meter_corpus(path)
    expected_diags, expected_kwh, expected_ids = [], [], []
    for row_no, cells in enumerate(rows, start=2):
        if cells in ("short", "long"):
            expected_diags.append(Diagnostic(row_no, "expected 24 hourly columns"))
        elif cells == "date":
            expected_diags.append(Diagnostic(row_no, "bad date '2011-02-30'"))
        else:
            expected_kwh.append(
                [_parse_kwh_cell(c, row_no, f"h{t + 1}", expected_diags)
                 for t, c in enumerate(cells)]
            )
            expected_ids.append(f"H{row_no - 2}")
    assert list(days.household_ids) == expected_ids
    for kwh, expected in zip(days.kwh, expected_kwh):
        assert kwh.tobytes() == np.array(expected).tobytes()
    assert len(days) == len(expected_kwh)
    assert diags == expected_diags


def test_long_reader_matches_wide_reader(tmp_path):
    # round-trip oracle: the same generated corpus written in both layouts
    # parses to identical day tables
    rng = np.random.default_rng(4)
    days = DayTable(
        [f"H{i}" for i in range(5) for j in range(4)],
        [D(2011, 6, 1) + dt.timedelta(days=j) for i in range(5) for j in range(4)],
        rng.uniform(0.1, 2.0, (20, 24)),
    )
    wide = tmp_path / "wide.csv"
    long = tmp_path / "long.csv"
    write_meter_corpus(days, wide, "wide")
    write_meter_corpus(days, long, "long")
    wide_days, _ = read_meter_corpus(wide, "wide")
    long_days, _ = read_meter_corpus(long, "long")
    assert len(wide_days) == len(long_days) == len(days)
    by_key = {key: kwh for key, kwh in
              zip(zip(long_days.household_ids, long_days.dates), long_days.kwh)}
    for key, kwh in zip(zip(wide_days.household_ids, wide_days.dates), wide_days.kwh):
        assert np.array_equal(kwh, by_key[key])


def test_long_reader_missing_hours_stay_missing(tmp_path):
    path = tmp_path / "long.csv"
    rows = ["household_id,date,hour,kwh"]
    for hour in (1, 2, 24):
        rows.append(f"H1,2011-06-01,{hour},0.5")
    path.write_text("\n".join(rows) + "\n")
    days, _ = read_meter_corpus(path, "long")
    assert len(days) == 1
    kwh = days.kwh[0]
    assert kwh[0] == 0.5 and kwh[1] == 0.5 and kwh[23] == 0.5
    assert np.isnan(kwh[2:23]).all()


def test_long_duplicate_hour_raises(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text(
        "household_id,date,hour,kwh\nH1,2011-06-01,3,0.5\nH1,2011-06-01,3,0.6\n"
    )
    with pytest.raises(DuplicateRecordError):
        read_meter_corpus(path, "long")


def test_meter_round_trip_preserves_values(tmp_path):
    rng = np.random.default_rng(11)
    kwh = rng.uniform(0, 3, 24)
    kwh[5] = np.nan
    days = DayTable(["H9"], [D(2012, 1, 31)], kwh[None, :])
    path = tmp_path / "meter.csv"
    write_meter_corpus(days, path)
    back, _ = read_meter_corpus(path)
    assert (back.household_ids[0], back.dates[0]) == (days.household_ids[0], days.dates[0])
    assert np.array_equal(back.kwh[0], kwh, equal_nan=True)


def test_meter_writer_text_is_repr_of_each_reading(tmp_path):
    kwh = np.array([np.nan, 0.1, -0.0, 1e-300, 2.5e17, 1 / 3, np.inf] + [0.5] * 17)
    days = DayTable(["H,1", "H2"], [D(2011, 6, 1), D(2011, 6, 2)], [kwh, kwh[::-1]])
    for schema in ("wide", "long"):
        path = tmp_path / f"{schema}.csv"
        write_meter_corpus(days, path, schema)
        cells = [[] for _ in range(len(days))]
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                day_index = 0 if row[0] == "H,1" else 1
                cells[day_index] += row[2:] if schema == "wide" else row[3:]
        for day_kwh, written in zip(days.kwh, cells):
            assert written == ["" if np.isnan(x) else repr(float(x)) for x in day_kwh]


def test_daytable_requires_24_slots():
    with pytest.raises(ValueError):
        DayTable(["H1"], [D(2011, 6, 1)], np.ones((1, 23)))
    with pytest.raises(ValueError):
        DayTable(["H1"], [D(2011, 6, 1)], np.ones(24))
    with pytest.raises(ValueError, match="column lengths"):
        DayTable(["H1", "H2"], [D(2011, 6, 1)], np.ones((2, 24)))
    # a shapes.csv written from these would not read back
    with pytest.raises(ValueError, match=r"values: expected shape \(N, 24\), got \(1, 23\)"):
        ShapeTable(np.ones((1, 23)) / 23, ["H1"], [D(2011, 6, 1)], [1.0], [0.5])
    with pytest.raises(ValueError, match=r"values: expected shape \(N, 24\), got \(24,\)"):
        ShapeTable(np.ones(24) / 24, ["H1"], [D(2011, 6, 1)], [1.0], [0.5])


@pytest.mark.parametrize("make", [
    lambda ids, dates: DayTable(ids, dates, np.ones((2, 24))),
    lambda ids, dates: ShapeTable(np.ones((2, 24)) / 24, ids, dates, [1.0, 2.0], [0.5, 1.0]),
    lambda ids, dates: AssignmentTable(ids, dates, [1, 2], [0.1, 0.2], [0.01, 0.02]),
    lambda ids, dates: SyntheticTruth(ids, dates, [0, -1]),
], ids=["DayTable", "ShapeTable", "AssignmentTable", "SyntheticTruth"])
def test_keyed_table_checks_lengths_freezes_and_takes_copies(make):
    with pytest.raises(ValueError, match="column lengths"):
        make(["H1", "H2"], [D(2011, 6, 1)])
    table = make(["H1", "H2"], [D(2011, 6, 1), D(2011, 6, 2)])
    assert _frozen(table) is table
    columns = {name: value for name, value in vars(table).items()
               if isinstance(value, np.ndarray)}
    assert {"household_ids", "dates"} < set(columns)
    for column in columns.values():
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]
    copy = table.take([1, 0])
    for name in columns:
        column = getattr(copy, name)
        assert column.flags.writeable, name
        assert np.array_equal(column, columns[name][[1, 0]], equal_nan=column.dtype != object)
    empty = table.take([])
    assert type(empty) is type(table)
    assert all(len(getattr(empty, name)) == 0 for name in columns)
    assert list(table.take(np.array([False, True])).household_ids) == ["H2"]


class _Holder:
    def __init__(self, **attributes):
        vars(self).update(attributes)


def test_frozen_makes_what_it_reaches_read_only_in_place():
    inner, nested = np.arange(3.0), np.ones(2)
    holder = _Holder(items=[{"a": inner, "b": [nested]}], n=1)
    assert _frozen(holder) is holder
    (entry,) = holder.items
    assert isinstance(holder.items, tuple) and isinstance(entry["b"], tuple)
    with pytest.raises(TypeError):
        entry["c"] = 0
    assert entry["a"] is inner and entry["b"][0] is nested
    for array in (inner, nested):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    record = WeatherDay(D(2011, 6, 1), 70.0)
    rows = _frozen([record])
    assert rows == (record,) and rows[0] is record
    for table in (DayTable(["H1"], [D(2011, 6, 1)], np.ones((1, 24))),
                  Survey(["H1"], [[1] * len(INDICATOR_VOCABULARY)])):
        assert _frozen(table) is table
        assert not any(column.flags.writeable for column in vars(table).values())


def test_keyed_table_defaults_only_columns_its_file_does_not_hold():
    """A column without cells in the table's file may be left out and is
    then NaN; leaving out a column that the file holds still fails."""
    ids, dates = ["H1", "H2"], [D(2011, 6, 1), D(2011, 6, 2)]
    for table in (AssignmentTable(ids, dates, [1, 2], [0.1, 0.2], [0.01, 0.02]),
                  AssignmentTable(household_ids=ids, dates=dates, cluster_ids=[1, 2],
                                  distances=[0.1, 0.2], rses=[0.01, 0.02]),
                  AssignmentTable(ids, dates, [1, 2], [0.1, 0.2], [0.01, 0.02], None, None)):
        assert np.isnan(table.day_total_kwh).all() and len(table.day_total_kwh) == 2
        assert np.isnan(table.discretionary_kwh).all()
        assert not np.shares_memory(table.day_total_kwh, table.discretionary_kwh)
    given = AssignmentTable(ids, dates, [1, 2], [0.1, 0.2], [0.01, 0.02], [3.0, 4.0], [1.0, 2.0])
    assert given.day_total_kwh.tolist() == [3.0, 4.0]
    assert given.discretionary_kwh.tolist() == [1.0, 2.0]
    with pytest.raises(KeyError, match="rses"):
        AssignmentTable(ids, dates, [1, 2], [0.1, 0.2])
    with pytest.raises(KeyError, match="rses"):
        AssignmentTable(ids, dates, cluster_ids=[1, 2], distances=[0.1, 0.2],
                        day_total_kwh=[3.0, 4.0], discretionary_kwh=[1.0, 2.0])
    with pytest.raises(KeyError, match="values"):
        KeyedTable.__init__(object.__new__(ShapeTable), ids, dates,
                            day_total_kwh=[3.0, 4.0], discretionary_kwh=[1.0, 2.0])


def test_weather_parses(tmp_path):
    path = tmp_path / "weather.csv"
    path.write_text("date,avg_temp_f\n2011-07-04,78.2\n")
    records, diags = read_weather(path)
    assert diags == []
    assert records == [WeatherDay(D(2011, 7, 4), 78.2)]


def test_weather_empty_file_warns(tmp_path):
    path = tmp_path / "weather.csv"
    path.write_text("date,avg_temp_f\n")
    with pytest.warns(UserWarning):
        records, _ = read_weather(path)
    assert records == []


def test_weather_non_numeric_rejected(tmp_path):
    path = tmp_path / "weather.csv"
    path.write_text("date,avg_temp_f\n2011-07-04,warm\n2011-07-05,71.0\n")
    records, diags = read_weather(path)
    assert len(records) == 1
    assert diags[0].row == 2 and "non-numeric temperature" in diags[0].message


def test_weather_duplicate_date_raises(tmp_path):
    path = tmp_path / "weather.csv"
    path.write_text("date,avg_temp_f\n2011-07-04,78.2\n2011-07-04,70.0\n")
    with pytest.raises(DuplicateRecordError):
        read_weather(path)


def test_weather_round_trip(tmp_path):
    records = [WeatherDay(D(2011, 6, 1) + dt.timedelta(days=i), 60.0 + i / 3)
               for i in range(10)]
    path = tmp_path / "weather.csv"
    write_weather(records, path)
    back, _ = read_weather(path)
    assert back == records


def test_survey_cell_mapping(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text(
        "household_id,elderly,low_income,chronically_ill\nH1,1,0,\n"
    )
    survey, diags = read_survey(path)
    assert diags == []
    assert survey.household_ids.tolist() == ["H1"]
    assert [survey.flags(name) for name in ("elderly", "low_income", "chronically_ill",
                                           "central_ac")] == [[1], [0], [-1], [-1]]
    assert survey.indicators.dtype == np.int8


def test_survey_unknown_column_lists_vocabulary(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text("household_id,owns_pool\nH1,1\n")
    with pytest.raises(UnknownIndicatorError) as err:
        read_survey(path)
    assert "owns_pool" in str(err.value)
    assert "low_income" in str(err.value)


def test_survey_repeated_column_raises(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text("household_id,elderly,elderly\nH1,1,0\n")
    with pytest.raises(HeaderMismatchError, match="'elderly'"):
        read_survey(path)
    for text in ("", "household,elderly\nH1,1\n"):
        path.write_text(text)
        with pytest.raises(HeaderMismatchError, match="must start with 'household_id'"):
            read_survey(path)


def test_survey_duplicate_household_raises(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text("household_id,elderly\nH1,1\nH1,0\n")
    with pytest.raises(DuplicateRecordError):
        read_survey(path)


def test_survey_bad_cell_treated_unknown_with_diagnostic(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text("household_id,elderly\nH1,yes\n")
    survey, diags = read_survey(path)
    assert survey.flags("elderly") == [-1]
    assert len(diags) == 1


def test_survey_participant_count_round_trip(tmp_path):
    # the study's survey had 6413 participants; parsing a corpus of that
    # size must preserve the distinct id count
    indicators = np.full((6413, len(INDICATOR_VOCABULARY)), -1)
    indicators[:, INDICATOR_VOCABULARY.index("elderly")] = np.arange(6413) % 2
    survey = Survey([f"H{i:05d}" for i in range(6413)], indicators)
    path = tmp_path / "survey.csv"
    write_survey(survey, path)
    back, _ = read_survey(path)
    assert len(set(back.household_ids)) == 6413
    assert np.array_equal(back.indicators, indicators)


def same_survey(a, b) -> bool:
    return (a.household_ids.tolist() == b.household_ids.tolist()
            and a.indicators.dtype == b.indicators.dtype == np.int8
            and np.array_equal(a.indicators, b.indicators))


def test_a_survey_round_trips_is_read_only_in_the_run_cache_and_pickles(tmp_path):
    drawn = generate_synthetic(GeneratorConfig(households=6, days=3), seed=1,
                               include_meter=False).profiles
    assert set(np.unique(drawn.indicators)) == {0, 1}
    drawn.indicators[0, :3] = -1  # unknown answers too
    path = tmp_path / "survey.csv"
    write_survey(drawn, path)
    read, diagnostics = read_survey(path)
    assert same_survey(read, drawn) and diagnostics == []
    write_survey(read, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
    cached, _ = RunCache().read("survey", [path], lambda: read_survey(path))
    for column in (cached.household_ids, cached.indicators):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]
    for twin in (pickle.loads(pickle.dumps(cached)), copy.deepcopy(cached)):
        assert same_survey(twin, drawn)


def test_a_survey_of_another_shape_is_rejected():
    for indicators in ([[1] * 11], [[1] * 12] * 2, [1] * 12):
        with pytest.raises(ValueError, match="expected shape"):
            Survey(["H1"], indicators)


def test_season_boundaries():
    assert SeasonCalendar.season(D(2011, 6, 1)) == "summer"
    assert SeasonCalendar.season(D(2011, 8, 31)) == "summer"
    assert SeasonCalendar.season(D(2011, 9, 1)) == "autumn"
    assert SeasonCalendar.season(D(2011, 12, 1)) == "winter"
    assert SeasonCalendar.season(D(2012, 2, 29)) == "winter"
    assert SeasonCalendar.season(D(2012, 3, 1)) == "spring"
    assert SeasonCalendar.season(D(2012, 5, 31)) == "spring"


def day_type(date: D) -> str:
    """Reference weekend rule: Saturday and Sunday; holidays are weekdays."""
    return "weekend" if date.weekday() >= 5 else "weekday"


def test_day_type_weekend_rule():
    # Saturday, Sunday, Monday, and July 4th 2011: holidays are not
    # treated as weekends (it was a Monday)
    dates = [D(2011, 6, 4), D(2011, 6, 5), D(2011, 6, 6), D(2011, 7, 4)]
    _, day_types = SeasonCalendar.day_labels(ingest.day_numbers(dates))
    assert day_types.tolist() == ["weekend", "weekend", "weekday", "weekday"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.dates(), max_size=40))
def test_vectorized_labels_match_per_date_rules(dates):
    seasons, day_types = SeasonCalendar.day_labels(ingest.day_numbers(dates))
    assert seasons.tolist() == [SeasonCalendar.season(d) for d in dates]
    assert day_types.tolist() == [day_type(d) for d in dates]
    assert seasons.dtype == object and day_types.dtype == object


def test_indicator_vocabulary_is_closed():
    # read_survey rejects any other column: test_survey_unknown_column_lists_vocabulary
    assert len(INDICATOR_VOCABULARY) == 12


# One input per reader holding every kind of row or cell it rejects, with
# the exact diagnostics it gives: their rows and text reach
# ingest_report.json. Row numbers count the header as row 1 and count
# blank rows.
_GOOD_HOURS = ",".join(["0.5"] * HOURS_PER_DAY)
_ODD_HOURS = ",".join(["abc", "-1", "nan", "inf", ""] + ["0.5"] * (HOURS_PER_DAY - 5))
DIAGNOSTIC_CASES = {
    "wide": (
        lambda path: read_meter_corpus(path, "wide"),
        [wide_header(),
         f"H1,2011-06-01,{_GOOD_HOURS}",
         "",
         "H1,2011-06-02," + ",".join(["0.5"] * 23),
         f"H1,06/03/2011,{_GOOD_HOURS}",
         f"H1,2011-06-04,{_ODD_HOURS}"],
        [(4, "expected 24 hourly columns"),
         (5, "bad date '06/03/2011'"),
         (6, "h1: non-numeric reading 'abc' marked missing"),
         (6, "h2: invalid reading -1 marked missing"),
         (6, "h3: invalid reading nan marked missing"),
         (6, "h4: invalid reading inf marked missing")],
    ),
    "long": (
        lambda path: read_meter_corpus(path, "long"),
        ["household_id,date,hour,kwh",
         "H1,2011-06-01,1,0.5",
         "",
         "H1,2011-06-01,2",
         "H1,2011-13-01,3,0.5",
         "H1,2011-06-01,x,0.5",
         "H1,2011-06-01,25,0.5",
         "H1,2011-06-01,3,abc",
         "H1,2011-06-01,4,-1",
         "H1,2011-06-01,5,nan"],
        [(4, "expected 4 columns"),
         (5, "bad date '2011-13-01'"),
         (6, "bad hour 'x'"),
         (7, "hour 25 outside 1..24"),
         (8, "hour 3: non-numeric reading 'abc' marked missing"),
         (9, "hour 4: invalid reading -1 marked missing"),
         (10, "hour 5: invalid reading nan marked missing")],
    ),
    "weather": (
        read_weather,
        ["date,avg_temp_f",
         "2011-07-04,78.2",
         "",
         "2011-07-05",
         "07/06/2011,70",
         "2011-07-07,warm",
         "2011-07-08,inf",
         "2011-07-09,nan"],
        [(4, "expected 2 columns"),
         (5, "bad date '07/06/2011'"),
         (6, "non-numeric temperature 'warm'"),
         (7, "non-finite temperature inf"),
         (8, "non-finite temperature nan")],
    ),
    "survey": (
        read_survey,
        ["household_id,elderly,low_income",
         "H1,1,0",
         "",
         "H2,1",
         "H3,yes,2"],
        [(4, "expected 3 columns"),
         (5, "elderly: cell 'yes' not in {0,1,empty}, treated as unknown"),
         (5, "low_income: cell '2' not in {0,1,empty}, treated as unknown")],
    ),
}


@pytest.mark.parametrize("kind", sorted(DIAGNOSTIC_CASES))
# csv ends a row at a lone CR as at an LF; a blank row is still a row
@pytest.mark.parametrize("newline", ["\n", "\r"], ids=["lf", "cr"])
def test_reader_diagnostics_golden(kind, newline, tmp_path):
    read, lines, want = DIAGNOSTIC_CASES[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_bytes((newline.join(lines) + newline).encode())
    records, diagnostics = read(path)
    assert [(d.row, d.message) for d in diagnostics] == want
    assert len(records) == {"wide": 2, "long": 1, "weather": 1, "survey": 2}[kind]


@pytest.mark.parametrize("kind", sorted(DIAGNOSTIC_CASES))
@pytest.mark.parametrize("line", [0, 2, 4])  # the header, a blank line, a data row
def test_a_byte_that_is_not_utf8_names_the_input_file_and_row(kind, line, tmp_path):
    read, lines, _ = DIAGNOSTIC_CASES[kind]
    path = tmp_path / f"{kind}.csv"
    data = "\n".join(lines).encode().split(b"\n")
    data[line] = data[line][:3] + b"\xff" + data[line][3:]
    path.write_bytes(b"\n".join(data) + b"\n")
    with pytest.raises(MalformedInputError,
                       match=f"{kind}.csv:{line + 1}: byte 0xff is not UTF-8$"):
        read(path)


@pytest.mark.parametrize("kind", sorted(DIAGNOSTIC_CASES))
def test_a_stray_quote_names_the_input_file_and_row(kind, tmp_path):
    # the quoted field closes at the end of the file, far short of csv's
    # field limit: the rows after the quote would read as one cell
    read, lines, _ = DIAGNOSTIC_CASES[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join([*lines[:2], '"' + lines[1], *lines[1:]]) + "\n")
    with pytest.raises(MalformedInputError, match=f"{kind}.csv:3: a quote opens a field "
                       "that runs across lines \\(expected"):
        read(path)


def test_a_quoted_line_break_in_a_row_of_the_right_width_reads(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text('household_id,elderly\n"H\n1",1\nH2,0\n')
    survey, diagnostics = read_survey(path)
    assert survey.household_ids.tolist() == ["H\n1", "H2"] and diagnostics == []
    assert survey.flags("elderly") == [1, 0]


@pytest.mark.parametrize("kind", sorted(DIAGNOSTIC_CASES))
def test_a_field_past_the_csv_limit_names_the_input_file_and_row(kind, tmp_path):
    read, lines, _ = DIAGNOSTIC_CASES[kind]
    path = tmp_path / f"{kind}.csv"
    rest = [lines[1]] * (131_072 // len(lines[1]) + 1)
    path.write_text("\n".join([*lines[:2], '"' + lines[1], *rest]) + "\n")
    with pytest.raises(MalformedInputError, match=f"{kind}.csv:3: field larger than field limit"):
        read(path)
