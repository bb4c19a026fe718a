import csv
import datetime as dt
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadshapes.errors import (
    DuplicateRecordError,
    HeaderMismatchError,
    UnknownIndicatorError,
)
from loadshapes.ingest import (
    HOURS_PER_DAY,
    INDICATOR_VOCABULARY,
    WIDE_HEADER,
    DayTable,
    HouseholdProfile,
    SeasonCalendar,
    WeatherDay,
    _parse_kwh_cell,
    read_meter_corpus,
    read_survey,
    read_weather,
    write_meter_corpus,
    write_survey,
    write_weather,
)

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


@settings(max_examples=150, deadline=None)
@given(st.lists(meter_rows(), min_size=1, max_size=4))
def test_whole_row_parse_matches_per_cell_parse(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "meter.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(WIDE_HEADER)
            for i, cells in enumerate(rows):
                writer.writerow([f"H{i}", "2011-06-01"] + cells)
        days, diags = read_meter_corpus(path)
    expected_diags = []
    for row_no, (cells, kwh) in enumerate(zip(rows, days.kwh), start=2):
        expected = np.array(
            [_parse_kwh_cell(c, row_no, f"h{t + 1}", expected_diags)
             for t, c in enumerate(cells)]
        )
        assert kwh.tobytes() == expected.tobytes()
    assert len(days) == len(rows)
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
    profiles, diags = read_survey(path)
    assert diags == []
    prof = profiles[0]
    assert prof.flag("elderly") is True
    assert prof.flag("low_income") is False
    assert prof.flag("chronically_ill") is None


def test_survey_unknown_column_lists_vocabulary(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text("household_id,owns_pool\nH1,1\n")
    with pytest.raises(UnknownIndicatorError) as err:
        read_survey(path)
    assert "owns_pool" in str(err.value)
    assert "low_income" in str(err.value)


def test_survey_duplicate_household_raises(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text("household_id,elderly\nH1,1\nH1,0\n")
    with pytest.raises(DuplicateRecordError):
        read_survey(path)


def test_survey_bad_cell_treated_unknown_with_diagnostic(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text("household_id,elderly\nH1,yes\n")
    profiles, diags = read_survey(path)
    assert profiles[0].flag("elderly") is None
    assert len(diags) == 1


def test_survey_participant_count_round_trip(tmp_path):
    # the study's survey had 6413 participants; parsing a corpus of that
    # size must preserve the distinct id count
    profiles = [
        HouseholdProfile(f"H{i:05d}", {"elderly": bool(i % 2)})
        for i in range(6413)
    ]
    path = tmp_path / "survey.csv"
    write_survey(profiles, path)
    back, _ = read_survey(path)
    assert len({p.household_id for p in back}) == 6413


def test_season_boundaries():
    assert SeasonCalendar.season(D(2011, 6, 1)) == "summer"
    assert SeasonCalendar.season(D(2011, 8, 31)) == "summer"
    assert SeasonCalendar.season(D(2011, 9, 1)) == "autumn"
    assert SeasonCalendar.season(D(2011, 12, 1)) == "winter"
    assert SeasonCalendar.season(D(2012, 2, 29)) == "winter"
    assert SeasonCalendar.season(D(2012, 3, 1)) == "spring"
    assert SeasonCalendar.season(D(2012, 5, 31)) == "spring"


def test_day_type_weekend_rule():
    assert SeasonCalendar.day_type(D(2011, 6, 4)) == "weekend"  # Saturday
    assert SeasonCalendar.day_type(D(2011, 6, 5)) == "weekend"  # Sunday
    assert SeasonCalendar.day_type(D(2011, 6, 6)) == "weekday"  # Monday
    # holidays are not treated as weekends (July 4th 2011 was a Monday)
    assert SeasonCalendar.day_type(D(2011, 7, 4)) == "weekday"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.dates(), max_size=40))
def test_vectorized_labels_match_per_date_rules(dates):
    seasons, day_types = SeasonCalendar.labels(dates)
    assert seasons.tolist() == [SeasonCalendar.season(d) for d in dates]
    assert day_types.tolist() == [SeasonCalendar.day_type(d) for d in dates]
    assert seasons.dtype == object and day_types.dtype == object


def test_indicator_vocabulary_is_closed():
    assert len(INDICATOR_VOCABULARY) == 12
    prof = HouseholdProfile("H1", {})
    with pytest.raises(UnknownIndicatorError):
        prof.flag("owns_pool")
