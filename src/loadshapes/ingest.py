"""Parsing and validation of the three input corpora.

Readers are single-pass and stateless. Each returns ``(records, diagnostics)``
where diagnostics is a list of :class:`Diagnostic` describing rejected rows or
cells that were marked missing; the meter readers' records are one
:class:`DayTable`. Hard schema problems (unreadable file, header mismatch,
duplicate keys) raise instead.

File formats are UTF-8 CSV with ISO-8601 dates:

* wide meter schema:  ``household_id,date,h1..h24``
* long meter schema:  ``household_id,date,hour,kwh``
* weather:            ``date,avg_temp_f``
* survey:             ``household_id,<indicator columns>``

A missing or malformed hourly cell becomes a NaN slot, never 0.0.
"""

from __future__ import annotations

import csv
import datetime as dt
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateRecordError,
    HeaderMismatchError,
    UnknownIndicatorError,
)

HOURS_PER_DAY = 24

WIDE_HEADER = ["household_id", "date"] + [f"h{i}" for i in range(1, 25)]
LONG_HEADER = ["household_id", "date", "hour", "kwh"]
WEATHER_HEADER = ["date", "avg_temp_f"]

# Closed vocabulary of binary survey indicators.
INDICATOR_VOCABULARY = (
    "low_income",
    "chronically_ill",
    "elderly",
    "children_in_home",
    "college_degree",
    "work_full_time",
    "work_from_home",
    "single_family_home",
    "electric_dryer",
    "central_ac",
    "room_ac",
    "programmable_thermostat",
)


@dataclass(frozen=True)
class Diagnostic:
    """Row-numbered note about a rejected row or a missing-marked cell."""

    row: int
    message: str


class DayTable:
    """Household-days as columns, one row per day.

    ``kwh[i, t-1]`` holds slot t of day i, covering clock hour [t-1, t);
    slot 1 is midnight to 1am. Missing readings are NaN.
    """

    def __init__(self, household_ids, dates, kwh):
        self.household_ids = np.asarray(household_ids, dtype=object)
        self.dates = np.asarray(dates, dtype=object)
        self.kwh = np.ascontiguousarray(kwh, dtype=float)
        if self.kwh.ndim != 2 or self.kwh.shape[1] != HOURS_PER_DAY:
            raise ValueError(f"expected (N, 24) hourly slots, got shape {self.kwh.shape}")
        if not len(self.household_ids) == len(self.dates) == len(self.kwh):
            raise ValueError("column lengths differ")

    def __len__(self) -> int:
        return len(self.kwh)

    def take(self, indices) -> "DayTable":
        idx = np.asarray(indices)
        return DayTable(self.household_ids[idx], self.dates[idx], self.kwh[idx])


@dataclass(frozen=True)
class WeatherDay:
    date: dt.date
    avg_temp_f: float


@dataclass(frozen=True)
class HouseholdProfile:
    """Survey record: indicator -> True/False; absent key means unknown."""

    household_id: str
    indicators: dict[str, bool] = field(default_factory=dict)

    def flag(self, indicator: str) -> bool | None:
        if indicator not in INDICATOR_VOCABULARY:
            raise UnknownIndicatorError(
                f"'{indicator}' is not in the indicator vocabulary"
            )
        return self.indicators.get(indicator)


_MONTH_SEASON = {
    12: "winter", 1: "winter", 2: "winter",
    3: "spring", 4: "spring", 5: "spring",
    6: "summer", 7: "summer", 8: "summer",
    9: "autumn", 10: "autumn", 11: "autumn",
}

SEASONS = ("summer", "autumn", "winter", "spring")
DAY_TYPES = ("weekday", "weekend")

_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()
# label arrays index these, so all rows share one str object per label
_SEASON_OF_MONTH0 = np.array([_MONTH_SEASON[m] for m in range(1, 13)], dtype=object)
_DAY_TYPE_OF_WEEKEND = np.array(DAY_TYPES, dtype=object)


def day_numbers(dates) -> np.ndarray:
    """int64 days since 1970-01-01 of a sequence of dates."""
    ordinals = np.fromiter((d.toordinal() for d in dates), dtype=np.int64,
                           count=len(dates))
    return ordinals - _EPOCH_ORDINAL


class SeasonCalendar:
    """Meteorological seasons and weekday/weekend labels for any date.

    Summer is Jun-Aug, autumn Sep-Nov, winter Dec-Feb, spring Mar-May.
    Weekend is Saturday/Sunday; holidays are not special-cased.
    """

    @staticmethod
    def season(date: dt.date) -> str:
        return _MONTH_SEASON[date.month]

    @staticmethod
    def day_type(date: dt.date) -> str:
        return "weekend" if date.weekday() >= 5 else "weekday"

    @classmethod
    def labels(cls, dates) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized (season, day_type) label arrays for a date sequence."""
        return cls.day_labels(day_numbers(dates))

    @staticmethod
    def day_labels(days: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(season, day_type) object arrays for ``day_numbers`` output."""
        months = days.astype("datetime64[D]").astype("datetime64[M]")
        month0 = months.astype(np.int64) % 12  # months since 1970-01
        weekend = (days + 3) % 7 >= 5  # 1970-01-01 was a Thursday
        return _SEASON_OF_MONTH0[month0], _DAY_TYPE_OF_WEEKEND[weekend.astype(np.intp)]


def _parse_date(cell: str) -> dt.date:
    return dt.date.fromisoformat(cell.strip())


def _parse_kwh_cell(cell: str, row_no: int, label: str, diagnostics: list) -> float:
    """Parse one hourly reading; malformed or negative -> NaN with a note."""
    text = cell.strip()
    if text == "":
        return np.nan
    try:
        value = float(text)
    except ValueError:
        diagnostics.append(
            Diagnostic(row_no, f"{label}: non-numeric reading '{text}' marked missing")
        )
        return np.nan
    if not np.isfinite(value) or value < 0:
        diagnostics.append(
            Diagnostic(row_no, f"{label}: invalid reading {text} marked missing")
        )
        return np.nan
    return value


def _check_header(actual: list[str] | None, expected: list[str], path) -> None:
    if actual is None:
        raise HeaderMismatchError(f"{path}: file is empty, expected header {expected}")
    if [c.strip() for c in actual] != expected:
        raise HeaderMismatchError(
            f"{path}: header {actual} does not match schema {expected}"
        )


def read_meter_corpus(path, schema: str = "wide"):
    """Read hourly meter readings into a :class:`DayTable`.

    Returns ``(days, diagnostics)``. Raises on unreadable file, header
    mismatch, or duplicate (household_id, date) keys.
    """
    if schema == "wide":
        return _read_meter_wide(path)
    if schema == "long":
        return _read_meter_long(path)
    raise ValueError(f"unknown meter schema '{schema}' (expected wide|long)")


def _read_meter_wide(path):
    household_ids: list[str] = []
    dates: list[dt.date] = []
    rows: list[np.ndarray] = []
    diagnostics: list[Diagnostic] = []
    seen: set[tuple[str, dt.date]] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        _check_header(header, WIDE_HEADER, path)
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(WIDE_HEADER):
                diagnostics.append(
                    Diagnostic(row_no, "expected 24 hourly columns")
                )
                continue
            household_id = row[0].strip()
            try:
                date = _parse_date(row[1])
            except ValueError:
                diagnostics.append(Diagnostic(row_no, f"bad date '{row[1]}'"))
                continue
            key = (household_id, date)
            if key in seen:
                raise DuplicateRecordError(
                    f"{path}:{row_no}: duplicate (household_id, date) {key}"
                )
            seen.add(key)
            # Whole-row fast path; any empty, malformed, negative or
            # non-finite cell sends the row through the per-cell parser,
            # which marks it missing and writes the diagnostics.
            try:
                kwh = np.array(list(map(float, row[2:])))
                clean = bool(((kwh >= 0.0) & (kwh < np.inf)).all())
            except ValueError:
                clean = False
            if not clean:
                kwh = np.array(
                    [
                        _parse_kwh_cell(row[2 + t], row_no, f"h{t + 1}", diagnostics)
                        for t in range(HOURS_PER_DAY)
                    ]
                )
            household_ids.append(household_id)
            dates.append(date)
            rows.append(kwh)
    kwh = np.array(rows).reshape(-1, HOURS_PER_DAY)
    return DayTable(household_ids, dates, kwh), diagnostics


def _read_meter_long(path):
    diagnostics: list[Diagnostic] = []
    slots: dict[tuple[str, dt.date], np.ndarray] = {}
    filled: set[tuple[str, dt.date, int]] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        _check_header(header, LONG_HEADER, path)
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(LONG_HEADER):
                diagnostics.append(
                    Diagnostic(row_no, f"expected {len(LONG_HEADER)} columns")
                )
                continue
            household_id = row[0].strip()
            try:
                date = _parse_date(row[1])
            except ValueError:
                diagnostics.append(Diagnostic(row_no, f"bad date '{row[1]}'"))
                continue
            try:
                hour = int(row[2])
            except ValueError:
                diagnostics.append(Diagnostic(row_no, f"bad hour '{row[2]}'"))
                continue
            if not 1 <= hour <= HOURS_PER_DAY:
                diagnostics.append(Diagnostic(row_no, f"hour {hour} outside 1..24"))
                continue
            triple = (household_id, date, hour)
            if triple in filled:
                raise DuplicateRecordError(
                    f"{path}:{row_no}: duplicate (household_id, date, hour) {triple}"
                )
            filled.add(triple)
            key = (household_id, date)
            if key not in slots:
                slots[key] = np.full(HOURS_PER_DAY, np.nan)
            slots[key][hour - 1] = _parse_kwh_cell(
                row[3], row_no, f"hour {hour}", diagnostics
            )
    days = DayTable(
        [hid for hid, _ in slots],
        [date for _, date in slots],
        np.array(list(slots.values())).reshape(-1, HOURS_PER_DAY),
    )
    return days, diagnostics


def write_meter_corpus(days: DayTable, path, schema: str = "wide") -> None:
    """Write a :class:`DayTable` to CSV, one day at a time (round-trip
    counterpart of the readers).

    Readings are written as the ``repr`` of Python floats (shortest text that
    parses back to the same double); missing (NaN) readings as empty cells.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        rows = zip(days.household_ids, days.dates, days.kwh)
        if schema == "wide":
            writer.writerow(WIDE_HEADER)
            for household_id, date, kwh in rows:
                writer.writerow(
                    [household_id, date.isoformat()]
                    + ["" if v != v else repr(v) for v in kwh.tolist()]
                )
        elif schema == "long":
            writer.writerow(LONG_HEADER)
            for household_id, date, kwh in rows:
                for t, v in enumerate(kwh.tolist(), start=1):
                    writer.writerow(
                        [household_id, date.isoformat(), t,
                         "" if v != v else repr(v)]
                    )
        else:
            raise ValueError(f"unknown meter schema '{schema}'")


def read_weather(path):
    """Read daily average temperatures. Returns (weather_days, diagnostics)."""
    records: list[WeatherDay] = []
    diagnostics: list[Diagnostic] = []
    seen: set[dt.date] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        _check_header(header, WEATHER_HEADER, path)
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                diagnostics.append(Diagnostic(row_no, "expected 2 columns"))
                continue
            try:
                date = _parse_date(row[0])
            except ValueError:
                diagnostics.append(Diagnostic(row_no, f"bad date '{row[0]}'"))
                continue
            try:
                temp = float(row[1])
            except ValueError:
                diagnostics.append(
                    Diagnostic(row_no, f"non-numeric temperature '{row[1]}'")
                )
                continue
            if not np.isfinite(temp):
                diagnostics.append(Diagnostic(row_no, f"non-finite temperature {temp}"))
                continue
            if date in seen:
                raise DuplicateRecordError(f"{path}:{row_no}: duplicate date {date}")
            seen.add(date)
            records.append(WeatherDay(date, temp))
    if not records:
        warnings.warn(f"{path}: weather file contains no usable records")
    return records, diagnostics


def write_weather(records, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(WEATHER_HEADER)
        for rec in records:
            writer.writerow([rec.date.isoformat(), repr(float(rec.avg_temp_f))])


def read_survey(path):
    """Read household survey indicators. Returns (profiles, diagnostics).

    Header columns after household_id must come from the closed indicator
    vocabulary; cells are 1 (true), 0 (false), or empty (unknown).
    """
    profiles: list[HouseholdProfile] = []
    diagnostics: list[Diagnostic] = []
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not header or header[0].strip() != "household_id":
            raise HeaderMismatchError(
                f"{path}: survey header must start with 'household_id'"
            )
        columns = [c.strip() for c in header[1:]]
        unknown = [c for c in columns if c not in INDICATOR_VOCABULARY]
        if unknown:
            raise UnknownIndicatorError(
                f"{path}: unknown indicator column(s) {unknown}; "
                f"allowed: {list(INDICATOR_VOCABULARY)}"
            )
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(columns) + 1:
                diagnostics.append(
                    Diagnostic(row_no, f"expected {len(columns) + 1} columns")
                )
                continue
            household_id = row[0].strip()
            if household_id in seen:
                raise DuplicateRecordError(
                    f"{path}:{row_no}: duplicate household_id '{household_id}'"
                )
            seen.add(household_id)
            indicators: dict[str, bool] = {}
            for col, cell in zip(columns, row[1:]):
                text = cell.strip()
                if text == "":
                    continue
                if text == "1":
                    indicators[col] = True
                elif text == "0":
                    indicators[col] = False
                else:
                    diagnostics.append(
                        Diagnostic(
                            row_no,
                            f"{col}: cell '{text}' not in {{0,1,empty}}, treated as unknown",
                        )
                    )
            profiles.append(HouseholdProfile(household_id, indicators))
    return profiles, diagnostics


def write_survey(profiles, path, columns=INDICATOR_VOCABULARY) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["household_id"] + list(columns))
        for prof in profiles:
            row = [prof.household_id]
            for col in columns:
                flag = prof.indicators.get(col)
                row.append("" if flag is None else ("1" if flag else "0"))
            writer.writerow(row)
