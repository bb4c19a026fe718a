"""Cleaning, de-minning, normalization, and subsampling of household-days.

A raw day survives cleaning when all 24 readings are present and its mean
demand is at least 0.2 kW (inclusive). The daily minimum is then subtracted
from every hour ("de-minning", isolating discretionary usage from baseload)
and the remainder is scaled to unit sum. Perfectly flat days have no
discretionary signal and are dropped with their own tally.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, ZeroDiscretionaryError
from .ingest import HOURS_PER_DAY, DayTable

LOW_DEMAND_KW = 0.2
UNIT_SUM_TOL = 1e-9

# Recorded in run provenance so the subsample draw is reproducible.
SUBSAMPLE_ALGORITHM = "numpy.Generator(PCG64).choice(replace=False), sorted indices"

SHAPES_HEADER = (
    ["household_id", "date", "day_total_kwh", "discretionary_kwh"]
    + [f"v{i}" for i in range(1, 25)]
)


@dataclass
class CleaningReport:
    """Per-rule drop tallies; dropped + retained equals the input count."""

    n_input: int = 0
    dropped_missing_hours: int = 0
    dropped_low_demand: int = 0
    dropped_zero_discretionary: int = 0
    retained: int = 0

    @property
    def dropped(self) -> int:
        return (
            self.dropped_missing_hours
            + self.dropped_low_demand
            + self.dropped_zero_discretionary
        )

    @property
    def retention_fraction(self) -> float:
        return self.retained / self.n_input if self.n_input else float("nan")

    def check(self) -> None:
        assert self.dropped + self.retained == self.n_input

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rule", "count"])
            writer.writerow(["input", self.n_input])
            writer.writerow(["dropped_missing_hours", self.dropped_missing_hours])
            writer.writerow(["dropped_low_demand", self.dropped_low_demand])
            writer.writerow(
                ["dropped_zero_discretionary", self.dropped_zero_discretionary]
            )
            writer.writerow(["retained", self.retained])

    @classmethod
    def read_csv(cls, path) -> "CleaningReport":
        with open(path, newline="", encoding="utf-8") as fh:
            rows = dict(
                (row[0], int(row[1])) for row in csv.reader(fh) if row[0] != "rule"
            )
        return cls(
            n_input=rows["input"],
            dropped_missing_hours=rows["dropped_missing_hours"],
            dropped_low_demand=rows["dropped_low_demand"],
            dropped_zero_discretionary=rows["dropped_zero_discretionary"],
            retained=rows["retained"],
        )


class ShapeTable:
    """De-minned, unit-sum shapes as columns, one row per retained
    household-day, with the day's raw and discretionary kWh.

    Bulk operations (clustering, assignment) work on ``values`` directly.
    """

    def __init__(self, values, household_ids, dates, day_total_kwh, discretionary_kwh):
        self.values = np.ascontiguousarray(values, dtype=float)
        self.household_ids = np.asarray(household_ids, dtype=object)
        self.dates = np.asarray(dates, dtype=object)
        self.day_total_kwh = np.asarray(day_total_kwh, dtype=float)
        self.discretionary_kwh = np.asarray(discretionary_kwh, dtype=float)
        n = len(self.values)
        if not (
            len(self.household_ids)
            == len(self.dates)
            == len(self.day_total_kwh)
            == len(self.discretionary_kwh)
            == n
        ):
            raise ValueError("column lengths differ")

    def __len__(self) -> int:
        return len(self.values)

    def take(self, indices) -> "ShapeTable":
        idx = np.asarray(indices)
        return ShapeTable(
            self.values[idx],
            self.household_ids[idx],
            self.dates[idx],
            self.day_total_kwh[idx],
            self.discretionary_kwh[idx],
        )

    def freeze(self) -> "ShapeTable":
        """Mark every column read-only, so a table shared between pipeline
        stages cannot be changed by one of them; returns the table."""
        for column in (self.values, self.household_ids, self.dates,
                       self.day_total_kwh, self.discretionary_kwh):
            column.flags.writeable = False
        return self

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(SHAPES_HEADER)
            for hid, date, total, disc, row in zip(
                self.household_ids, self.dates, self.day_total_kwh,
                self.discretionary_kwh, self.values,
            ):
                writer.writerow(
                    [hid, date.isoformat(), repr(float(total)), repr(float(disc))]
                    + [repr(v) for v in row.tolist()]
                )

    @classmethod
    def read_csv(cls, path, memo: dict | None = None,
                 digest: str | None = None) -> "ShapeTable":
        """The table in ``path``. With ``memo`` (sha256 -> table) and
        ``digest`` (the sha256 of ``path``), a table already remembered under
        ``digest`` is returned without parsing the file; a parsed one is made
        read-only and remembered, so the stages of one run share it."""
        if memo is None:
            return cls._parse_csv(path)
        if digest not in memo:
            memo[digest] = cls._parse_csv(path).freeze()
        return memo[digest]

    @classmethod
    def _parse_csv(cls, path) -> "ShapeTable":
        household_ids, dates, totals, discs, values = [], [], [], [], []
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != SHAPES_HEADER:
                raise ValueError(f"{path}: unexpected shapes header")
            for row in reader:
                household_ids.append(row[0])
                dates.append(dt.date.fromisoformat(row[1]))
                totals.append(float(row[2]))
                discs.append(float(row[3]))
                values.append([float(v) for v in row[4:]])
        return cls(np.array(values).reshape(-1, HOURS_PER_DAY), household_ids, dates, totals, discs)


def clean(days: DayTable) -> tuple[DayTable, CleaningReport]:
    """Drop days with missing hours or mean demand below 0.2 kW.

    A day failing both rules counts under missing-hours (checked first).
    The 0.2 kW boundary is inclusive: a constant 0.2 kWh/h day is retained.
    """
    missing = np.isnan(days.kwh).any(axis=1)
    low_demand = ~missing & (days.kwh.mean(axis=1) < LOW_DEMAND_KW)
    kept = ~(missing | low_demand)
    report = CleaningReport(
        n_input=len(days),
        dropped_missing_hours=int(missing.sum()),
        dropped_low_demand=int(low_demand.sum()),
        retained=int(kept.sum()),
    )
    report.check()
    return days.take(kept), report


def demin(kwh) -> np.ndarray:
    """Subtract the daily minimum from each hour; the result has min 0.

    ``kwh`` is one day (24,) or a table of days (N, 24)."""
    kwh = np.asarray(kwh, dtype=float)
    return kwh - kwh.min(axis=-1, keepdims=True)


def normalize(deminned) -> np.ndarray:
    """Scale a de-minned profile to unit sum.

    Raises ZeroDiscretionaryError for an all-zero profile (perfectly flat
    day); callers exclude such days and tally them in the CleaningReport.
    """
    arr = np.asarray(deminned, dtype=float)
    total = arr.sum(axis=-1, keepdims=True)
    if np.any(total == 0.0):
        raise ZeroDiscretionaryError("day has zero discretionary usage")
    return arr / total


def shape_from_day(kwh) -> np.ndarray:
    """Convenience: demin then normalize one cleaned day."""
    return normalize(demin(kwh))


def preprocess_days(days: DayTable) -> tuple[ShapeTable, CleaningReport]:
    """Full preprocessing: clean, de-min, normalize, tally every drop rule."""
    kept, report = clean(days)
    deminned = demin(kept.kwh)
    totals = deminned.sum(axis=1)
    ok = totals != 0.0
    report.dropped_zero_discretionary = int((~ok).sum())
    report.retained -= report.dropped_zero_discretionary
    report.check()
    table = ShapeTable(
        normalize(deminned[ok]),
        kept.household_ids[ok],
        kept.dates[ok],
        kept.kwh[ok].sum(axis=1),
        totals[ok],
    )
    return table, report


def subsample(shapes: ShapeTable, n: int, seed: int) -> ShapeTable:
    """Uniform draw of n shapes without replacement, deterministic per seed."""
    size = len(shapes)
    if n > size:
        raise ValueError(f"subsample size {n} exceeds population {size}")
    if size == 0:
        raise EmptyInputError("cannot subsample an empty collection")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(size, size=n, replace=False))
    return shapes.take(idx)
