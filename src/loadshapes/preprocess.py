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

from .errors import CorruptArtifactError, EmptyInputError, ZeroDiscretionaryError
from .ingest import HOURS_PER_DAY, DayTable, _artifact_rows, _csv_key_blocks, _write_table

LOW_DEMAND_KW = 0.2
# relative tolerance, at the scale of float64 rounding, within which a day's
# mean demand counts as on the 0.2 kW boundary: twelve 0.3 and twelve 0.1
# readings average 0.19999999999999998
LOW_DEMAND_RTOL = 1e-12

# Recorded in run provenance so the subsample draw is reproducible.
SUBSAMPLE_ALGORITHM = "numpy.Generator(PCG64).choice(replace=False), sorted indices"

SHAPES_HEADER = (
    ["household_id", "date", "day_total_kwh", "discretionary_kwh"]
    + [f"v{i}" for i in range(1, 25)]
)
REPORT_HEADER = ["rule", "count"]
# cleaning_report.csv rule -> CleaningReport field
_RULE_FIELDS = {
    "input": "n_input",
    "dropped_missing_hours": "dropped_missing_hours",
    "dropped_low_demand": "dropped_low_demand",
    "dropped_zero_discretionary": "dropped_zero_discretionary",
    "retained": "retained",
}


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

    def counts(self) -> dict:
        """Rule name -> count, in the order of cleaning_report.csv."""
        return {rule: getattr(self, name) for rule, name in _RULE_FIELDS.items()}

    def write_csv(self, path) -> None:
        _write_table(path, REPORT_HEADER, self.counts().items())

    @classmethod
    def read_csv(cls, path) -> "CleaningReport":
        """The report in ``path``; a damaged file, or one without a row
        for some rule, raises CorruptArtifactError naming it."""
        with _artifact_rows(path, REPORT_HEADER) as rows:
            counts = {rule: int(count) for rule, count in rows}
        for rule in _RULE_FIELDS:
            if rule not in counts:
                raise CorruptArtifactError(f"{path}: no count for rule '{rule}'")
        return cls(**{name: counts[rule] for rule, name in _RULE_FIELDS.items()})


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
            csv.writer(fh).writerow(SHAPES_HEADER)
            for block in _csv_key_blocks(
                self.household_ids, self.dates, self.day_total_kwh,
                self.discretionary_kwh, self.values,
            ):
                fh.write("".join([
                    f"{key},{total!r},{disc!r},{','.join(map(repr, row))}\r\n"
                    for key, total, disc, row in zip(*block)
                ]))

    @classmethod
    def read_csv(cls, path, memo: dict | None = None,
                 digest=None) -> "ShapeTable":
        """The table in ``path``. With ``memo`` and ``digest`` (a key that
        names the content of ``path``, such as its sha256), a table already
        remembered under ``digest`` is returned without parsing the file; a
        parsed one is made read-only and remembered, so the stages of one
        run share it."""
        if memo is None:
            return cls._parse_csv(path)
        if digest not in memo:
            memo[digest] = cls._parse_csv(path).freeze()
        return memo[digest]

    @classmethod
    def _parse_csv(cls, path) -> "ShapeTable":
        household_ids, dates, totals, discs, values = [], [], [], [], []
        with _artifact_rows(path, SHAPES_HEADER) as rows:
            for row in rows:
                household_ids.append(row[0])
                dates.append(dt.date.fromisoformat(row[1]))
                totals.append(float(row[2]))
                discs.append(float(row[3]))
                values.append([float(v) for v in row[4:]])
        return cls(np.array(values).reshape(-1, HOURS_PER_DAY), household_ids, dates, totals, discs)


def clean(days: DayTable) -> tuple[DayTable, CleaningReport]:
    """Drop days with missing hours or mean demand below 0.2 kW.

    A day failing both rules counts under missing-hours (checked first).
    The 0.2 kW boundary is inclusive: a day whose readings average 0.2
    kWh/h is retained, also when the float mean rounds to just below it.
    """
    missing = np.isnan(days.kwh).any(axis=1)
    floor = LOW_DEMAND_KW * (1.0 - LOW_DEMAND_RTOL)
    low_demand = ~missing & (days.kwh.mean(axis=1) < floor)
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
