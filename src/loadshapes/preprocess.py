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
from .ingest import HOURS_PER_DAY, LoadDay

LOW_DEMAND_KW = 0.2
UNIT_SUM_TOL = 1e-9

# Recorded in run provenance so the subsample draw is reproducible.
SUBSAMPLE_ALGORITHM = "numpy.Generator(PCG64).choice(replace=False), sorted indices"

SHAPES_HEADER = (
    ["household_id", "date", "day_total_kwh", "discretionary_kwh"]
    + [f"v{i}" for i in range(1, 25)]
)


@dataclass(frozen=True)
class ShapeVector:
    """De-minned, unit-sum discretionary profile of one household-day."""

    values: np.ndarray
    household_id: str
    date: dt.date
    day_total_kwh: float
    discretionary_kwh: float

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


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
    """Column-oriented collection of ShapeVectors.

    Bulk operations (clustering, assignment) work on ``values`` directly;
    indexing returns individual :class:`ShapeVector` views.
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

    def __getitem__(self, i: int) -> ShapeVector:
        return ShapeVector(
            self.values[i],
            self.household_ids[i],
            self.dates[i],
            float(self.day_total_kwh[i]),
            float(self.discretionary_kwh[i]),
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

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

    @classmethod
    def from_shapes(cls, shapes) -> "ShapeTable":
        shapes = list(shapes)
        return cls(
            np.array([s.values for s in shapes]),
            [s.household_id for s in shapes],
            [s.date for s in shapes],
            [s.day_total_kwh for s in shapes],
            [s.discretionary_kwh for s in shapes],
        )

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


def clean(days) -> tuple[list[LoadDay], CleaningReport]:
    """Drop days with missing hours or mean demand below 0.2 kW.

    A day failing both rules counts under missing-hours (checked first).
    The 0.2 kW boundary is inclusive: a constant 0.2 kWh/h day is retained.
    """
    report = CleaningReport(n_input=len(days))
    kept: list[LoadDay] = []
    for day in days:
        if np.isnan(day.kwh).any():
            report.dropped_missing_hours += 1
        elif day.kwh.mean() < LOW_DEMAND_KW:
            report.dropped_low_demand += 1
        else:
            kept.append(day)
    report.retained = len(kept)
    report.check()
    return kept, report


def demin(day: LoadDay) -> np.ndarray:
    """Subtract the daily minimum from each hour; the result has min 0."""
    return day.kwh - np.min(day.kwh)


def normalize(
    deminned,
    household_id: str = "",
    date: dt.date | None = None,
    day_total_kwh: float = float("nan"),
) -> ShapeVector:
    """Scale a de-minned profile to unit sum.

    Raises ZeroDiscretionaryError for an all-zero profile (perfectly flat
    day); callers exclude such days and tally them in the CleaningReport.
    """
    arr = np.asarray(deminned, dtype=float)
    total = float(arr.sum())
    if total == 0.0:
        raise ZeroDiscretionaryError(
            f"day ({household_id}, {date}) has zero discretionary usage"
        )
    return ShapeVector(arr / total, household_id, date, day_total_kwh, total)


def shape_from_day(day: LoadDay) -> ShapeVector:
    """Convenience: demin then normalize one cleaned day."""
    return normalize(
        demin(day), day.household_id, day.date, float(day.kwh.sum())
    )


def preprocess_days(days) -> tuple[ShapeTable, CleaningReport]:
    """Full preprocessing: clean, de-min, normalize, tally every drop rule."""
    kept, report = clean(days)
    if not kept:
        report.check()
        return (
            ShapeTable(np.empty((0, HOURS_PER_DAY)), [], [], [], []),
            report,
        )
    kwh = np.stack([d.kwh for d in kept])
    deminned = kwh - kwh.min(axis=1, keepdims=True)
    totals = deminned.sum(axis=1)
    flat = totals == 0.0
    report.dropped_zero_discretionary = int(flat.sum())
    report.retained -= report.dropped_zero_discretionary
    report.check()
    ok = ~flat
    table = ShapeTable(
        deminned[ok] / totals[ok, None],
        [d.household_id for d, keep in zip(kept, ok) if keep],
        [d.date for d, keep in zip(kept, ok) if keep],
        kwh[ok].sum(axis=1),
        totals[ok],
    )
    return table, report


def subsample(shapes, n: int, seed: int):
    """Uniform draw of n shapes without replacement, deterministic per seed."""
    size = len(shapes)
    if n > size:
        raise ValueError(f"subsample size {n} exceeds population {size}")
    if size == 0:
        raise EmptyInputError("cannot subsample an empty collection")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(size, size=n, replace=False))
    if isinstance(shapes, ShapeTable):
        return shapes.take(idx)
    return [shapes[i] for i in idx]
