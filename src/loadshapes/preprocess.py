"""Cleaning, de-minning, normalization, and subsampling of household-days.

A raw day survives cleaning when all 24 readings are present and its mean
demand is at least 0.2 kW (inclusive). The daily minimum is then subtracted
from every hour ("de-minning", isolating discretionary usage from baseload)
and the remainder is scaled to unit sum. Perfectly flat days have no
discretionary signal and are dropped with their own tally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CorruptArtifactError, EmptyInputError, ZeroDiscretionaryError
from .ingest import HOURS_PER_DAY, DayTable, KeyedTable, _artifact_rows, _write_table

LOW_DEMAND_KW = 0.2
# relative tolerance, at the scale of float64 rounding, within which a day's
# mean demand counts as on the 0.2 kW boundary: twelve 0.3 and twelve 0.1
# readings average 0.19999999999999998
LOW_DEMAND_RTOL = 1e-12

# Recorded in run provenance so the subsample draw is reproducible.
SUBSAMPLE_ALGORITHM = "numpy.Generator(PCG64).choice(replace=False), sorted indices"

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
        """Raise ValueError unless dropped + retained equals the input count."""
        if self.dropped + self.retained != self.n_input:
            raise ValueError(
                f"tallies do not sum: {self.dropped} dropped and {self.retained} "
                f"retained of {self.n_input} input days"
            )

    def counts(self) -> dict:
        """Rule name -> count, in the order of cleaning_report.csv."""
        return {rule: getattr(self, name) for rule, name in _RULE_FIELDS.items()}

    def write_csv(self, path) -> None:
        _write_table(path, REPORT_HEADER, self.counts().items())

    @classmethod
    def read_csv(cls, path) -> "CleaningReport":
        """The report in ``path``; a damaged file, one with an unknown or
        repeated rule or without a row for some rule, and one whose tallies
        do not sum raise CorruptArtifactError naming it."""
        counts = {}
        with _artifact_rows(path, REPORT_HEADER) as rows:
            for rule, count in rows:
                if rule not in _RULE_FIELDS:
                    raise ValueError(f"unknown rule '{rule}'")
                if rule in counts:
                    raise ValueError(f"rule '{rule}' listed twice")
                counts[rule] = int(count)
        for rule in _RULE_FIELDS:
            if rule not in counts:
                raise CorruptArtifactError(f"{path}: no count for rule '{rule}'")
        report = cls(**{name: counts[rule] for rule, name in _RULE_FIELDS.items()})
        try:
            report.check()
        except ValueError as exc:
            raise CorruptArtifactError(f"{path}: {exc}") from exc
        return report


class ShapeTable(KeyedTable):
    """De-minned, unit-sum shapes as columns, one row per retained
    household-day, with the day's raw and discretionary kWh.

    Bulk operations (clustering, assignment) work on ``values`` directly.
    """

    COLUMNS = (
        ("day_total_kwh", float, ["day_total_kwh"]),
        ("discretionary_kwh", float, ["discretionary_kwh"]),
        ("values", float, [f"v{i}" for i in range(1, HOURS_PER_DAY + 1)]),
    )

    def __init__(self, values, household_ids, dates, day_total_kwh, discretionary_kwh):
        super().__init__(household_ids, dates, values=values, day_total_kwh=day_total_kwh,
                         discretionary_kwh=discretionary_kwh)

    write_csv = KeyedTable._write_csv

    @classmethod
    def read_csv(cls, path, cache=None) -> "ShapeTable":
        """The table in ``path``. With a pipeline ``RunCache``, the read-only
        table it holds for what ``path`` now holds, parsed only on a miss,
        so the stages of one run share it."""
        if cache is None:
            return cls._parse_csv(path)
        return cache.read("shapes", [path], lambda: cls._parse_csv(path))


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
