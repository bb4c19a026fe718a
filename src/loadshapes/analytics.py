"""Variability metrics over dictionary-shape assignments.

Entropy (natural log) of the shape-assignment distribution is the central
quantity; it can be computed per customer or over any stratum of
household-days (season, day type, temperature bin, calendar day). The
module also provides the Davies-Bouldin separation index, kWh coverage
curves, a peak-count/peak-timing taxonomy of dictionary shapes, occurrence
maps, and bootstrap confidence intervals for with/without-characteristic
entropy differences.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .dictionary import AssignmentTable, ClusterDictionary
from .errors import (
    CoincidentCentroidsError,
    EmptyInputError,
    NotADistributionError,
    SingletonClusteringError,
)
from .ingest import SeasonCalendar, day_numbers

DISTRIBUTION_TOL = 1e-6

# Clock-hour bins for peak timing; [start, end) wrapping across midnight.
PEAK_BINS = (
    ("night", 23, 6),
    ("morning", 6, 10),
    ("daytime", 10, 16),
    ("tou", 16, 19),
    ("evening", 19, 23),
)


def entropy(frequencies) -> float:
    """Shannon entropy (nats) of a categorical distribution.

    Zero entries contribute nothing; the input must sum to 1 within 1e-6.
    """
    p = np.asarray(frequencies, dtype=float)
    if p.size == 0 or abs(p.sum() - 1.0) > DISTRIBUTION_TOL or (p < 0).any():
        raise NotADistributionError(
            f"frequencies sum to {p.sum() if p.size else 0}, expected 1"
        )
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


class StratumFrame:
    """Flat column view of assignments joined with calendar and weather.

    ``day`` holds each row's date as int64 days since 1970-01-01. Household
    and cluster ids are factorized once: ``households``/``clusters`` are
    the sorted distinct ids (as ``np.unique`` gives them) and
    ``household_code``/``cluster_code`` index them per row.
    """

    def __init__(self, household_id, date, day, season, day_type, avg_temp_f,
                 cluster_id, weight_total, weight_disc):
        self.household_id = household_id
        self.date = date
        self.day = day
        self.season = season
        self.day_type = day_type
        self.avg_temp_f = avg_temp_f
        self.cluster_id = cluster_id
        self.weight_total = weight_total
        self.weight_disc = weight_disc
        self.households, self.household_code = np.unique(household_id,
                                                         return_inverse=True)
        self.clusters, self.cluster_code = np.unique(cluster_id, return_inverse=True)

    def __len__(self) -> int:
        return len(self.cluster_id)


def _present(codes, size) -> tuple[np.ndarray, np.ndarray]:
    """Which of ``size`` codes occur, and each row's rank among those."""
    present = np.bincount(codes, minlength=size) > 0
    return present, (np.cumsum(present) - 1)[codes]


def _code_counts(rows, n_rows, cols, n_cols) -> np.ndarray:
    """Float (n_rows, n_cols) matrix counting each (row, col) code pair."""
    flat = np.bincount(rows * n_cols + cols, minlength=n_rows * n_cols)
    return flat.reshape(n_rows, n_cols).astype(float)


def build_frame(assignments: AssignmentTable, weather=None) -> StratumFrame:
    """Join assignments with season/day-type labels and daily temperatures.

    A date missing from the weather gets NaN; a date listed twice takes its
    last temperature.
    """
    days = day_numbers(assignments.dates)
    seasons, day_types = SeasonCalendar.day_labels(days)
    temps = np.full(len(days), np.nan)
    if weather:
        w_days = day_numbers([w.date for w in weather])
        order = np.argsort(w_days, kind="stable")
        w_days = w_days[order]
        w_temps = np.array([w.avg_temp_f for w in weather], dtype=float)[order]
        last = np.ones(len(w_days), dtype=bool)
        last[:-1] = w_days[1:] != w_days[:-1]
        w_days, w_temps = w_days[last], w_temps[last]
        pos = np.minimum(np.searchsorted(w_days, days), len(w_days) - 1)
        hit = w_days[pos] == days
        temps[hit] = w_temps[pos[hit]]
    return StratumFrame(
        household_id=assignments.household_ids,
        date=assignments.dates,
        day=days,
        season=seasons,
        day_type=day_types,
        avg_temp_f=temps,
        cluster_id=assignments.cluster_ids,
        weight_total=assignments.day_total_kwh,
        weight_disc=assignments.discretionary_kwh,
    )


@dataclass(frozen=True)
class Stratum:
    """A labelled subset of household-days, defined by a row predicate."""

    axis: str
    label: str
    mask_fn: object

    def mask(self, frame: StratumFrame) -> np.ndarray:
        return np.asarray(self.mask_fn(frame), dtype=bool)


def season_strata() -> list[Stratum]:
    def make(name):
        return Stratum("season", name, lambda f, n=name: f.season == n)

    return [make(n) for n in ("summer", "autumn", "winter", "spring")]


def day_type_strata() -> list[Stratum]:
    def make(name):
        return Stratum("day_type", name, lambda f, n=name: f.day_type == n)

    return [make(n) for n in ("weekday", "weekend")]


def temperature_quartiles(weather, dates, mode: str = "empirical",
                          boundaries=None):
    """Four left-closed temperature strata T_1..T_4 over the given dates.

    Empirical mode derives the three boundaries from the quartiles of the
    daily average temperatures on those dates; fixed mode takes explicit
    boundaries (e.g. 68/71/76 F).
    """
    date_set = frozenset(dates)
    temps = {w.date: w.avg_temp_f for w in weather}
    missing = [d for d in date_set if d not in temps]
    if missing:
        raise ValueError(f"weather missing for {len(missing)} dates, e.g. {sorted(missing)[0]}")
    if mode == "empirical":
        pool = np.array([temps[d] for d in sorted(date_set)])
        if len(np.unique(pool)) < 4:
            raise ValueError("need at least 4 distinct temperatures for quartiles")
        boundaries = tuple(np.quantile(pool, [0.25, 0.5, 0.75]))
    elif mode == "fixed":
        if boundaries is None or len(boundaries) != 3:
            raise ValueError("fixed mode needs 3 boundaries")
        boundaries = tuple(float(b) for b in boundaries)
    else:
        raise ValueError(f"unknown quartile mode '{mode}'")
    b1, b2, b3 = boundaries
    if not b1 <= b2 <= b3:
        raise ValueError(f"boundaries must be non-decreasing, got {boundaries}")

    date_days = day_numbers(list(date_set))

    def in_dates(f):
        return np.isin(f.day, date_days)

    def make(label, lo, hi):
        def mask_fn(f):
            sel = in_dates(f)
            t = f.avg_temp_f
            if lo is not None:
                sel &= t >= lo
            if hi is not None:
                sel &= t < hi
            return sel

        return Stratum("temperature", label, mask_fn)

    strata = [
        make("T_1", None, b1),
        make("T_2", b1, b2),
        make("T_3", b2, b3),
        make("T_4", b3, None),
    ]
    return strata, boundaries


@dataclass
class StratumEntropy:
    axis: str
    label: str
    n: int
    entropy: float | None
    frequencies: dict


@dataclass
class EntropyReport:
    """Per-stratum entropy values with their shape-frequency tables."""

    entries: list[StratumEntropy] = field(default_factory=list)

    def get(self, label: str) -> StratumEntropy:
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)

    def value(self, label: str) -> float | None:
        return self.get(label).entropy

    def spread(self, axis: str) -> float:
        """max - min entropy across the defined strata of one axis."""
        vals = [e.entropy for e in self.entries
                if e.axis == axis and e.entropy is not None]
        if not vals:
            raise ValueError(f"no defined entropy values on axis '{axis}'")
        return max(vals) - min(vals)


def _frequencies(frame: StratumFrame, sel) -> dict:
    counts = np.bincount(frame.cluster_code[sel], minlength=len(frame.clusters))
    present = counts > 0
    ids, counts = frame.clusters[present], counts[present]
    total = counts.sum()
    return {int(i): float(c) / total for i, c in zip(ids, counts)}


def stratified_entropy(frame: StratumFrame, strata) -> EntropyReport:
    """Entropy of the shape distribution inside each stratum.

    An empty stratum is reported with entropy None (undefined), never 0.
    """
    report = EntropyReport()
    for stratum in strata:
        sel = stratum.mask(frame)
        n = int(sel.sum())
        if n == 0:
            report.entries.append(
                StratumEntropy(stratum.axis, stratum.label, 0, None, {})
            )
            continue
        freqs = _frequencies(frame, sel)
        value = entropy(list(freqs.values()))
        report.entries.append(
            StratumEntropy(stratum.axis, stratum.label, n, value, freqs)
        )
    return report


def household_entropy(frame: StratumFrame, mask=None) -> dict:
    """Per-household entropy of its own shape-assignment distribution."""
    sel = slice(None) if mask is None else np.asarray(mask)
    has_h, h_idx = _present(frame.household_code[sel], len(frame.households))
    has_c, c_idx = _present(frame.cluster_code[sel], len(frame.clusters))
    # columns: the clusters present under the mask, in np.unique order
    counts = _code_counts(h_idx, int(has_h.sum()), c_idx, int(has_c.sum()))
    totals = counts.sum(axis=1, keepdims=True)
    p = counts / totals
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    values = -terms.sum(axis=1)
    return {h: float(v) for h, v in zip(frame.households[has_h], values)}


@dataclass(frozen=True)
class CharacteristicDelta:
    indicator: str
    delta: float
    ci_low: float
    ci_high: float
    n_with: int
    n_without: int


def characteristic_entropy_delta(entropies: dict, profiles, indicator: str,
                                 n_boot: int = 10_000, seed: int = 0,
                                 alpha: float = 0.05) -> CharacteristicDelta:
    """mean(with) - mean(without) entropy plus a percentile bootstrap CI.

    Households with the indicator unknown are excluded from the comparison.
    The bootstrap resamples households (the independent sampling unit) in
    each group separately; deterministic for a fixed seed.
    """
    with_vals, without_vals = [], []
    any_present = False
    for prof in profiles:
        flag = prof.indicators.get(indicator)
        if flag is None or prof.household_id not in entropies:
            continue
        any_present = True
        (with_vals if flag else without_vals).append(entropies[prof.household_id])
    if not any_present:
        raise EmptyInputError(f"indicator '{indicator}' is absent for all households")
    if len(with_vals) < 2 or len(without_vals) < 2:
        raise EmptyInputError(
            f"indicator '{indicator}' needs >= 2 households on each side "
            f"(got {len(with_vals)} with, {len(without_vals)} without)"
        )
    w = np.array(with_vals)
    wo = np.array(without_vals)
    delta = float(w.mean() - wo.mean())
    rng = np.random.default_rng(seed)
    means_w = w[rng.integers(0, len(w), size=(n_boot, len(w)))].mean(axis=1)
    means_wo = wo[rng.integers(0, len(wo), size=(n_boot, len(wo)))].mean(axis=1)
    deltas = means_w - means_wo
    lo, hi = np.quantile(deltas, [alpha / 2, 1 - alpha / 2])
    return CharacteristicDelta(
        indicator, delta, float(lo), float(hi), len(w), len(wo)
    )


def davies_bouldin(points, labels, centroids) -> float:
    """Davies-Bouldin index: mean over clusters of the worst
    (sigma_i + sigma_j) / d(C_i, C_j) ratio. Lower is better."""
    X = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    C = np.asarray(centroids, dtype=float)
    k = len(C)
    if k < 2:
        raise SingletonClusteringError("Davies-Bouldin needs >= 2 clusters")
    sigma = np.empty(k)
    for i in range(k):
        members = X[labels == i]
        if len(members) == 0:
            raise EmptyInputError(f"cluster {i} has no members")
        sigma[i] = float(np.sqrt(((members - C[i]) ** 2).sum(axis=1)).mean())
    worst = np.empty(k)
    for i in range(k):
        ratios = []
        for j in range(k):
            if i == j:
                continue
            d = float(np.sqrt(((C[i] - C[j]) ** 2).sum()))
            if d == 0.0:
                raise CoincidentCentroidsError(
                    f"clusters {i} and {j} share a centroid"
                )
            ratios.append((sigma[i] + sigma[j]) / d)
        worst[i] = max(ratios)
    return float(worst.mean())


@dataclass
class CoverageCurve:
    """Clusters ranked by kWh coverage with cumulative fractions."""

    cluster_ids: np.ndarray
    kwh: np.ndarray
    cumulative_fraction: np.ndarray


def coverage_curve(assignments: AssignmentTable, dictionary: ClusterDictionary,
                   weight: str = "total") -> CoverageCurve:
    """Cumulative kWh coverage of dictionary shapes, largest first.

    weight='total' uses each day's raw total kWh; 'discretionary' uses the
    de-minned total instead.
    """
    if weight == "total":
        weights = assignments.day_total_kwh
    elif weight == "discretionary":
        weights = assignments.discretionary_kwh
    else:
        raise ValueError(f"unknown coverage weight '{weight}'")
    if np.isnan(weights).any():
        raise ValueError("assignments lack kWh weights")
    positions = np.searchsorted(dictionary.ids, assignments.cluster_ids)
    kwh = np.zeros(len(dictionary))
    np.add.at(kwh, positions, weights)
    total = kwh.sum()
    if total <= 0:
        raise EmptyInputError("total kWh is zero")
    order = np.lexsort((dictionary.ids, -kwh))
    ranked = kwh[order]
    return CoverageCurve(
        cluster_ids=dictionary.ids[order],
        kwh=ranked,
        cumulative_fraction=np.cumsum(ranked) / total,
    )


def peak_bin_of_hour(hour: int) -> str:
    for name, start, end in PEAK_BINS:
        if start < end:
            if start <= hour < end:
                return name
        else:  # wraps midnight
            if hour >= start or hour < end:
                return name
    raise ValueError(f"hour {hour} outside 0..23")


def _circular_distance(a: int, b: int, period: int = 24) -> int:
    d = abs(a - b)
    return min(d, period - d)


def find_peaks_circular(values, prominence_frac: float = 0.25,
                        min_separation: int = 3) -> list[int]:
    """Hours of local maxima on a circular 24-point profile.

    A candidate must rise above its neighbours (plateaus collapse to their
    first hour), have topographic prominence of at least prominence_frac
    times the profile maximum, and sit at least min_separation hours
    (circularly) from any stronger accepted peak. A flat or under-prominent
    profile falls back to the single global argmax.
    """
    v = np.asarray(values, dtype=float)
    n = len(v)
    vmax = float(v.max())
    argmax = int(v.argmax())
    if vmax - float(v.min()) == 0.0:
        return [argmax]

    # runs of equal value around the circle
    runs = []  # (value, [indices in circular scan order])
    start = 0
    while start < n and v[start] == v[(start - 1) % n]:
        start += 1
    if start == n:  # fully constant, handled above
        return [argmax]
    i = start
    while True:
        j = i
        idxs = [i % n]
        while v[(j + 1) % n] == v[i % n]:
            j += 1
            idxs.append(j % n)
        runs.append((float(v[i % n]), idxs))
        i = j + 1
        if i % n == start:
            break

    candidates = []
    nruns = len(runs)
    for r, (value, idxs) in enumerate(runs):
        prev_v = runs[(r - 1) % nruns][0]
        next_v = runs[(r + 1) % nruns][0]
        if value > prev_v and value > next_v:
            candidates.append((value, idxs[0]))

    def prominence(value, hour):
        if value == vmax:
            return vmax - float(v.min())
        lowest = value
        for step in range(1, n):
            x = float(v[(hour - step) % n])
            if x > value:
                break
            lowest = min(lowest, x)
        left_base = lowest
        lowest = value
        for step in range(1, n):
            x = float(v[(hour + step) % n])
            if x > value:
                break
            lowest = min(lowest, x)
        right_base = lowest
        return value - max(left_base, right_base)

    threshold = prominence_frac * vmax
    prominent = [
        (value, hour)
        for value, hour in candidates
        if prominence(value, hour) >= threshold
    ]
    prominent.sort(key=lambda p: (-p[0], p[1]))
    accepted: list[int] = []
    for value, hour in prominent:
        if all(_circular_distance(hour, a) >= min_separation for a in accepted):
            accepted.append(hour)
    if not accepted:
        return [argmax]
    return sorted(accepted)


@dataclass(frozen=True)
class ShapePeaks:
    cluster_id: int
    peak_hours: tuple
    peak_count: int  # clipped at 3 (meaning 3+)
    count_label: str  # single | double | multi
    primary_hour: int
    primary_bin: str


@dataclass
class PeakTaxonomy:
    entries: list

    def get(self, cluster_id: int) -> ShapePeaks:
        for e in self.entries:
            if e.cluster_id == cluster_id:
                return e
        raise KeyError(cluster_id)


def peak_taxonomy(dictionary: ClusterDictionary, prominence_frac: float = 0.25,
                  min_separation: int = 3) -> PeakTaxonomy:
    """Label every dictionary shape with its peak count and primary timing."""
    if len(dictionary) == 0:
        raise EmptyInputError("dictionary is empty")
    entries = []
    for pos in range(len(dictionary)):
        v = dictionary.values[pos]
        hours = find_peaks_circular(v, prominence_frac, min_separation)
        count = min(len(hours), 3)
        label = {1: "single", 2: "double"}.get(count, "multi")
        primary = int(np.argmax(v))
        entries.append(
            ShapePeaks(
                cluster_id=int(dictionary.ids[pos]),
                peak_hours=tuple(hours),
                peak_count=count,
                count_label=label,
                primary_hour=primary,
                primary_bin=peak_bin_of_hour(primary),
            )
        )
    return PeakTaxonomy(entries)


@dataclass
class OccurrenceMap:
    """Household x day binary matrix of target-shape occurrence.

    Rows are sorted by occurrence count descending; daily mean temperature
    and daily population entropy series align with the date columns.
    """

    household_ids: np.ndarray
    dates: list
    matrix: np.ndarray
    daily_mean_temp_f: np.ndarray
    daily_entropy: np.ndarray


def occurrence_map(frame: StratumFrame, target_ids,
                   dictionary: ClusterDictionary) -> OccurrenceMap:
    targets = sorted(set(int(t) for t in target_ids))
    if not targets:
        raise ValueError("target shape id set is empty")
    known = set(int(i) for i in dictionary.ids)
    unknown = [t for t in targets if t not in known]
    if unknown:
        raise ValueError(f"unknown dictionary shape id(s) {unknown}")
    _, first_rows, date_idx = np.unique(frame.day, return_index=True,
                                        return_inverse=True)
    dates = list(frame.date[first_rows])
    households, house_idx = frame.households, frame.household_code
    matrix = np.zeros((len(households), len(dates)), dtype=np.uint8)
    hit = np.isin(frame.cluster_id, targets)
    matrix[house_idx[hit], date_idx[hit]] = 1
    # sort rows by occurrence count descending, household id as tiebreak
    row_sums = matrix.sum(axis=1).astype(np.int64)
    order = np.lexsort((households, -row_sums))
    matrix = matrix[order]
    households = households[order]

    finite_t = ~np.isnan(frame.avg_temp_f)
    temp_sums = np.bincount(
        date_idx[finite_t], weights=frame.avg_temp_f[finite_t],
        minlength=len(dates),
    )
    temp_counts = np.bincount(date_idx[finite_t], minlength=len(dates))
    with np.errstate(invalid="ignore"):
        daily_temp = np.where(temp_counts > 0, temp_sums / np.maximum(temp_counts, 1), np.nan)

    day_counts = _code_counts(date_idx, len(dates), frame.cluster_code,
                              len(frame.clusters))
    day_totals = day_counts.sum(axis=1, keepdims=True)
    p = day_counts / np.maximum(day_totals, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    daily_ent = np.where(day_totals[:, 0] > 0, -terms.sum(axis=1), np.nan)
    return OccurrenceMap(households, dates, matrix, daily_temp, daily_ent)


# ---------------------------------------------------------------------------
# plot-ready CSV outputs, each with a provenance comment line

def _write_provenance(fh, provenance: dict) -> None:
    fh.write("# " + json.dumps(provenance, sort_keys=True, default=str) + "\n")


def write_entropy_csv(report: EntropyReport, path, provenance: dict) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_provenance(fh, provenance)
        writer = csv.writer(fh)
        writer.writerow(["axis", "stratum", "n_days", "entropy"])
        for e in report.entries:
            writer.writerow(
                [e.axis, e.label, e.n,
                 "" if e.entropy is None else repr(e.entropy)]
            )


def write_coverage_csv(curve: CoverageCurve, path, provenance: dict) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_provenance(fh, provenance)
        writer = csv.writer(fh)
        writer.writerow(["rank", "cluster_id", "kwh", "cumulative_fraction"])
        for rank in range(len(curve.cluster_ids)):
            writer.writerow(
                [
                    rank + 1,
                    int(curve.cluster_ids[rank]),
                    repr(float(curve.kwh[rank])),
                    repr(float(curve.cumulative_fraction[rank])),
                ]
            )


def write_taxonomy_csv(taxonomy: PeakTaxonomy, path, provenance: dict) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_provenance(fh, provenance)
        writer = csv.writer(fh)
        writer.writerow(
            ["cluster_id", "peak_count", "peak_count_label",
             "peak_hours", "primary_peak_hour", "primary_peak_bin"]
        )
        for e in taxonomy.entries:
            writer.writerow(
                [e.cluster_id, e.peak_count, e.count_label,
                 " ".join(str(h) for h in e.peak_hours),
                 e.primary_hour, e.primary_bin]
            )


def write_household_entropy_csv(entropies: dict, summer_entropies: dict, path,
                                provenance: dict) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_provenance(fh, provenance)
        writer = csv.writer(fh)
        writer.writerow(["household_id", "entropy", "entropy_summer"])
        for hid in sorted(entropies):
            summer = summer_entropies.get(hid)
            writer.writerow(
                [hid, repr(float(entropies[hid])),
                 "" if summer is None else repr(float(summer))]
            )


def write_char_deltas_csv(deltas, path, provenance: dict) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_provenance(fh, provenance)
        writer = csv.writer(fh)
        writer.writerow(
            ["indicator", "delta", "ci_low", "ci_high", "n_with", "n_without"]
        )
        for d in deltas:
            writer.writerow(
                [d.indicator, repr(d.delta), repr(d.ci_low), repr(d.ci_high),
                 d.n_with, d.n_without]
            )


def write_occurrence_csv(occ: OccurrenceMap, path, provenance: dict) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_provenance(fh, provenance)
        writer = csv.writer(fh)
        writer.writerow(["household_id"] + [d.isoformat() for d in occ.dates])
        for i, hid in enumerate(occ.household_ids):
            writer.writerow([hid] + occ.matrix[i].tolist())
        writer.writerow(
            ["daily_mean_temp_f"]
            + ["" if np.isnan(x) else repr(float(x)) for x in occ.daily_mean_temp_f]
        )
        writer.writerow(
            ["daily_entropy"]
            + ["" if np.isnan(x) else repr(float(x)) for x in occ.daily_entropy]
        )
