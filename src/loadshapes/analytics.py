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

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dictionary import AssignmentTable, ClusterDictionary
from .errors import (
    CoincidentCentroidsError,
    EmptyInputError,
    NotADistributionError,
    SingletonClusteringError,
)
from .ingest import DAY_TYPES, SEASONS, SeasonCalendar, _repr_or_empty, _write_table, day_numbers

DISTRIBUTION_TOL = 1e-6

# index draws per bootstrap block: 1 MB of uint32 indices, 2 MB each of
# intp indices and gathered values; peak memory is independent of N_BOOT
BOOTSTRAP_BLOCK = 1 << 18
# bootstrap resamples and two-sided level of the entropy-delta interval
N_BOOT = 10_000
ALPHA = 0.05

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

    Zero entries contribute nothing; the input must be finite, non-negative
    and sum to 1 within 1e-6.
    """
    p = np.asarray(frequencies, dtype=float)
    if not np.isfinite(p).all():
        raise NotADistributionError(f"frequency {p[~np.isfinite(p)][0]} is not finite")
    if (p < 0).any():
        raise NotADistributionError(f"frequency {p[p < 0][0]} is negative")
    if p.size == 0 or abs(p.sum() - 1.0) > DISTRIBUTION_TOL:
        raise NotADistributionError(
            f"frequencies sum to {p.sum() if p.size else 0}, expected 1"
        )
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def _factorize_runs(values) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)``, sorting only the first
    row of each run of equal neighbours: cheap when equal values come in
    runs, and one elementwise pass dearer than ``np.unique`` when not."""
    values = np.asarray(values)
    heads = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=heads[1:])
    starts = np.flatnonzero(heads)
    distinct, codes = np.unique(values[starts], return_inverse=True)
    return distinct, np.repeat(codes, np.diff(starts, append=len(values)))


class StratumFrame:
    """Flat column view of assignments joined with calendar and weather.

    ``day`` holds each row's date as int64 days since 1970-01-01. Household
    and cluster ids are factorized once: ``households``/``clusters`` are
    the sorted distinct ids (as ``np.unique`` gives them) and
    ``household_code``/``cluster_code`` index them per row. Household codes
    come from the first row of each run of one id (``_factorize_runs``), since
    tables hold each household's days together; they are still in
    ``np.unique`` order.
    """

    def __init__(self, household_id, date, day, season, day_type, avg_temp_f,
                 cluster_id):
        self.household_id = household_id
        self.date = date
        self.day = day
        self.season = season
        self.day_type = day_type
        self.avg_temp_f = avg_temp_f
        self.cluster_id = cluster_id
        self.households, self.household_code = _factorize_runs(household_id)
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


def _row_entropy(counts) -> np.ndarray:
    """Entropy (nats) of each row of a count matrix; NaN for an empty row."""
    totals = counts.sum(axis=1, keepdims=True)
    p = counts / np.maximum(totals, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    return np.where(totals[:, 0] > 0, -terms.sum(axis=1), np.nan)


def _lookup(keys, queries) -> tuple[np.ndarray, np.ndarray]:
    """Each query's row in the array ``keys`` and whether it is there at
    all; a key listed twice maps to its last row."""
    if len(keys) == 0:
        return np.zeros(len(queries), dtype=np.intp), np.zeros(len(queries), dtype=bool)
    order = np.argsort(keys, kind="stable")
    # the last of the sorted keys <= each query; -1 wraps to a non-match
    rows = order[np.searchsorted(keys[order], queries, side="right") - 1]
    return rows, keys[rows] == queries


def _temperatures(weather, days) -> tuple[np.ndarray, np.ndarray]:
    """Each day number's temperature in ``weather``, joined as ``build_frame``
    says, and whether ``weather`` lists the date."""
    rows, found = _lookup(day_numbers([w.date for w in weather]), days)
    temps = np.full(len(days), np.nan)
    temps[found] = np.array([w.avg_temp_f for w in weather], dtype=float)[rows[found]]
    return temps, found


def build_frame(assignments: AssignmentTable, weather=None) -> StratumFrame:
    """Join assignments with season/day-type labels and daily temperatures.

    A date missing from the weather gets NaN; a date listed twice takes its
    last temperature.
    """
    days = day_numbers(assignments.dates)
    seasons, day_types = SeasonCalendar.day_labels(days)
    temps, _ = _temperatures(weather or (), days)
    return StratumFrame(
        household_id=assignments.household_ids,
        date=assignments.dates,
        day=days,
        season=seasons,
        day_type=day_types,
        avg_temp_f=temps,
        cluster_id=assignments.cluster_ids,
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
    return [Stratum("season", n, lambda f, n=n: f.season == n) for n in SEASONS]


def day_type_strata() -> list[Stratum]:
    return [Stratum("day_type", n, lambda f, n=n: f.day_type == n) for n in DAY_TYPES]


def _checked_boundaries(boundaries) -> tuple:
    """The temperature strata's boundaries as three floats; anything but
    three finite numbers that do not decrease raises ValueError."""
    try:
        b1, b2, b3 = map(float, boundaries)
        ok = all(map(math.isfinite, (b1, b2, b3))) and b1 <= b2 <= b3
    except (TypeError, ValueError):  # not three numbers
        ok = False
    if not ok:
        raise ValueError("boundaries must be three finite numbers that do not "
                         f"decrease, got {boundaries!r}")
    return b1, b2, b3


def temperature_quartiles(weather, dates, mode: str = "empirical",
                          boundaries=None):
    """Four left-closed temperature strata T_1..T_4 over the given dates.

    Empirical mode derives the three boundaries from the quartiles of the
    daily average temperatures on those dates; fixed mode takes explicit
    boundaries (e.g. 68/71/76 F). Either kind must pass
    ``_checked_boundaries``.
    """
    date_list = sorted(set(dates))
    date_days = day_numbers(date_list)
    pool, found = _temperatures(weather, date_days)
    if not found.all():
        raise ValueError(f"weather missing for {int((~found).sum())} dates, "
                         f"e.g. {date_list[int(found.argmin())]}")
    if mode == "empirical":
        if len(np.unique(pool)) < 4:
            raise ValueError("need at least 4 distinct temperatures for quartiles")
        boundaries = tuple(np.quantile(pool, [0.25, 0.5, 0.75]))
        _checked_boundaries(boundaries)  # the quartiles keep their numpy type
    elif mode == "fixed":
        boundaries = _checked_boundaries(boundaries)
    else:
        raise ValueError(f"unknown quartile mode '{mode}'")
    b1, b2, b3 = boundaries

    def make(label, lo, hi):
        def mask_fn(f):
            sel = np.isin(f.day, date_days)
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
    return {h: float(v) for h, v in zip(frame.households[has_h], _row_entropy(counts))}


@dataclass(frozen=True)
class CharacteristicDelta:
    indicator: str
    delta: float
    ci_low: float
    ci_high: float
    n_with: int
    n_without: int


def _block_means(values, idx, pos, buf, out) -> None:
    """Write the row means of ``values[idx]`` into ``out``.

    ``pos`` (intp) and ``buf`` (float) are scratch of ``idx``'s shape that
    the caller allocates, so the helper thread allocates nothing: memory a
    thread allocates stays resident in that thread's malloc arena.
    """
    np.copyto(pos, idx)
    # every index is in range, so "clip" changes none and skips the
    # buffered bounds check of the default mode
    np.take(values, pos, out=buf, mode="clip")
    np.mean(buf, axis=1, out=out)


def _bootstrap_means(rng, groups, n_boot: int) -> list:
    """``n_boot`` resample means of each group, equal bit for bit to
    ``g[rng.integers(0, len(g), size=(n_boot, len(g)))].mean(axis=1)``
    evaluated for each group in turn.

    The main thread draws index blocks of ``BOOTSTRAP_BLOCK // len(g)``
    rows in that order: PCG64 keeps the spare half of a 64-bit output in
    its state, and uint32 and int64 draws below 2**32 take the same 32-bit
    path, so consecutive blocks continue the one-shot stream exactly. One
    helper thread gathers and averages each block while the next one is
    drawn; at most two blocks are alive at once.
    """
    outs = [np.empty(n_boot) for _ in groups]
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = None
        for values, out in zip(groups, outs):
            n = len(values)
            step = max(1, BOOTSTRAP_BLOCK // n)
            shape = (min(step, n_boot), n)
            pos, buf = np.empty(shape, dtype=np.intp), np.empty(shape)
            for start in range(0, n_boot, step):
                rows = min(step, n_boot - start)
                idx = rng.integers(0, n, size=(rows, n), dtype=np.uint32)
                if pending is not None:
                    pending.result()  # frees the scratch and the previous block
                pending = pool.submit(_block_means, values, idx, pos[:rows],
                                      buf[:rows], out[start:start + rows])
        if pending is not None:
            pending.result()
    return outs


def characteristic_entropy_delta(entropies: dict, profiles, indicator: str,
                                 seed: int = 0) -> CharacteristicDelta:
    """mean(with) - mean(without) entropy plus a percentile bootstrap CI.

    Households with the indicator unknown are excluded from the comparison.
    The bootstrap draws N_BOOT resamples of households (the independent
    sampling unit) in each group separately and gives the 1 - ALPHA
    percentile interval; deterministic for a fixed seed. Resamples are
    drawn block by block from one generator in the order of a single draw
    per group and averaged on a helper thread, so the CI depends on neither
    the block size nor thread timing.
    """
    with_vals, without_vals = [], []
    for prof in profiles:
        flag = prof.indicators.get(indicator)
        if flag is None or prof.household_id not in entropies:
            continue
        (with_vals if flag else without_vals).append(entropies[prof.household_id])
    if not with_vals and not without_vals:
        raise EmptyInputError(f"indicator '{indicator}' is absent for all households")
    if len(with_vals) < 2 or len(without_vals) < 2:
        raise EmptyInputError(
            f"indicator '{indicator}' needs >= 2 households on each side "
            f"(got {len(with_vals)} with, {len(without_vals)} without)"
        )
    w = np.array(with_vals)
    wo = np.array(without_vals)
    delta = float(w.mean() - wo.mean())
    means_w, means_wo = _bootstrap_means(np.random.default_rng(seed), (w, wo), N_BOOT)
    deltas = means_w - means_wo
    lo, hi = np.quantile(deltas, [ALPHA / 2, 1 - ALPHA / 2])
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
    d = np.sqrt(((C[:, None] - C[None]) ** 2).sum(axis=2))
    np.fill_diagonal(d, np.inf)
    if (d == 0.0).any():
        i, j = np.argwhere(d == 0.0)[0]  # row-major: the first coincident pair
        raise CoincidentCentroidsError(f"clusters {i} and {j} share a centroid")
    return float(((sigma[:, None] + sigma) / d).max(axis=1).mean())  # the diagonal gives 0


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
    positions, found = _lookup(dictionary.ids, assignments.cluster_ids)
    if not found.all():
        raise ValueError(f"assignments name cluster id {assignments.cluster_ids[~found][0]}, "
                         "which the dictionary lacks")
    kwh = np.bincount(positions, weights=weights, minlength=len(dictionary))
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
    if not 0 <= hour < 24:  # the bins cover the whole clock
        raise ValueError(f"hour {hour} outside 0..23")
    for name, start, end in PEAK_BINS:
        if start <= hour < end or start > end and (hour >= start or hour < end):
            return name


def find_peaks_circular(values, prominence_frac: float = 0.25,
                        min_separation: int = 3) -> list[int]:
    """Hours of local maxima on a circular 24-point profile.

    A candidate must rise above its neighbours (plateaus collapse to their
    first hour), have topographic prominence of at least prominence_frac
    times the profile maximum, and sit at least min_separation hours
    (circularly) from any stronger accepted peak. A flat or under-prominent
    profile falls back to the single global argmax.
    """
    v = np.asarray(values, dtype=float).tolist()
    n = len(v)
    vmax = max(v)
    prominent = []  # (-value, hour) of each prominent run's first hour
    for hour, value in enumerate(v):
        if v[hour - 1] >= value:
            continue  # not the first hour of a run above its left neighbour
        # the lowest point on each side before the profile rises above value
        bases = []
        for step in (-1, 1):
            lowest = value
            for i in range(1, n):
                x = v[(hour + step * i) % n]
                if x > value:
                    break
                lowest = min(lowest, x)
            bases.append(lowest)
        # the run is a local maximum exactly when its right base is lower too
        prominence = value - max(bases)
        if prominence > 0 and prominence >= prominence_frac * vmax:
            prominent.append((-value, hour))
    accepted: list[int] = []
    for _, hour in sorted(prominent):
        if all(min(abs(hour - a), n - abs(hour - a)) >= min_separation for a in accepted):
            accepted.append(hour)
    return sorted(accepted) or [v.index(vmax)]


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


def peak_taxonomy(dictionary: ClusterDictionary) -> PeakTaxonomy:
    """Label every dictionary shape with its peak count and primary timing."""
    if len(dictionary) == 0:
        raise EmptyInputError("dictionary is empty")
    entries = []
    for pos in range(len(dictionary)):
        v = dictionary.values[pos]
        hours = find_peaks_circular(v)
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

    daily_ent = _row_entropy(_code_counts(date_idx, len(dates), frame.cluster_code,
                                          len(frame.clusters)))
    return OccurrenceMap(households, dates, matrix, daily_temp, daily_ent)


# ---------------------------------------------------------------------------
# plot-ready CSV outputs, each with a provenance comment line

def _cell(value) -> str:
    """A number as the repr of its float; None and NaN as an empty cell."""
    return "" if value is None else _repr_or_empty(float(value))


def write_entropy_csv(report: EntropyReport, path, provenance: dict) -> None:
    _write_table(path, ["axis", "stratum", "n_days", "entropy"], (
        [e.axis, e.label, e.n, _cell(e.entropy)] for e in report.entries
    ), provenance)


def write_coverage_csv(curve: CoverageCurve, path, provenance: dict) -> None:
    columns = zip(curve.cluster_ids, curve.kwh, curve.cumulative_fraction)
    _write_table(path, ["rank", "cluster_id", "kwh", "cumulative_fraction"], (
        [rank, int(cid), _cell(kwh), _cell(frac)]
        for rank, (cid, kwh, frac) in enumerate(columns, start=1)
    ), provenance)


def write_taxonomy_csv(taxonomy: PeakTaxonomy, path, provenance: dict) -> None:
    _write_table(path, ["cluster_id", "peak_count", "peak_count_label", "peak_hours",
                        "primary_peak_hour", "primary_peak_bin"], (
        [e.cluster_id, e.peak_count, e.count_label, " ".join(map(str, e.peak_hours)),
         e.primary_hour, e.primary_bin] for e in taxonomy.entries
    ), provenance)


def write_household_entropy_csv(entropies: dict, summer_entropies: dict, path,
                                provenance: dict) -> None:
    _write_table(path, ["household_id", "entropy", "entropy_summer"], (
        [hid, _cell(entropies[hid]), _cell(summer_entropies.get(hid))]
        for hid in sorted(entropies)
    ), provenance)


def write_char_deltas_csv(deltas, path, provenance: dict) -> None:
    _write_table(path, ["indicator", "delta", "ci_low", "ci_high", "n_with", "n_without"], (
        [d.indicator, repr(d.delta), repr(d.ci_low), repr(d.ci_high), d.n_with, d.n_without]
        for d in deltas
    ), provenance)


def write_occurrence_csv(occ: OccurrenceMap, path, provenance: dict) -> None:
    rows = [[hid] + cells for hid, cells in zip(occ.household_ids, occ.matrix.tolist())]
    for label, series in (("daily_mean_temp_f", occ.daily_mean_temp_f),
                          ("daily_entropy", occ.daily_entropy)):
        rows.append([label] + [_cell(x) for x in series])
    _write_table(path, ["household_id"] + [d.isoformat() for d in occ.dates], rows,
                 provenance)
