"""Dictionary truncation and full-corpus assignment.

Truncation iteratively removes the lowest-member-count clusters whose
cumulative membership fits inside the violation budget V, re-homes the
orphaned shapes to the nearest remaining centroid, and stops once the
overall violation rate (fraction of shapes with RSE > theta) reaches V.
Because the rate is checked after each removal round, the final state may
overshoot V; both the entry and exit rates are recorded in provenance.

The surviving centroids, ordered by descending total member kWh, form the
dictionary. Every household-day is then assigned to its nearest dictionary
shape by Euclidean distance, exact ties resolved to the lowest shape id.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .cluster import ClusterModel, _bare_table, _pairwise_sq_dists, rse_to_assigned
from .errors import (
    CorruptArtifactError,
    EmptyInputError,
    VersionMismatchError,
)
from .preprocess import ShapeTable

DICTIONARY_SCHEMA_VERSION = 1
CENTROID_SUM_TOL = 1e-6

# relative margin, far above the expanded form's rounding (~1e-15), within
# which assign_all re-ranks candidates by direct differences
TIE_RTOL = 1e-12

ASSIGNMENTS_HEADER = ["household_id", "date", "cluster_id", "distance", "rse"]


@dataclass
class ClusterDictionary:
    """Ordered set of representative shapes with stable 1-based ids.

    Row order is by descending total member kWh (id as tiebreak); ids are
    assigned in that order at construction and survive persistence.
    ``digest`` is the sha256 that ``load_dictionary`` verified, None for a
    dictionary built in memory.
    """

    values: np.ndarray
    ids: np.ndarray
    member_counts: np.ndarray
    member_kwh: np.ndarray
    member_discretionary_kwh: np.ndarray
    theta: float
    truncation_v: float
    provenance: dict = field(default_factory=dict)
    digest: str | None = None

    def __len__(self) -> int:
        return len(self.values)

    def validate(self) -> None:
        sums = self.values.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > CENTROID_SUM_TOL):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise CorruptArtifactError(
                f"dictionary shape id {int(self.ids[bad])} sums to {sums[bad]!r}, "
                f"expected 1 +/- {CENTROID_SUM_TOL}"
            )
        if len(set(self.ids.tolist())) != len(self.ids):
            raise CorruptArtifactError("dictionary ids are not unique")
        order = np.lexsort((self.ids, -self.member_kwh))
        if not np.array_equal(order, np.arange(len(self.ids))):
            raise CorruptArtifactError(
                "dictionary rows are not ordered by descending member kWh"
            )


def truncate(model: ClusterModel, v: float) -> ClusterDictionary:
    """Iterative dictionary truncation under violation budget v.

    Each round removes the largest set of lowest-member-count clusters whose
    cumulative membership stays within floor(v*N) (at least one cluster,
    ties by cluster id), re-assigns orphans to the nearest remaining
    centroid, and recomputes the violation rate. Rounds continue while the
    rate is below v and more than one cluster remains. Total membership is
    conserved throughout.
    """
    if not 0.0 < v < 1.0:
        raise ValueError("truncation violation budget must be in (0, 1)")
    if model.n_clusters == 0 or model.n_shapes == 0:
        raise EmptyInputError("cannot truncate an empty model")
    X = model.table.values
    n = model.n_shapes
    centroids = model.centroids.copy()
    ids = model.ids.copy()
    labels = model.labels.copy()
    counts = model.counts.astype(np.int64)
    theta = model.theta

    violating = rse_to_assigned(X, centroids, labels) > theta
    viol_count = int(violating.sum())
    entry_rate = viol_count / n
    rate = entry_rate
    cap = math.floor(v * n)
    rounds = 0

    while rate < v and len(centroids) > 1:
        order = np.lexsort((ids, counts))
        cumulative = np.cumsum(counts[order])
        take = int(np.searchsorted(cumulative, cap, side="right"))
        take = max(take, 1)
        take = min(take, len(centroids) - 1)  # never remove the last cluster
        removed = order[:take]
        removed_mask = np.isin(labels, removed)
        keep = np.setdiff1d(np.arange(len(centroids)), removed)
        d2 = _pairwise_sq_dists(X[removed_mask], centroids[keep])
        nearest = d2.argmin(axis=1)
        labels[removed_mask] = keep[nearest]
        new_rse = rse_to_assigned(
            X[removed_mask], centroids, labels[removed_mask]
        )
        viol_count += int((new_rse > theta).sum()) - int(violating[removed_mask].sum())
        violating[removed_mask] = new_rse > theta
        remap = np.full(len(centroids), -1, dtype=np.int64)
        remap[keep] = np.arange(len(keep))
        labels = remap[labels]
        centroids = centroids[keep]
        ids = ids[keep]
        counts = np.bincount(labels, minlength=len(centroids)).astype(np.int64)
        rate = viol_count / n
        rounds += 1

    k = len(centroids)
    kwh = np.bincount(labels, weights=model.table.day_total_kwh, minlength=k)
    disc = np.bincount(labels, weights=model.table.discretionary_kwh, minlength=k)
    order = np.lexsort((ids, -kwh))
    provenance = {
        "theta": theta,
        "truncation_v": v,
        "entry_violation_rate": entry_rate,
        "exit_violation_rate": rate,
        "truncation_rounds": rounds,
        "n_shapes": n,
        "source_cluster_ids": ids[order].tolist(),
        "model_meta": dict(model.meta),
    }
    return ClusterDictionary(
        values=centroids[order],
        ids=np.arange(1, len(order) + 1, dtype=np.int64),
        member_counts=counts[order],
        member_kwh=kwh[order],
        member_discretionary_kwh=disc[order],
        theta=theta,
        truncation_v=v,
        provenance=provenance,
    )


class AssignmentTable:
    """Per household-day: assigned dictionary shape id, distance, and RSE.

    Also carries each day's raw and discretionary kWh so coverage analytics
    can weight by either without re-joining the source shapes.
    """

    def __init__(self, household_ids, dates, cluster_ids, distances, rses,
                 day_total_kwh=None, discretionary_kwh=None):
        self.household_ids = np.asarray(household_ids, dtype=object)
        self.dates = np.asarray(dates, dtype=object)
        self.cluster_ids = np.asarray(cluster_ids, dtype=np.int64)
        self.distances = np.asarray(distances, dtype=float)
        self.rses = np.asarray(rses, dtype=float)
        n = len(self.cluster_ids)
        self.day_total_kwh = (
            np.full(n, np.nan) if day_total_kwh is None
            else np.asarray(day_total_kwh, dtype=float)
        )
        self.discretionary_kwh = (
            np.full(n, np.nan) if discretionary_kwh is None
            else np.asarray(discretionary_kwh, dtype=float)
        )

    def __len__(self) -> int:
        return len(self.cluster_ids)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(ASSIGNMENTS_HEADER)
            for i in range(len(self)):
                writer.writerow(
                    [
                        self.household_ids[i],
                        self.dates[i].isoformat(),
                        int(self.cluster_ids[i]),
                        repr(float(self.distances[i])),
                        repr(float(self.rses[i])),
                    ]
                )

    @classmethod
    def read_csv(cls, path, shapes: ShapeTable | None = None) -> "AssignmentTable":
        household_ids, dates, cids, dists, rses = [], [], [], [], []
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != ASSIGNMENTS_HEADER:
                raise ValueError(f"{path}: unexpected assignments header")
            for row in reader:
                household_ids.append(row[0])
                dates.append(dt.date.fromisoformat(row[1]))
                cids.append(int(row[2]))
                dists.append(float(row[3]))
                rses.append(float(row[4]))
        table = cls(household_ids, dates, cids, dists, rses)
        if shapes is not None:
            if len(shapes) != len(table):
                raise CorruptArtifactError(
                    "assignments and shapes row counts differ"
                )
            misaligned = np.flatnonzero(
                (shapes.household_ids != table.household_ids)
                | (shapes.dates != table.dates)
            )
            if len(misaligned):
                raise CorruptArtifactError(
                    "assignments and shapes rows are not aligned "
                    f"(first at data row {misaligned[0] + 1})"
                )
            table.day_total_kwh = shapes.day_total_kwh.copy()
            table.discretionary_kwh = shapes.discretionary_kwh.copy()
        return table


def assign_all(shapes, dictionary: ClusterDictionary, workers: int = 1,
               chunk_size: int = 8192) -> AssignmentTable:
    """Assign every shape to its nearest dictionary shape (Euclidean).

    Ties go to the lowest shape id: every shape whose expanded-form squared
    distance lies within rounding of the row minimum is re-ranked by its
    direct squared difference. Chunks are independent and each row's label
    depends only on that row, so the result does not depend on the chunk
    size or the worker count. At k=99 the default chunk makes one worker's
    distance block 6.5 MB, where 65,536 rows made it 52 MB; on the
    benchmark's ``assign_analyze`` corpus that lowered both the assignment
    time and the peak RSS. A bare (N, 24) array is keyed as
    ``adaptive_kmeans`` keys one: placeholder keys and unit kWh.
    """
    if len(dictionary) == 0:
        raise EmptyInputError("cannot assign against an empty dictionary")
    table = shapes if isinstance(shapes, ShapeTable) else _bare_table(shapes)
    X = table.values
    n = len(X)
    D = dictionary.values
    ids = dictionary.ids
    denom = (D**2).sum(axis=1)
    cc_max = float(denom.max())
    labels = np.empty(n, dtype=np.int64)
    dist = np.empty(n)
    rse_vals = np.empty(n)

    def work(start: int) -> None:
        stop = min(start + chunk_size, n)
        block = X[start:stop]
        xx = (block**2).sum(axis=1)
        d2 = _pairwise_sq_dists(block, D, xx)
        lab = d2.argmin(axis=1)
        # the expanded form rounds at the scale of |x|^2 + |c|^2, so it can
        # misorder near-ties; re-rank every candidate within that margin
        slack = d2[np.arange(len(lab)), lab] + TIE_RTOL * (xx + cc_max)
        close = d2 <= slack[:, None]
        multi = np.flatnonzero(np.count_nonzero(close, axis=1) > 1)
        if len(multi):
            r, c = np.nonzero(close[multi])
            direct = ((block[multi[r]] - D[c]) ** 2).sum(axis=1)
            order = np.lexsort((ids[c], direct, r))
            first = np.ones(len(order), dtype=bool)
            first[1:] = r[order[1:]] != r[order[:-1]]
            lab[multi] = c[order[first]]
        labels[start:stop] = lab
        # recompute the winning distance directly: the expanded form loses
        # precision near zero (the distance of an exact match must be 0)
        diff2 = ((block - D[lab]) ** 2).sum(axis=1)
        dist[start:stop] = np.sqrt(diff2)
        rse_vals[start:stop] = diff2 / denom[lab]

    starts = range(0, n, chunk_size)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, starts))
    else:
        for s in starts:
            work(s)

    return AssignmentTable(
        table.household_ids,
        table.dates,
        dictionary.ids[labels],
        dist,
        rse_vals,
        table.day_total_kwh,
        table.discretionary_kwh,
    )


def _dictionary_digest(ids, values) -> str:
    canonical = json.dumps(
        {"ids": [int(i) for i in ids],
         "centroids": [[float(v) for v in row] for row in values]},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def save_dictionary(dictionary: ClusterDictionary, path) -> None:
    payload = {
        "schema_version": DICTIONARY_SCHEMA_VERSION,
        "theta": dictionary.theta,
        "truncation_v": dictionary.truncation_v,
        "ids": dictionary.ids.tolist(),
        "member_counts": dictionary.member_counts.tolist(),
        "member_kwh": [float(x) for x in dictionary.member_kwh],
        "member_discretionary_kwh": [
            float(x) for x in dictionary.member_discretionary_kwh
        ],
        "centroids": [[float(v) for v in row] for row in dictionary.values],
        "provenance": dictionary.provenance,
        "digest": _dictionary_digest(dictionary.ids, dictionary.values),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_dictionary(path) -> ClusterDictionary:
    """Load and verify dictionary.json (version, digest, invariants)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("schema_version")
    if version != DICTIONARY_SCHEMA_VERSION:
        raise VersionMismatchError(
            f"dictionary schema {version}, supported {DICTIONARY_SCHEMA_VERSION}"
        )
    ids = np.asarray(payload["ids"], dtype=np.int64)
    values = np.asarray(payload["centroids"], dtype=float)
    digest = _dictionary_digest(ids, values)
    if digest != payload.get("digest"):
        raise CorruptArtifactError(f"{path}: digest mismatch, file corrupted")
    dictionary = ClusterDictionary(
        values=values,
        ids=ids,
        member_counts=np.asarray(payload["member_counts"], dtype=np.int64),
        member_kwh=np.asarray(payload["member_kwh"], dtype=float),
        member_discretionary_kwh=np.asarray(
            payload["member_discretionary_kwh"], dtype=float
        ),
        theta=float(payload["theta"]),
        truncation_v=float(payload["truncation_v"]),
        provenance=payload.get("provenance", {}),
        digest=digest,
    )
    dictionary.validate()
    return dictionary
