"""Dictionary truncation and full-corpus assignment.

Truncation iteratively removes the lowest-member-count clusters whose
cumulative membership fits inside the violation budget V, re-homes the
orphaned shapes to the nearest remaining centroid, and stops once the
overall violation rate (fraction of shapes with RSE > theta) reaches V.
Because the rate is checked after each removal round, the final state may
overshoot V; both the entry and exit rates are recorded in provenance.

The surviving centroids, ordered by descending total member kWh, form the
dictionary. Every household-day is then assigned to its nearest dictionary
shape by Euclidean distance. One search (``_nearest``) serves both steps:
re-homing and assignment resolve exact ties to the lowest cluster or shape
id.
"""

from __future__ import annotations

import contextlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .cluster import ClusterModel, _pairwise_sq_dists, rse_to_assigned
from .errors import CorruptArtifactError, EmptyInputError
from .ingest import KeyedTable, _centroid_json, _json_array, _json_digest, _write_json
from .preprocess import ShapeTable

DICTIONARY_SCHEMA_VERSION = 1
CENTROID_SUM_TOL = 1e-6

# relative margin, far above the expanded form's rounding (~1e-15), within
# which _nearest re-ranks candidates by direct differences
TIE_RTOL = 1e-12

# Rows per _nearest chunk: at k=99 one chunk's distance block is 6.5 MB, where
# 65,536 rows made it 52 MB and the benchmark's assign_analyze slower and larger.
NEAREST_CHUNK_ROWS = 8192


@dataclass
class ClusterDictionary:
    """Ordered set of representative shapes with stable 1-based ids.

    Row order is by descending total member kWh (id as tiebreak); ids are
    assigned in that order at construction and survive persistence.
    ``digest`` is the sha256 recorded in dictionary.json: the one
    ``load_dictionary`` verified, or the one the pipeline's truncate stage
    saved; None for a dictionary built in memory.
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
        if not np.all(np.abs(sums - 1.0) <= CENTROID_SUM_TOL):  # NaN fails too
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise CorruptArtifactError(
                f"dictionary shape id {int(self.ids[bad])} sums to {float(sums[bad])!r}, "
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
    centroid (exact ties to the lowest cluster id, as in ``assign_all``),
    and recomputes the violation rate. Rounds continue while the
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
        nearest, _, new_rse = _nearest(X[removed_mask], centroids[keep], ids[keep])
        labels[removed_mask] = keep[nearest]
        viol_count += int((new_rse > theta).sum()) - int(violating[removed_mask].sum())
        violating[removed_mask] = new_rse > theta
        labels = np.searchsorted(keep, labels)  # every label is now in keep, which is sorted
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


class AssignmentTable(KeyedTable):
    """Per household-day: assigned dictionary shape id, distance, and RSE.

    Also carries each day's raw and discretionary kWh so coverage analytics
    can weight by either without re-joining the source shapes; they are NaN
    when not given.
    """

    COLUMNS = (
        ("cluster_ids", int, ["cluster_id"]),
        ("distances", float, ["distance"]),
        ("rses", float, ["rse"]),
        # not in assignments.csv: read_csv takes them from the shapes
        ("day_total_kwh", float, []),
        ("discretionary_kwh", float, []),
    )

    write_csv = KeyedTable._write_csv

    @classmethod
    def read_csv(cls, path, shapes: ShapeTable) -> "AssignmentTable":
        table = cls._parse_csv(path)
        if len(shapes) != len(table):
            raise CorruptArtifactError(f"{path}: assignments and shapes row counts differ")
        misaligned = np.flatnonzero(
            (shapes.household_ids != table.household_ids)
            | (shapes.dates != table.dates)
        )
        if len(misaligned):
            raise CorruptArtifactError(
                f"{path}: assignments and shapes rows are not aligned "
                f"(first at data row {misaligned[0] + 1})"
            )
        table.day_total_kwh = shapes.day_total_kwh.copy()
        table.discretionary_kwh = shapes.discretionary_kwh.copy()
        return table


def _nearest(X, C, ids, workers: int = 1):
    """For each row of X: the position of its nearest row of C (Euclidean),
    the distance to it and its RSE.

    Ties go to the lowest of ``ids``: every row of C whose expanded-form
    squared distance lies within rounding of the row minimum is re-ranked by
    its direct squared difference. Chunks of ``NEAREST_CHUNK_ROWS`` rows are
    independent and each row's result depends only on that row, so nothing
    depends on the chunk size or the worker count.
    """
    n = len(X)
    denom = (C**2).sum(axis=1)
    cc_max = float(denom.max())
    labels = np.empty(n, dtype=np.int64)
    dist = np.empty(n)
    rse_vals = np.empty(n)

    def work(start: int) -> None:
        stop = min(start + NEAREST_CHUNK_ROWS, n)
        block = X[start:stop]
        xx = (block**2).sum(axis=1)
        d2 = _pairwise_sq_dists(block, C, xx)
        lab = d2.argmin(axis=1)
        # the expanded form rounds at the scale of |x|^2 + |c|^2, so it can
        # misorder near-ties; re-rank every candidate within that margin
        slack = d2[np.arange(len(lab)), lab] + TIE_RTOL * (xx + cc_max)
        close = d2 <= slack[:, None]
        multi = np.flatnonzero(np.count_nonzero(close, axis=1) > 1)
        if len(multi):
            r, c = np.nonzero(close[multi])
            direct = ((block[multi[r]] - C[c]) ** 2).sum(axis=1)
            order = np.lexsort((ids[c], direct, r))
            first = np.ones(len(order), dtype=bool)
            first[1:] = r[order[1:]] != r[order[:-1]]
            lab[multi] = c[order[first]]
        labels[start:stop] = lab
        # recompute the winning distance directly: the expanded form loses
        # precision near zero (the distance of an exact match must be 0)
        diff2 = ((block - C[lab]) ** 2).sum(axis=1)
        dist[start:stop] = np.sqrt(diff2)
        rse_vals[start:stop] = diff2 / denom[lab]

    # one worker maps in this thread, whose malloc arena numpy then uses
    with ThreadPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        list((pool.map if pool else map)(work, range(0, n, NEAREST_CHUNK_ROWS)))
    return labels, dist, rse_vals


def assign_all(shapes: ShapeTable, dictionary: ClusterDictionary,
               workers: int = 1) -> AssignmentTable:
    """Assign every shape of the table ``shapes`` to its nearest dictionary
    shape by ``_nearest`` (Euclidean, exact ties to the lowest shape id);
    anything but a ShapeTable is a TypeError.
    """
    if not isinstance(shapes, ShapeTable):
        raise TypeError(f"assign_all needs a ShapeTable, got {type(shapes).__name__}")
    if len(dictionary) == 0:
        raise EmptyInputError("cannot assign against an empty dictionary")
    labels, dist, rse_vals = _nearest(shapes.values, dictionary.values, dictionary.ids, workers)
    return AssignmentTable(
        shapes.household_ids,
        shapes.dates,
        dictionary.ids[labels],
        dist,
        rse_vals,
        shapes.day_total_kwh,
        shapes.discretionary_kwh,
    )


def _dictionary_digest(ids, values) -> str:
    return _json_digest({"ids": [int(i) for i in ids],
                         "centroids": [[float(v) for v in row] for row in values]})


def save_dictionary(dictionary: ClusterDictionary, path) -> str:
    """Write dictionary.json; returns the digest it records, which
    ``load_dictionary`` verifies."""
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
        "provenance": dict(dictionary.provenance),
        "digest": _dictionary_digest(dictionary.ids, dictionary.values),
    }
    _write_json(path, payload)
    return payload["digest"]


def load_dictionary(path) -> ClusterDictionary:
    """Load and verify dictionary.json (version, digest, invariants)."""
    with _centroid_json(path, "dictionary", DICTIONARY_SCHEMA_VERSION) as (payload, ids, values):
        digest = _dictionary_digest(ids, values)
        if digest != payload.get("digest"):
            raise CorruptArtifactError(f"{path}: digest mismatch, file corrupted")
        dictionary = ClusterDictionary(
            values=values,
            ids=ids,
            member_counts=_json_array(payload, "member_counts", np.int64, 1),
            member_kwh=_json_array(payload, "member_kwh", float, 1),
            member_discretionary_kwh=_json_array(payload, "member_discretionary_kwh", float, 1),
            theta=float(_json_array(payload, "theta", float, 0)),
            truncation_v=float(_json_array(payload, "truncation_v", float, 0)),
            provenance=payload.get("provenance", {}),
            digest=digest,
        )
        try:
            dictionary.validate()
        except CorruptArtifactError as exc:
            raise CorruptArtifactError(f"{path}: {exc}") from exc
    return dictionary
