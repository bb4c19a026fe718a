"""Threshold-driven adaptive k-means with hierarchical centroid merging.

The fitting loop alternates Lloyd's k-means with targeted splitting: any
cluster holding a shape whose relative squared error (RSE) against the
cluster center exceeds the threshold theta is split in two, and the whole
model is re-converged, until no shape violates theta or the split-round cap
is reached. A greedy merge pass then consolidates the most similar centroid
pairs for as long as the violation rate stays under a budget.

All randomness flows through one seeded numpy Generator; summation orders
are fixed, so a given seed reproduces the model bit for bit.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CorruptArtifactError,
    DegenerateCenterError,
    EmptyInputError,
    VersionMismatchError,
)
from .preprocess import ShapeTable

MODEL_SCHEMA_VERSION = 1

DEFAULT_K_INIT = 10
DEFAULT_MAX_ITER = 100
DEFAULT_REL_TOL = 1e-6
DEFAULT_MAX_SPLIT_ROUNDS = 200


def rse(shape, center) -> float:
    """Relative squared error of a shape against a cluster center.

    sum_t (s_t - c_t)^2 / sum_t c_t^2; zero iff the shape equals the center.
    """
    s = np.asarray(shape, dtype=float)
    c = np.asarray(center, dtype=float)
    denom = float(np.dot(c, c))
    if denom == 0.0:
        raise DegenerateCenterError("center has zero norm")
    diff = s - c
    return float(np.dot(diff, diff)) / denom


def rse_to_assigned(X, centroids, labels) -> np.ndarray:
    """Vectorized RSE of every shape against its assigned centroid."""
    C = centroids[labels]
    denom = (centroids**2).sum(axis=1)[labels]
    if np.any(denom == 0.0):
        raise DegenerateCenterError("a centroid has zero norm")
    return ((X - C) ** 2).sum(axis=1) / denom


def _pairwise_sq_dists(X, C, xx=None) -> np.ndarray:
    """Squared distances of every row of X to every row of C; ``xx`` is
    ``(X**2).sum(axis=1)`` when the caller already holds it."""
    if xx is None:
        xx = (X**2).sum(axis=1)
    # in place, but the same roundings as xx - 2.0 * (X @ C.T) + cc
    d2 = X @ C.T
    d2 *= -2.0
    d2 += xx[:, None]
    d2 += (C**2).sum(axis=1)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _kmeans_pp_init(X, k, rng) -> np.ndarray:
    """k-means++ seeding; stops early if fewer distinct points exist."""
    n = len(X)
    centers = [X[int(rng.integers(n))]]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    while len(centers) < k:
        total = d2.sum()
        if total <= 0.0:
            break
        probs = d2 / total
        idx = int(rng.choice(n, p=probs))
        centers.append(X[idx])
        d2 = np.minimum(d2, ((X - centers[-1]) ** 2).sum(axis=1))
    return np.array(centers)


def _group_sums(XT, labels, k) -> np.ndarray:
    """(k, d) per-cluster row sums of X, given its C-contiguous transpose XT.

    np.bincount adds each bin's weights in row order, so every sum is
    accumulated member by member in row order, independent of k.
    """
    return np.stack([np.bincount(labels, weights=col, minlength=k) for col in XT], axis=1)


def _group_means(X, XT, labels, k, d2min):
    """Deterministic per-cluster means; empty clusters relocate to the
    points currently farthest from their assigned centers."""
    sums = _group_sums(XT, labels, k)
    counts = np.bincount(labels, minlength=k)
    centers = np.empty_like(sums)
    nonzero = counts > 0
    centers[nonzero] = sums[nonzero] / counts[nonzero, None]
    empties = np.flatnonzero(~nonzero)
    if len(empties):
        order = np.argsort(-d2min, kind="stable")
        for slot, e in enumerate(empties):
            centers[e] = X[order[slot]]
    return centers, counts, empties


def _lloyd(X, centers, max_iter=DEFAULT_MAX_ITER, rel_tol=DEFAULT_REL_TOL):
    """Lloyd iterations from given centers.

    Returns (centers, labels, inertia) with centers equal to the exact means
    of their assigned members, so downstream consistency checks hold to
    floating-point accuracy.
    """
    centers = np.array(centers, dtype=float)
    k = len(centers)
    XT = np.ascontiguousarray(X.T)
    xx = (X**2).sum(axis=1)
    prev_inertia = np.inf
    labels = np.zeros(len(X), dtype=np.int64)
    relocated = False
    for _ in range(max_iter):
        d2 = _pairwise_sq_dists(X, centers, xx)
        labels = d2.argmin(axis=1)
        d2min = d2[np.arange(len(X)), labels]
        inertia = float(d2min.sum())
        centers, _, empties = _group_means(X, XT, labels, k, d2min)
        relocated = len(empties) > 0
        if not relocated and prev_inertia - inertia <= rel_tol * max(inertia, 1e-300):
            break
        prev_inertia = inertia
    if relocated:
        # a relocated center has no members yet; give it one settling pass
        d2 = _pairwise_sq_dists(X, centers, xx)
        labels = d2.argmin(axis=1)
        d2min = d2[np.arange(len(X)), labels]
        centers, counts, empties = _group_means(X, XT, labels, k, d2min)
        if len(empties):
            keep = np.flatnonzero(counts > 0)
            remap = np.full(k, -1, dtype=np.int64)
            remap[keep] = np.arange(len(keep))
            centers = centers[keep]
            labels = remap[labels]
    inertia = float(((X - centers[labels]) ** 2).sum())
    return centers, labels, inertia


def kmeans(X, k, seed=None, n_init=1, max_iter=DEFAULT_MAX_ITER,
           rel_tol=DEFAULT_REL_TOL, rng=None):
    """Best-of-n_init k-means++ / Lloyd's. Returns (centers, labels, inertia)."""
    X = np.asarray(X, dtype=float)
    if len(X) == 0:
        raise EmptyInputError("kmeans on empty input")
    if rng is None:
        rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        init = _kmeans_pp_init(X, min(k, len(X)), rng)
        centers, labels, inertia = _lloyd(X, init, max_iter, rel_tol)
        if best is None or inertia < best[2]:
            best = (centers, labels, inertia)
    return best


@dataclass
class ClusterModel:
    """Shapes, centroids, and the label of every shape.

    ``ids`` are stable integer cluster ids that survive merging; ``labels``
    index centroid rows. ``violation_rate`` is always recomputed from the
    current assignment.
    """

    table: ShapeTable
    centroids: np.ndarray
    ids: np.ndarray
    labels: np.ndarray
    theta: float
    meta: dict = field(default_factory=dict)

    @property
    def n_shapes(self) -> int:
        return len(self.labels)

    @property
    def n_clusters(self) -> int:
        return len(self.centroids)

    @property
    def counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_clusters)

    def rse_per_shape(self) -> np.ndarray:
        return rse_to_assigned(self.table.values, self.centroids, self.labels)

    @property
    def violation_rate(self) -> float:
        return float((self.rse_per_shape() > self.theta).mean())

    def max_consistency_error(self) -> float:
        """Largest |centroid - mean(members)| entry, for invariant checks."""
        X = self.table.values
        k = self.n_clusters
        sums = _group_sums(np.ascontiguousarray(X.T), self.labels, k)
        counts = np.bincount(self.labels, minlength=k)
        means = sums / counts[:, None]
        return float(np.abs(means - self.centroids).max())


def adaptive_kmeans(shapes, theta: float, k_init: int = DEFAULT_K_INIT,
                    seed: int = 0, max_split_rounds: int = DEFAULT_MAX_SPLIT_ROUNDS,
                    max_iter: int = DEFAULT_MAX_ITER, rel_tol: float = DEFAULT_REL_TOL,
                    n_init: int = 1) -> ClusterModel:
    """Grow a clustering until every shape fits its centroid within theta.

    Each round re-converges Lloyd's k-means, then splits every cluster that
    still contains a shape with RSE > theta into two (2-means on its
    members). Terminates with zero violations unless the round cap triggers,
    in which case a warning reports the residual violations.
    """
    table = shapes if isinstance(shapes, ShapeTable) else _bare_table(shapes)
    X = table.values
    if len(X) == 0:
        raise EmptyInputError("adaptive_kmeans on empty input")
    if theta <= 0:
        raise ValueError("theta must be positive")
    if k_init < 1:
        raise ValueError("k_init must be >= 1")
    rng = np.random.default_rng(seed)
    centers, labels, _ = kmeans(
        X, min(k_init, len(X)), n_init=n_init, max_iter=max_iter,
        rel_tol=rel_tol, rng=rng,
    )
    rounds = 0
    while True:
        errors = rse_to_assigned(X, centers, labels)
        violating = errors > theta
        if not violating.any():
            residual = 0
            break
        if rounds >= max_split_rounds:
            residual = int(violating.sum())
            warnings.warn(
                f"split-round cap {max_split_rounds} reached with "
                f"{residual} residual threshold violations"
            )
            break
        bad_clusters = set(np.unique(labels[violating]).tolist())
        # a stable sort keeps each cluster's members in row order
        by_label = np.argsort(labels, kind="stable")
        bounds = np.searchsorted(labels[by_label], np.arange(len(centers) + 1))
        new_centers = []
        for c in range(len(centers)):
            lo, hi = bounds[c], bounds[c + 1]
            if c in bad_clusters and hi - lo >= 2:
                sub, _, _ = kmeans(X[by_label[lo:hi]], 2, n_init=1, max_iter=max_iter,
                                   rel_tol=rel_tol, rng=rng)
                new_centers.extend(sub)
            else:
                new_centers.append(centers[c])
        centers, labels, _ = _lloyd(X, np.array(new_centers), max_iter, rel_tol)
        rounds += 1
    meta = {
        "phase": "adaptive",
        "seed": seed,
        "k_init": k_init,
        "split_rounds": rounds,
        "residual_violations": residual,
        "k1": len(centers),
    }
    return ClusterModel(
        table=table,
        centroids=centers,
        ids=np.arange(len(centers), dtype=np.int64),
        labels=labels.astype(np.int64),
        theta=theta,
        meta=meta,
    )


def _bare_table(shapes) -> ShapeTable:
    X = np.asarray(shapes, dtype=float)
    n = len(X)
    return ShapeTable(
        X,
        np.array([f"s{i}" for i in range(n)], dtype=object),
        np.array([dt.date(2000, 1, 1)] * n, dtype=object),
        np.ones(n),
        np.ones(n),
    )


def hierarchical_merge(model: ClusterModel, max_violation: float = 0.05) -> ClusterModel:
    """Greedily merge the closest centroid pair while the violation budget holds.

    Each step merges the pair at minimum Euclidean distance (ties broken by
    the lower id pair) into their member-count-weighted mean; members keep
    the merged label and are never re-assigned elsewhere. The result is the
    model one step before the violation rate would reach max_violation.
    """
    if model.n_clusters < 2:
        raise ValueError("hierarchical_merge needs at least 2 centroids")
    X = model.table.values
    n = len(X)
    centroids = model.centroids.copy()
    ids = model.ids.copy()
    labels = model.labels.copy()
    counts = model.counts.astype(np.int64)
    theta = model.theta

    violating = rse_to_assigned(X, centroids, labels) > theta
    viol_count = int(violating.sum())

    d2 = _pairwise_sq_dists(centroids, centroids)
    np.fill_diagonal(d2, np.inf)
    tri = np.triu(np.ones_like(d2, dtype=bool), k=1)
    d2 = np.where(tri, d2, np.inf)

    merges = 0
    while len(centroids) >= 2:
        flat = int(d2.argmin())  # row-major: ties resolve to the lowest id pair
        p, q = divmod(flat, d2.shape[1])
        if not np.isfinite(d2[p, q]):
            break
        merged = (counts[p] * centroids[p] + counts[q] * centroids[q]) / (
            counts[p] + counts[q]
        )
        members = (labels == p) | (labels == q)
        new_rse = rse_to_assigned(X[members], merged[None, :], np.zeros(int(members.sum()), dtype=np.int64))
        new_viol = viol_count - int(violating[members].sum()) + int((new_rse > theta).sum())
        if new_viol / n >= max_violation:
            break
        centroids[p] = merged
        counts[p] += counts[q]
        labels[members] = p
        violating[members] = new_rse > theta
        viol_count = new_viol
        keep = np.arange(len(centroids)) != q
        centroids = centroids[keep]
        ids = ids[keep]
        counts = counts[keep]
        labels[labels > q] -= 1
        d2 = d2[keep][:, keep]
        # refresh distances involving the merged cluster (still at row p)
        dp = ((centroids - centroids[p]) ** 2).sum(axis=1)
        d2[p, p + 1:] = dp[p + 1:]
        d2[:p, p] = dp[:p]
        merges += 1

    meta = dict(model.meta)
    meta.update(
        phase="merged",
        merge_max_violation=max_violation,
        merges=merges,
        k2=len(centroids),
    )
    return ClusterModel(
        table=model.table,
        centroids=centroids,
        ids=ids,
        labels=labels,
        theta=theta,
        meta=meta,
    )


def save_model(model: ClusterModel, model_path, labels_path=None) -> None:
    payload = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "theta": model.theta,
        "ids": model.ids.tolist(),
        "counts": model.counts.tolist(),
        "centroids": [list(map(float, row)) for row in model.centroids],
        "meta": model.meta,
    }
    with open(model_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if labels_path is not None:
        with open(labels_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["household_id", "date", "cluster_id"])
            cluster_ids = model.ids[model.labels]
            for i in range(model.n_shapes):
                writer.writerow(
                    [
                        model.table.household_ids[i],
                        model.table.dates[i].isoformat(),
                        int(cluster_ids[i]),
                    ]
                )


def load_model(model_path, labels_path, table: ShapeTable) -> ClusterModel:
    """Rebuild a ClusterModel from model.json + labels.csv and a shape table.

    ``table`` holds every labelled shape and may hold more, such as the full
    shape table the model was subsampled from. The model's table is the rows
    labels.csv names, in labels.csv order. A key the table lacks, or one
    labels.csv lists twice, raises CorruptArtifactError.
    """
    with open(model_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise VersionMismatchError(
            f"model schema {version}, supported {MODEL_SCHEMA_VERSION}"
        )
    ids = np.asarray(payload["ids"], dtype=np.int64)
    centroids = np.asarray(payload["centroids"], dtype=float)
    position = {int(cid): pos for pos, cid in enumerate(ids)}
    row_of = {
        (hid, date.isoformat()): i
        for i, (hid, date) in enumerate(zip(table.household_ids, table.dates))
    }
    rows, labels = [], []
    with open(labels_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            key = (row[0], row[1])
            if key not in row_of:
                raise CorruptArtifactError(
                    f"labels file names shape key {key}, which the shape table lacks"
                )
            cid = int(row[2])
            if cid not in position:
                raise CorruptArtifactError(
                    f"labels file names cluster id {cid}, which model.json lacks"
                )
            rows.append(row_of[key])
            labels.append(position[cid])
    rows = np.array(rows, dtype=np.int64)
    repeated = np.flatnonzero(np.bincount(rows, minlength=len(table)) > 1)
    if len(repeated):
        i = repeated[0]
        key = (table.household_ids[i], table.dates[i].isoformat())
        raise CorruptArtifactError(f"labels file lists shape key {key} twice")
    table = table.take(rows)
    labels = np.array(labels, dtype=np.int64)
    model = ClusterModel(
        table=table,
        centroids=centroids,
        ids=ids,
        labels=labels,
        theta=float(payload["theta"]),
        meta=payload.get("meta", {}),
    )
    if model.counts.tolist() != payload["counts"]:
        raise CorruptArtifactError("label counts disagree with persisted counts")
    return model
