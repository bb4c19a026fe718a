"""Threshold-driven adaptive k-means with hierarchical centroid merging.

The fitting loop alternates Lloyd's k-means with targeted splitting: any
cluster holding a shape whose relative squared error (RSE) against the
cluster center exceeds the threshold theta is split in two, and the whole
model is re-converged, until no shape violates theta or the split-round cap
is reached. A greedy merge pass then consolidates the most similar centroid
pairs for as long as the violation rate stays under a budget.

Lloyd keeps no distance matrix: each row's nearest center and its
expanded-form distance, refreshed only for the centers that moved, and each
round's re-convergence starts from the previous round's assignment. Both
give the bits of a cold full recompute as long as every element of a BLAS
product with >= 2 rows and >= 2 columns rounds as in the full product. The
merge uses no BLAS product.

All randomness flows through one seeded numpy Generator; summation orders
are fixed, so a given seed reproduces the model bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CorruptArtifactError,
    DegenerateCenterError,
    EmptyInputError,
)
from .ingest import KeyedTable, _centroid_json, _json_array, _write_json
from .preprocess import ShapeTable

MODEL_SCHEMA_VERSION = 1

DEFAULT_K_INIT = 10
DEFAULT_MAX_ITER = 100
DEFAULT_REL_TOL = 1e-6
MAX_SPLIT_ROUNDS = 200


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


def _pairwise_sq_dists(X, C, xx) -> np.ndarray:
    """Squared distances of every row of X to every row of C, in the
    expanded form; ``xx`` is ``(X**2).sum(axis=1)``."""
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


def _group_sums(X, labels, k) -> np.ndarray:
    """(k, d) per-cluster row sums of X.

    One flat np.bincount over ``labels * d + j`` adds each bin's weights in
    row order, so every sum is accumulated member by member in row order,
    independent of k and of the other clusters' rows.
    """
    d = X.shape[1]
    keys = (labels * d)[:, None] + np.arange(d)
    return np.bincount(keys.ravel(), weights=X.ravel(), minlength=k * d).reshape(k, d)


def _group_means(X, labels, d2min, centers, dirty):
    """Per-cluster means after a reassignment; empty clusters relocate to
    the points currently farthest from their assigned centers.

    Only the clusters flagged in the boolean mask ``dirty`` get their means
    recomputed; every other cluster keeps its row of ``centers``, which
    must already be its members' mean. Returns (centers, counts, empties).
    """
    k = len(centers)
    counts = np.bincount(labels, minlength=k)
    if dirty.all():
        sums = _group_sums(X, labels, k)
    else:
        rows = np.flatnonzero(dirty[labels])
        sums = _group_sums(X[rows], labels[rows], k)
    update = dirty & (counts > 0)
    centers = centers.copy()
    centers[update] = sums[update] / counts[update, None]
    empties = np.flatnonzero(counts == 0)
    if len(empties):
        order = np.argsort(-d2min, kind="stable")
        centers[empties] = X[order[:len(empties)]]
    return centers, counts, empties


def _nearest_center(d2):
    """First-index argmin of every row of ``d2`` and the distance it picks."""
    labels = d2.argmin(axis=1)
    return labels, d2[np.arange(len(d2)), labels]


def _two_or_more(idx, size):
    """``idx`` with a neighbour added when it holds one of ``size >= 2``
    indices: a product with one row or one column goes through gemv and
    rounds differently."""
    if len(idx) != 1 or size < 2:
        return idx
    i = min(idx[0], size - 2)
    return np.array([i, i + 1])


def _assign(X, xx, centers, labels, d2min, changed):
    """The full product's first-index argmin of every row, and its
    distance, after the centers flagged in ``changed`` moved.

    ``labels`` and ``d2min`` are the argmin and the distance of every row
    against the centers before the move; the arguments are left as they
    were. A row's distances to unchanged centers keep their bits, so its
    new label is its old one unless a changed center is nearer, or as near
    at a lower position; a row whose own center moved gets its full row
    recomputed. That costs ``n * |changed| + |own rows| * k`` products,
    with both sets widened to two, against the full product's ``n * k``,
    and the cheaper way is taken.
    """
    n, k = len(X), len(centers)
    cols = _two_or_more(np.flatnonzero(changed), k)
    own = _two_or_more(np.flatnonzero(changed[labels]), n)
    if n * len(cols) + len(own) * k >= n * k:
        return _nearest_center(_pairwise_sq_dists(X, centers, xx))
    labels, d2min = labels.copy(), d2min.copy()
    if len(cols):
        j, v = _nearest_center(_pairwise_sq_dists(X, centers[cols], xx))
        j = cols[j]
        take = (v < d2min) | (v == d2min) & (j < labels)
        labels[take], d2min[take] = j[take], v[take]
    if len(own):
        labels[own], d2min[own] = _nearest_center(_pairwise_sq_dists(X[own], centers, xx[own]))
    return labels, d2min


def _lloyd(X, centers, max_iter=DEFAULT_MAX_ITER, rel_tol=DEFAULT_REL_TOL, warm=None):
    """Lloyd iterations from given centers, for max_iter >= 1 and k <= n.

    Returns (centers, labels, state) with centers equal to the exact means
    of their assigned members, so downstream consistency checks hold to
    floating-point accuracy. An iteration that leaves a cluster empty
    relocates it and blocks convergence; if the last one does, a settling
    pass follows and clusters still empty are dropped. After each mean
    update ``_assign`` refreshes the labels for the centers that changed
    bitwise; a cluster's mean is recomputed only when a row moved into or
    out of it, and an update that moves no center ends the loop.

    ``state`` is ``(xx, labels, d2min, stale)``, with ``stale`` flagging the
    centers that the final mean update moved, for which ``d2min`` is out of
    date. Passed back as ``warm``, with the labels remapped to the positions
    of the new ``centers`` and ``stale`` also set for every center that is
    new, it starts the next call where this one ended; every center not
    stale must be its members' mean. Without ``warm`` every center is stale
    and the first assignment is the full product.
    """
    centers = np.array(centers, dtype=float)
    n, k = len(X), len(centers)
    if warm is None:
        warm = ((X**2).sum(axis=1), np.zeros(n, dtype=np.int64), None, np.ones(k, dtype=bool))
    xx, labels, d2min, changed = warm
    dirty = changed.copy()  # a stale center need not be its members' mean
    prev_inertia = np.inf
    for it in range(max_iter + 1):
        prev, (labels, d2min) = labels, _assign(X, xx, centers, labels, d2min, changed)
        moved = labels != prev
        dirty[labels[moved]] = dirty[prev[moved]] = True
        inertia = float(d2min.sum())
        new, counts, empties = _group_means(X, labels, d2min, centers, dirty)
        converged = prev_inertia - inertia <= rel_tol * max(inertia, 1e-300)
        changed = (new != centers).any(axis=1)
        centers = new
        if it == max_iter or not changed.any() or not len(empties) and (
                converged or it + 1 == max_iter):
            break  # with no center moved, every later iteration repeats this one
        prev_inertia = inertia
        dirty = np.zeros(k, dtype=bool)
    if len(empties):
        kept = counts > 0
        centers, changed = centers[kept], changed[kept]
        labels = (np.cumsum(kept) - 1)[labels]  # each label's rank among the kept
    return centers, labels, (xx, labels, d2min, changed)


def _checked_rows(X, name) -> np.ndarray:
    """X as a float array of rows; a wrong shape or a non-finite cell
    raises ValueError before any work."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"{name} needs a 2-D array of rows, got shape {X.shape}")
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if len(bad):
        raise ValueError(f"{name}: row {bad[0]} holds a non-finite value")
    return X


def kmeans(X, k, seed=None, n_init=1, rel_tol=DEFAULT_REL_TOL):
    """Best-of-n_init k-means++ / Lloyd's. Returns (centers, labels, inertia);
    a numpy Generator as ``seed`` is drawn from, not re-seeded."""
    X = _checked_rows(X, "kmeans")
    if len(X) == 0:
        raise EmptyInputError("kmeans on empty input")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n_init < 1:
        raise ValueError(f"n_init must be >= 1, got {n_init}")
    if not 0.0 <= rel_tol < np.inf:
        raise ValueError(f"rel_tol must be finite and >= 0, got {rel_tol}")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        init = _kmeans_pp_init(X, min(k, len(X)), rng)
        centers, labels, _ = _lloyd(X, init, rel_tol=rel_tol)
        inertia = float(((X - centers[labels]) ** 2).sum())
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


def adaptive_kmeans(shapes: ShapeTable, theta: float, k_init: int = DEFAULT_K_INIT,
                    seed: int = 0) -> ClusterModel:
    """Grow a clustering of the rows of ``shapes`` until every shape fits
    its centroid within theta; anything but a ShapeTable is a TypeError.

    Each round splits every cluster that still contains a shape with RSE >
    theta into two (2-means on its members), then re-converges Lloyd's
    k-means from the previous round's assignment. Terminates with zero
    violations unless the round cap, MAX_SPLIT_ROUNDS, triggers; a warning
    then reports the residual violations.
    """
    if not isinstance(shapes, ShapeTable):
        raise TypeError(f"adaptive_kmeans needs a ShapeTable, got {type(shapes).__name__}")
    X = _checked_rows(shapes.values, "adaptive_kmeans")
    if len(X) == 0:
        raise EmptyInputError("adaptive_kmeans on empty input")
    if not 0.0 < theta < np.inf:
        raise ValueError(f"theta must be finite and > 0, got {theta}")
    if k_init < 1:
        raise ValueError("k_init must be >= 1")
    rng = np.random.default_rng(seed)
    centers, labels, _ = kmeans(X, min(k_init, len(X)), seed=rng)
    # every center stale: the first round starts from the full product
    state = ((X**2).sum(axis=1), labels, None, np.ones(len(centers), dtype=bool))
    rounds = 0
    while True:
        errors = rse_to_assigned(X, centers, labels)
        violating = errors > theta
        if not violating.any():
            residual = 0
            break
        if rounds >= MAX_SPLIT_ROUNDS:
            residual = int(violating.sum())
            warnings.warn(
                f"split-round cap {MAX_SPLIT_ROUNDS} reached with "
                f"{residual} residual threshold violations"
            )
            break
        bad_clusters = set(np.unique(labels[violating]).tolist())
        xx, _, d2min, stale = state
        new_centers, position, new_stale = [], [], []
        for c, rows in enumerate(_members(labels, len(centers))):
            position.append(len(new_centers))
            if c in bad_clusters and len(rows) >= 2:
                sub, _, _ = kmeans(X[rows], 2, seed=rng)
                new_centers.extend(sub)
                new_stale.extend([True] * len(sub))
            else:
                new_centers.append(centers[c])
                new_stale.append(stale[c])
        # a split cluster's rows go to its first center; both are stale
        state = (xx, np.array(position)[labels], d2min, np.array(new_stale))
        centers, labels, state = _lloyd(X, np.array(new_centers), warm=state)
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
        table=shapes,
        centroids=centers,
        ids=np.arange(len(centers), dtype=np.int64),
        labels=labels.astype(np.int64),
        theta=theta,
        meta=meta,
    )


def _members(labels, k) -> list:
    """The row indices of each of the ``k`` clusters, in row order."""
    by_label = np.argsort(labels, kind="stable")  # stable: row order within a cluster
    bounds = np.searchsorted(labels[by_label], np.arange(k + 1))
    return [by_label[bounds[c]:bounds[c + 1]] for c in range(k)]


def hierarchical_merge(model: ClusterModel, max_violation: float = 0.05) -> ClusterModel:
    """Greedily merge the closest centroid pair while the violation budget holds.

    Each step merges the pair at minimum Euclidean distance (ties broken by
    the lower id pair) into their member-count-weighted mean; members keep
    the merged label and are never re-assigned elsewhere. The result is the
    model one step before the violation rate would reach max_violation, with
    its centroids in ascending id order. Every distance it compares, at the
    start and after each merge, is one form, the sum of the direct squared
    differences, so a pair tied exactly in that form stays tied.
    """
    if not 0.0 <= max_violation < 1.0:
        raise ValueError(f"max_violation must be in [0, 1), got {max_violation}")
    X = model.table.values
    n = len(X)
    k = model.n_clusters
    # centroid rows in ascending id order, so that row order breaks ties
    order = np.argsort(model.ids, kind="stable")
    labels = np.argsort(order)[model.labels]
    centroids, ids = model.centroids[order], model.ids[order]
    counts = model.counts[order].astype(np.int64)
    theta = model.theta
    members = _members(labels, k)  # a merge moves q's rows to p

    violating = rse_to_assigned(X, centroids, labels) > theta
    viol_count = int(violating.sum())

    # pairs p < q only; a merged-away cluster's row and column become inf,
    # so the row-major order of the remaining pairs is that of a compacted
    # matrix
    d2 = np.array([((centroids - c) ** 2).sum(axis=1) for c in centroids])
    d2[np.tril_indices(k)] = np.inf
    alive = np.ones(k, dtype=bool)

    merges = 0
    while True:
        flat = int(d2.argmin())  # row-major: ties resolve to the lowest id pair
        p, q = divmod(flat, k)
        if not np.isfinite(d2[p, q]):
            break
        merged = (counts[p] * centroids[p] + counts[q] * centroids[q]) / (
            counts[p] + counts[q]
        )
        rows = np.concatenate((members[p], members[q]))
        bad = rse_to_assigned(X[rows], merged[None, :], np.zeros(len(rows), dtype=np.int64)) > theta
        new_viol = viol_count - int(violating[rows].sum()) + int(bad.sum())
        if new_viol / n >= max_violation:
            break
        centroids[p] = merged
        counts[p] += counts[q]
        members[p] = rows
        violating[rows] = bad
        viol_count = new_viol
        alive[q] = False
        d2[q, :] = np.inf
        d2[:, q] = np.inf
        # refresh distances involving the merged cluster
        dp = ((centroids - centroids[p]) ** 2).sum(axis=1)
        dp[~alive] = np.inf
        d2[p, p + 1:] = dp[p + 1:]
        d2[:p, p] = dp[:p]
        merges += 1

    keep = np.flatnonzero(alive)
    for label, c in enumerate(keep):
        labels[members[c]] = label
    centroids = centroids[keep]
    ids = ids[keep]

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


class _Labels(KeyedTable):
    """labels.csv: the cluster id of each shape of a model's table."""

    COLUMNS = (("cluster_ids", int, ["cluster_id"]),)


def save_model(model: ClusterModel, model_path, labels_path) -> None:
    payload = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "theta": model.theta,
        "ids": model.ids.tolist(),
        "counts": model.counts.tolist(),
        "centroids": [list(map(float, row)) for row in model.centroids],
        "meta": dict(model.meta),
    }
    _write_json(model_path, payload)
    _Labels(model.table.household_ids, model.table.dates,
            cluster_ids=model.ids[model.labels])._write_csv(labels_path)


def load_model(model_path, labels_path, table: ShapeTable) -> ClusterModel:
    """Rebuild a ClusterModel from model.json + labels.csv and a shape table.

    ``table`` holds every labelled shape and may hold more, such as the full
    shape table the model was subsampled from. The model's table is the rows
    labels.csv names, in labels.csv order. A key the table lacks, or one
    labels.csv lists twice, raises CorruptArtifactError.
    """
    with _centroid_json(model_path, "model", MODEL_SCHEMA_VERSION) as (payload, ids, centroids):
        theta = float(_json_array(payload, "theta", float, 0))
        counts = _json_array(payload, "counts", np.int64, 1).tolist()
    position = {int(cid): pos for pos, cid in enumerate(ids)}
    row_of = {key: i for i, key in enumerate(zip(table.household_ids, table.dates))}
    labelled = _Labels._parse_csv(labels_path)
    rows, labels = [], []
    for key, cid in zip(zip(labelled.household_ids, labelled.dates),
                        labelled.cluster_ids.tolist()):
        if key not in row_of:
            raise CorruptArtifactError(
                f"{labels_path}: data row {len(rows) + 1} names shape key "
                f"{(key[0], key[1].isoformat())}, which the shape table lacks"
            )
        if cid not in position:
            raise CorruptArtifactError(
                f"{labels_path}: data row {len(rows) + 1} names cluster id {cid}, "
                "which model.json lacks"
            )
        rows.append(row_of[key])
        labels.append(position[cid])
    rows = np.array(rows, dtype=np.int64)
    repeated = np.flatnonzero(np.bincount(rows, minlength=len(table)) > 1)
    if len(repeated):
        i = repeated[0]
        key = (table.household_ids[i], table.dates[i].isoformat())
        raise CorruptArtifactError(f"{labels_path}: lists shape key {key} twice")
    table = table.take(rows)
    labels = np.array(labels, dtype=np.int64)
    model = ClusterModel(
        table=table,
        centroids=centroids,
        ids=ids,
        labels=labels,
        theta=theta,
        meta=payload.get("meta", {}),
    )
    if model.counts.tolist() != counts:
        raise CorruptArtifactError(f"{model_path}: label counts disagree with persisted counts")
    return model
