"""Shape tables for tests that start from bare arrays of rows.

``adaptive_kmeans`` and ``assign_all`` take a ``ShapeTable`` only, so a
test that draws rows wraps them with ``shape_table``.
"""

import datetime as dt

import numpy as np

from loadshapes.ingest import HOURS_PER_DAY
from loadshapes.preprocess import ShapeTable


class AnyWidthShapes(ShapeTable):
    """Rows of any width, such as Hypothesis draws 2 or 3 wide; no file
    holds them."""

    COLUMNS = (*ShapeTable.COLUMNS[:2], ("values", float, []))


def shape_table(X) -> ShapeTable:
    """The rows of ``X`` keyed ``s0``, ``s1``, ... on 2000-01-01, with unit
    kWh; an ``AnyWidthShapes`` unless the rows are 24 wide."""
    X = np.asarray(X, dtype=float)
    n = len(X)
    table = ShapeTable if X.shape[1:] == (HOURS_PER_DAY,) else AnyWidthShapes
    return table(
        X,
        np.array([f"s{i}" for i in range(n)], dtype=object),
        np.full(n, dt.date(2000, 1, 1), dtype=object),
        np.ones(n),
        np.ones(n),
    )
