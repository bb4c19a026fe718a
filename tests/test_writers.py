"""Block-formatted CSV writers against ``csv.writer`` row loops.

Each reference below is the row-at-a-time loop the writer had before it
formatted blocks of rows; the writer's file must equal it byte for byte.
The block size is patched to 3 rows so a table spans several blocks. A
last check keeps every other module from opening a CSV for writing.
"""

import ast
import csv
import datetime as dt
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_preprocess import _HOUSEHOLD_IDS

from loadshapes import ingest
from loadshapes.cluster import ClusterModel, save_model
from loadshapes.dictionary import AssignmentTable
from loadshapes.ingest import LONG_HEADER, WIDE_HEADER, DayTable, write_meter_corpus
from loadshapes.preprocess import ShapeTable
from loadshapes.synthetic import SyntheticTruth

_NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, 2.5e-310, 1.7976931348623157e308]),
    st.floats(allow_nan=False, width=64),
)


@st.composite
def keys(draw):
    """Household ids and dates of up to 11 rows, drawn from small pools so
    that ids and dates repeat across rows and blocks."""
    ids = draw(st.lists(_HOUSEHOLD_IDS, min_size=1, max_size=3))
    dates = draw(st.lists(st.dates(), min_size=1, max_size=3))
    n = draw(st.integers(0, 11))
    return (
        np.array(draw(st.lists(st.sampled_from(ids), min_size=n, max_size=n)), dtype=object),
        np.array(draw(st.lists(st.sampled_from(dates), min_size=n, max_size=n)), dtype=object),
    )


def columns(draw, n, elements, width=None):
    shape = n if width is None else (n, width)
    size = n if width is None else n * width
    return np.array(draw(st.lists(elements, min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


def assert_same_bytes(write, reference):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "CSV_BLOCK_ROWS", 3)
        ours, theirs = Path(tmp) / "ours.csv", Path(tmp) / "reference.csv"
        write(ours)
        with open(theirs, "w", newline="", encoding="utf-8") as fh:
            reference(csv.writer(fh))
        assert ours.read_bytes() == theirs.read_bytes()


@settings(max_examples=80, deadline=None)
@given(keys(), st.data())
def test_shape_table_writer_bytes_equal_csv_writer_rows(key_columns, data):
    ids, dates = key_columns
    n = len(ids)
    table = ShapeTable(columns(data.draw, n, _NUMBERS, 24), ids, dates,
                       columns(data.draw, n, _NUMBERS), columns(data.draw, n, _NUMBERS))

    def reference(writer):
        writer.writerow(ShapeTable.HEADER)
        for hid, date, total, disc, row in zip(
            table.household_ids, table.dates, table.day_total_kwh,
            table.discretionary_kwh, table.values,
        ):
            writer.writerow(
                [hid, date.isoformat(), repr(float(total)), repr(float(disc))]
                + [repr(v) for v in row.tolist()]
            )

    assert_same_bytes(table.write_csv, reference)


@settings(max_examples=80, deadline=None)
@given(keys(), st.data())
def test_assignment_table_writer_bytes_equal_csv_writer_rows(key_columns, data):
    ids, dates = key_columns
    n = len(ids)
    table = AssignmentTable(
        ids, dates,
        data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)),
        columns(data.draw, n, _NUMBERS), columns(data.draw, n, _NUMBERS),
    )

    def reference(writer):
        writer.writerow(AssignmentTable.HEADER)
        for i in range(len(table)):
            writer.writerow(
                [
                    table.household_ids[i],
                    table.dates[i].isoformat(),
                    int(table.cluster_ids[i]),
                    repr(float(table.distances[i])),
                    repr(float(table.rses[i])),
                ]
            )

    assert_same_bytes(table.write_csv, reference)


@settings(max_examples=80, deadline=None)
@given(keys(), st.data())
def test_labels_writer_bytes_equal_csv_writer_rows(key_columns, data):
    ids, dates = key_columns
    n = len(ids)
    k = data.draw(st.integers(1, 4))
    model = ClusterModel(
        table=ShapeTable(np.full((n, 24), 1 / 24), ids, dates, np.ones(n), np.ones(n)),
        centroids=np.full((k, 24), 1 / 24),
        ids=np.array(data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=k,
                                        max_size=k, unique=True)), dtype=np.int64),
        labels=np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n,
                                           max_size=n)), dtype=np.int64),
        theta=0.2,
    )

    def reference(writer):
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

    def write(path):
        save_model(model, path.with_suffix(".json"), path)

    assert_same_bytes(write, reference)

    # truth.csv has the same key columns and one integer column
    truth = SyntheticTruth(ids, dates, model.ids[model.labels])

    def truth_reference(writer):
        writer.writerow(["household_id", "date", "archetype_id"])
        writer.writerows(zip(truth.household_ids, (date.isoformat() for date in truth.dates),
                             map(int, truth.archetype_ids)))

    assert_same_bytes(truth.write_csv, truth_reference)


@settings(max_examples=80, deadline=None)
@given(keys(), st.data(), st.sampled_from(["wide", "long"]))
def test_meter_writer_bytes_equal_csv_writer_rows(key_columns, data, schema):
    ids, dates = key_columns
    kwh = columns(data.draw, len(ids), _NUMBERS, 24)
    if len(ids):  # missing readings, in some rows and not in others
        missing = data.draw(st.lists(st.integers(0, kwh.size - 1), max_size=len(ids)))
        kwh.flat[missing] = math.nan
    days = DayTable(ids, dates, kwh)

    def reference(writer):
        rows = zip(days.household_ids, days.dates, days.kwh)
        if schema == "wide":
            writer.writerow(WIDE_HEADER)
            for household_id, date, kwh in rows:
                writer.writerow(
                    [household_id, date.isoformat()]
                    + ["" if v != v else repr(v) for v in kwh.tolist()]
                )
        else:
            writer.writerow(LONG_HEADER)
            for household_id, date, kwh in rows:
                for t, v in enumerate(kwh.tolist(), start=1):
                    writer.writerow(
                        [household_id, date.isoformat(), t,
                         "" if v != v else repr(v)]
                    )

    assert_same_bytes(lambda path: write_meter_corpus(days, path, schema), reference)


def test_meter_writer_rejects_unknown_schema_before_opening_the_file(tmp_path):
    path = tmp_path / "meter.csv"
    path.write_text("kept\n")
    days = DayTable(["H1"], [dt.date(2020, 1, 1)], np.ones((1, 24)))
    with pytest.raises(ValueError, match="unknown meter schema"):
        write_meter_corpus(days, path, "bogus")
    assert path.read_text() == "kept\n"


SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "loadshapes"


def csv_write_opens(path):
    """``module.qualified_function`` of each ``open`` call in ``path`` that
    opens a CSV for writing: a write mode with ``newline=""``, which the
    csv module needs to end lines itself."""
    module = path.stem

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "open"):
                mode = child.args[1] if len(child.args) > 1 else next(
                    (k.value for k in child.keywords if k.arg == "mode"), None)
                newline = next((k.value for k in child.keywords if k.arg == "newline"), None)
                writes = isinstance(mode, ast.Constant) and set(mode.value) & set("wax")
                if writes and isinstance(newline, ast.Constant) and newline.value == "":
                    yield ".".join([module] + scope)
            yield from visit(child, scope)

    return list(visit(ast.parse(path.read_text(encoding="utf-8")), []))


def test_only_the_three_csv_writers_open_a_csv_for_writing():
    opens = [name for path in sorted(SRC_DIR.glob("*.py")) for name in csv_write_opens(path)]
    assert sorted(opens) == [
        "ingest.KeyedTable._write_csv", "ingest._write_table", "ingest.write_meter_corpus",
    ]
