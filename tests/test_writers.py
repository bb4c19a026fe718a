"""Block-formatted CSV writers against ``csv.writer`` row loops.

Each reference below is the row-at-a-time loop the writer had before it
formatted blocks of rows; the writer's file must equal it byte for byte.
The block size is patched to 3 rows so a table spans several blocks, and
a keyed table of 6 rows or more is written by forked row-range shards
when it is given 2 or 3 workers. A last check keeps every other module
from opening a CSV for writing.
"""

import ast
import csv
import datetime as dt
import functools
import math
import os
import re
import signal
import tempfile
import threading
import time
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
        assert not list(Path(tmp).glob("*.part*"))


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

    for workers in (1, 2, 3):
        assert_same_bytes(functools.partial(table.write_csv, workers=workers), reference)


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

    for workers in (1, 2, 3):
        assert_same_bytes(functools.partial(table.write_csv, workers=workers), reference)


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


@pytest.mark.parametrize("workers", [1, 2])
def test_keyed_table_writes_nan_as_an_empty_cell_of_its_column_only(workers, tmp_path):
    n = 7
    distances = np.arange(n) / 3
    distances[[1, 5]] = math.nan
    table = AssignmentTable([f"H{i % 2}" for i in range(n)],
                            [dt.date(2020, 1, 1 + i) for i in range(n)],
                            np.arange(n) - 3, distances, np.arange(n) / 7)

    def reference(writer):
        writer.writerow(AssignmentTable.HEADER)
        for hid, date, cid, distance, rse in zip(table.household_ids, table.dates,
                                                 table.cluster_ids.tolist(),
                                                 table.distances.tolist(), table.rses.tolist()):
            writer.writerow([hid, date.isoformat(), cid,
                             "" if distance != distance else repr(distance), repr(rse)])

    assert_same_bytes(functools.partial(table.write_csv, workers=workers), reference)
    table.write_csv(tmp_path / "a.csv", workers=workers)
    lines = (tmp_path / "a.csv").read_text().splitlines()
    assert lines[2:4] == ["H1,2020-01-02,-2,,0.14285714285714285",
                          "H0,2020-01-03,-1,0.6666666666666666,0.2857142857142857"]


def test_meter_writer_rejects_unknown_schema_before_opening_the_file(tmp_path):
    path = tmp_path / "meter.csv"
    path.write_text("kept\n")
    days = DayTable(["H1"], [dt.date(2020, 1, 1)], np.ones((1, 24)))
    with pytest.raises(ValueError, match="unknown meter schema"):
        write_meter_corpus(days, path, "bogus")
    assert path.read_text() == "kept\n"


def _quoted_table(n):
    """A shape table of ``n`` rows whose ids csv must quote."""
    ids = np.array([["plain", "a,b", 'say "hi"', "two\nlines"][i % 4] for i in range(n)],
                   dtype=object)
    dates = np.array([dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(n)],
                     dtype=object)
    values = np.random.default_rng(n).random((n, 24))
    return ShapeTable(values / values.sum(axis=1, keepdims=True), ids, dates,
                      np.arange(n) / 7, np.arange(n) / 9)


@pytest.fixture
def forks(monkeypatch):
    """Block size 3, and the pids of the children ``os.fork`` starts."""
    monkeypatch.setattr(ingest, "CSV_BLOCK_ROWS", 3)
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_no_child_and_no_part(tmp_path):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not list(tmp_path.glob("*.part*"))


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 5, 6, 8, 9, 40])
def test_keyed_table_shards_fork_from_two_blocks_with_the_same_bytes(n, workers, forks,
                                                                    tmp_path):
    table = _quoted_table(n)
    table.write_csv(tmp_path / "one.csv")
    assert forks == []
    table.write_csv(tmp_path / "sharded.csv", workers=workers)
    # every range has at least one block of rows: 6 rows fork one child
    assert len(forks) == max(0, min(workers, n // 3) - 1)
    assert (tmp_path / "sharded.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.csv", "sharded.csv"]
    assert_no_child_and_no_part(tmp_path)


def test_keyed_table_writes_in_one_process_without_fork(forks, monkeypatch, tmp_path):
    table = _quoted_table(20)
    table.write_csv(tmp_path / "one.csv")
    monkeypatch.delattr(os, "fork")
    table.write_csv(tmp_path / "sharded.csv", workers=3)
    assert (tmp_path / "sharded.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def test_keyed_table_writes_in_one_process_beside_another_thread(forks, tmp_path):
    table = _quoted_table(20)
    table.write_csv(tmp_path / "one.csv")
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        table.write_csv(tmp_path / "sharded.csv", workers=3)
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert forks == []
    assert (tmp_path / "sharded.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


def _raise():
    raise RuntimeError("formatting failed")


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("fail", [_raise, _kill_self])
def test_a_failed_shard_child_fails_the_write_and_leaves_nothing(fail, forks, monkeypatch,
                                                                 tmp_path):
    real = ingest.KeyedTable._csv_blocks

    def blocks(self, lo, hi, *columns):
        if lo:  # a child's range
            fail()
        return real(self, lo, hi, *columns)

    monkeypatch.setattr(ingest.KeyedTable, "_csv_blocks", blocks)
    path = tmp_path / "shapes.csv"
    message = f"{path}: the process formatting rows 10 to 20 failed"
    with pytest.raises(OSError, match=re.escape(message)):
        _quoted_table(20).write_csv(path, workers=2)
    assert len(forks) == 1
    assert_no_child_and_no_part(tmp_path)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_write_that_raises_after_forking_kills_and_reaps_its_children(error, forks,
                                                                        monkeypatch, tmp_path):
    def blocks(self, lo, hi, *columns):
        # the children are still formatting when this process fails
        time.sleep(60 if lo else 0.2)
        raise error("parent failed")

    monkeypatch.setattr(ingest.KeyedTable, "_csv_blocks", blocks)
    start = time.monotonic()
    with pytest.raises(error, match="parent failed"):
        _quoted_table(30).write_csv(tmp_path / "shapes.csv", workers=3)
    assert time.monotonic() - start < 30  # the sleeping children were killed
    assert len(forks) == 2
    for pid in forks:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert_no_child_and_no_part(tmp_path)


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
