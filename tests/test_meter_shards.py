"""The wide meter read in two forked byte ranges against the one-process read.

``FORK_MIN_BYTES`` is patched to 1, so every file whose middle byte is not
in its last line is split there. Each case compares ``read_meter_corpus(path,
workers=2)`` with ``read_meter_corpus(path)``: the ids, the dates, the kWh
bytes (NaN included) and the diagnostics, or the exception's type and text.
After every call no child is left to reap and the temp directory is empty.
"""

import datetime as dt
import os
import signal
import tempfile
import time

import pytest
from test_writers import forks as writer_forks  # noqa: F401  (a fixture: forked pids)

from loadshapes import ingest
from loadshapes.errors import DuplicateRecordError, MalformedInputError
from loadshapes.ingest import WIDE_HEADER, read_meter_corpus

# 450-byte rows: the file is far longer than the 8 kB that a text file
# decodes at a time, so a byte late in the second range is decoded by the
# child first
GOOD = ",".join(["0.123456789012345"] * 24)
ROWS = 400  # the first range holds rows 1-200 of these, the second 201-400


def row(i: int, hours: str = GOOD, date=None) -> str:
    """Data row ``i``: each (id, date) key is distinct."""
    return f"H{i % 4},{date or dt.date(2020, 1, 1) + dt.timedelta(days=i)},{hours}"


def defects(first: int) -> dict:
    """Rows from ``first`` on, each with one thing the reader rejects or marks."""
    return {
        first: row(first, ",".join(["abc", "-1", "", "inf"] + ["0.5"] * 20)),
        first + 1: row(first + 1, ",".join(["0.5"] * 23)),
        first + 2: row(first + 2, date="06/03/2020"),
        first + 3: "",
    }


def meter(tmp_path, changes=(), newline="\n", final=True) -> str:
    """A meter file of ``ROWS`` good rows, with the rows in ``changes``
    replaced; returns its path."""
    lines = [",".join(WIDE_HEADER), *(row(i) for i in range(1, ROWS + 1))]
    for i, text in dict(changes).items():
        lines[i] = text
    path = tmp_path / "meter.csv"
    text = newline.join(lines) + (newline if final else "")
    path.write_bytes(text.encode("utf-8", "surrogateescape"))  # a lone surrogate: a bad byte
    return str(path)


def lines_before_split(path) -> int:
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        fh.seek(size // 2)
        fh.readline()
        split = fh.tell()
        fh.seek(0)
        return fh.read(split).count(b"\n")


@pytest.fixture
def forks(writer_forks, monkeypatch, tmp_path):
    """``FORK_MIN_BYTES`` 1, an empty temp directory of its own, and the
    pids of the children ``os.fork`` starts."""
    monkeypatch.setattr(ingest, "FORK_MIN_BYTES", 1)
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    return writer_forks


def outcome(path, **kwargs):
    try:
        days, diagnostics = read_meter_corpus(path, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    finally:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert os.listdir(tempfile.gettempdir()) == []
    return list(days.household_ids), list(days.dates), days.kwh.tobytes(), diagnostics


def assert_same(path, forks, forked=1):
    serial = outcome(path)
    assert forks == []
    assert outcome(path, workers=2) == serial
    assert len(forks) == forked
    return serial


@pytest.mark.parametrize("final", [True, False])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_defects_in_each_range_give_the_serial_diagnostics(newline, final, forks, tmp_path):
    path = meter(tmp_path, {**defects(3), **defects(300)}, newline, final)
    assert 7 < lines_before_split(path) < 300
    ids, _, _, diagnostics = assert_same(path, forks)
    assert len(ids) == ROWS - 6
    assert [d.row for d in diagnostics] == [4, 4, 4, 5, 6, 301, 301, 301, 302, 303]


def test_a_split_on_the_last_line_reads_in_one_process(forks, tmp_path):
    path = meter(tmp_path, {ROWS: row(ROWS).replace("H0", "H" * 500 * ROWS)})
    assert lines_before_split(path) == ROWS + 1
    assert_same(path, forks, forked=0)


def test_a_cr_only_file_reads_in_one_process(forks, tmp_path):
    # no LF to split after; csv ends each row at its CR
    path = meter(tmp_path, {**defects(3), **defects(300)}, newline="\r")
    ids, _, _, diagnostics = assert_same(path, forks, forked=0)
    assert len(ids) == ROWS - 6
    assert [d.row for d in diagnostics] == [4, 4, 4, 5, 6, 301, 301, 301, 302, 303]


def test_a_file_under_the_threshold_reads_in_one_process(forks, monkeypatch, tmp_path):
    path = meter(tmp_path, {**defects(3), **defects(300)})
    monkeypatch.setattr(ingest, "FORK_MIN_BYTES", os.path.getsize(path) + 1)
    assert_same(path, forks, forked=0)


def test_a_system_without_fork_reads_in_one_process(forks, monkeypatch, tmp_path):
    path = meter(tmp_path, {**defects(3), **defects(300)})
    serial = outcome(path)
    monkeypatch.delattr(os, "fork")
    assert outcome(path, workers=2) == serial


def test_a_quoted_newline_in_the_first_range_is_read_on_by_this_process(forks, tmp_path):
    path = meter(tmp_path, {3: row(3).replace("H3", '"H\n3"'), **defects(300)})
    ids, *_ = assert_same(path, forks, forked=0)
    assert "H\n3" in ids


def test_a_quoted_id_in_the_second_range_is_read_by_the_child(forks, tmp_path):
    path = meter(tmp_path, {300: row(300).replace("H0", '"H,0"'), **defects(303)})
    ids, *_ = assert_same(path, forks)
    assert "H,0" in ids


@pytest.mark.parametrize("first, second", [(250, 350), (3, 350), (3, 7)],
                         ids=["in-child", "across", "in-parent"])
def test_a_duplicate_raises_the_serial_error(first, second, forks, tmp_path):
    path = meter(tmp_path, {second: row(first), **defects(10), **defects(260)})
    kind, message = assert_same(path, forks)
    assert kind is DuplicateRecordError
    assert message.startswith(f"{path}:{second + 1}: duplicate")


@pytest.mark.parametrize("at", [5, 390])
def test_a_byte_that_is_not_utf8_raises_the_serial_error(at, forks, tmp_path):
    path = meter(tmp_path, {at: row(at).replace("H", "H\udcff", 1)})
    assert assert_same(path, forks) == (
        MalformedInputError, f"{path}:{at + 1}: byte 0xff is not UTF-8")


def test_a_bad_byte_in_each_range_raises_the_first_ranges_error(forks, tmp_path):
    path = meter(tmp_path, {at: row(at).replace("H", "H\udcff", 1) for at in (5, 390)})
    assert assert_same(path, forks) == (
        MalformedInputError, f"{path}:6: byte 0xff is not UTF-8")


def test_a_stray_quote_raises_the_serial_error(forks, tmp_path):
    # the quote opens a field that runs on past csv's field limit
    path = meter(tmp_path, {5: '"' + row(5), **defects(300)})
    assert assert_same(path, forks, forked=0) == (
        MalformedInputError, f"{path}:6: field larger than field limit (131072)")


def test_a_stray_quote_in_the_second_range_raises_the_serial_error(forks, tmp_path):
    # the quoted field runs on to the end of the file: one row of too few cells
    path = meter(tmp_path, {**defects(3), 300: '"' + row(300)})
    assert assert_same(path, forks) == (
        MalformedInputError, f"{path}:301: a quote opens a field that runs across lines "
        "(expected 24 hourly columns)")


@pytest.mark.parametrize("at", [5, 390])
def test_a_nul_byte_gives_the_serial_outcome(at, forks, tmp_path):
    # csv rejects a NUL before Python 3.11 and reads it since
    assert_same(meter(tmp_path, {at: row(at).replace("H", "H\x00", 1)}), forks)


def _raise():
    raise RuntimeError("parse failed")


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("fail", [_raise, _kill_self])
def test_a_failed_child_leaves_its_range_to_this_process(fail, forks, monkeypatch, tmp_path):
    real, parent = ingest._wide_days, os.getpid()

    def wide_days(*args):
        if os.getpid() != parent:
            fail()
        return real(*args)

    monkeypatch.setattr(ingest, "_wide_days", wide_days)
    assert_same(meter(tmp_path, {**defects(3), **defects(300)}), forks)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_read_that_raises_kills_and_reaps_its_child(error, forks, monkeypatch, tmp_path):
    parent = os.getpid()

    def wide_days(*args):
        if os.getpid() != parent:
            time.sleep(60)  # still parsing when this process fails
        raise error("parse failed")

    monkeypatch.setattr(ingest, "_wide_days", wide_days)
    start = time.monotonic()
    with pytest.raises(error, match="parse failed"):
        read_meter_corpus(meter(tmp_path), workers=2)
    assert time.monotonic() - start < 30  # the sleeping child was killed
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir(tempfile.gettempdir()) == []
