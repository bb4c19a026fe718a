"""Parsing and validation of the three input corpora.

Readers are single-pass and stateless. Each returns ``(records, diagnostics)``
where diagnostics is a list of :class:`Diagnostic` describing rejected rows or
cells that were marked missing; the meter readers' records are one
:class:`DayTable` and the survey reader's one :class:`Survey`. Hard schema
problems (unreadable file, header mismatch, duplicate keys) raise instead.

File formats are UTF-8 CSV with ISO-8601 dates:

* wide meter schema:  ``household_id,date,h1..h24``
* long meter schema:  ``household_id,date,hour,kwh``
* weather:            ``date,avg_temp_f``
* survey:             ``household_id,<indicator columns>``

A missing or malformed hourly cell becomes a NaN slot, never 0.0.

The keyed-table base of the per-day tables, and the CSV and JSON helpers
that the artifact writers and readers of the other modules share, live
here too.
"""

from __future__ import annotations

import array
import contextlib
import csv
import datetime as dt
import functools
import hashlib
import io
import json
import math
import mmap
import operator
import os
import pickle
import re
import shutil
import signal
import tempfile
import threading
import warnings
from dataclasses import dataclass, is_dataclass
from types import MappingProxyType

import numpy as np

from .errors import (
    CorruptArtifactError,
    DuplicateRecordError,
    HeaderMismatchError,
    MalformedInputError,
    UnknownIndicatorError,
    VersionMismatchError,
)

HOURS_PER_DAY = 24

# Rows per block in the keyed-table and meter CSV writers: each block is
# formatted with one join and written with one write, so the per-cell work
# stays in C without a whole-table string in memory.
CSV_BLOCK_ROWS = 256

# Wide meter files from this size up are parsed in two processes. On a
# 2-vCPU host a fork and wait took 1.5 ms, and two processes against one
# 4.9 against 4.7 ms at 238 kB and 7.5 against 9.2 ms at 476 kB; a larger
# process forks more slowly, so the bound is about twice the break-even.
FORK_MIN_BYTES = 512 * 1024

WIDE_HEADER = ["household_id", "date"] + [f"h{i}" for i in range(1, 25)]
LONG_HEADER = ["household_id", "date", "hour", "kwh"]
WEATHER_HEADER = ["date", "avg_temp_f"]

# Closed vocabulary of binary survey indicators.
INDICATOR_VOCABULARY = (
    "low_income",
    "chronically_ill",
    "elderly",
    "children_in_home",
    "college_degree",
    "work_full_time",
    "work_from_home",
    "single_family_home",
    "electric_dryer",
    "central_ac",
    "room_ac",
    "programmable_thermostat",
)


@dataclass(frozen=True)
class Diagnostic:
    """Row-numbered note about a rejected row or a missing-marked cell."""

    row: int
    message: str


@contextlib.contextmanager
def _forked(wanted: int, tmpdir=None, group: bool = False):
    """Run the ``with`` block here and in ``shards - 1`` forked children:
    ``shards`` is ``wanted`` where ``os.fork`` exists and no other thread
    runs (a child could inherit a lock it holds), else 1. Yields ``(shard,
    shards, results)``. The i-th child gets i and an anonymous temp file in
    ``tmpdir`` for its results, and ends with ``os._exit`` with the block
    (1 if it raised). This process gets 0 and, per child in order, its exit
    code once it has ended and its rewound file; a child it has not waited
    for when the block ends is killed. With ``group``, each child leads a
    process group of its own and is killed with all it forked.

    A caller that enters it through a ``contextlib.ExitStack`` and closes
    the stack later (as the pipeline's background ``shapes.csv`` write
    does) has its children run beside its own code until then."""
    shards = wanted if hasattr(os, "fork") and threading.active_count() == 1 else 1
    files = [tempfile.TemporaryFile(dir=tmpdir) for _ in range(shards - 1)]
    pids, shard = [], 0  # the unreaped children in order; this process's shard

    def exit_codes():
        for file in files:
            status = os.waitpid(pids[0], 0)[1]
            del pids[0]
            file.seek(0)
            yield os.waitstatus_to_exitcode(status), file

    try:
        if shards > 1:
            # no signal may land between a fork and the code that owns the child
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            try:
                for i in range(1, shards):
                    if not (pid := os.fork()):
                        shard = i
                        break
                    pids.append(pid)
                    if group:  # here and in the child, whichever runs first
                        with contextlib.suppress(OSError):
                            os.setpgid(pid, pid)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        if shard:  # never returns to the caller's code
            failed = True
            try:
                if group:
                    os.setpgid(0, 0)
                yield shard, shards, files[shard - 1]
                files[shard - 1].close()  # flushed, if the block did not close it
                failed = False
            finally:
                os._exit(1 if failed else 0)
        yield 0, shards, exit_codes()
    finally:
        for pid in pids:  # not yet reaped: this process raised or did not wait
            with contextlib.suppress(ProcessLookupError):  # a group that never formed
                (os.killpg if group else os.kill)(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
        for file in files:
            file.close()


class KeyedTable:
    """Columns with one row per household-day, keyed by the object arrays
    ``household_ids`` (str) and ``dates`` (``datetime.date``).

    A subclass lists its other columns in ``COLUMNS`` as ``(attribute,
    kind, cells)``; each is also a constructor argument of that name, which
    may be given by position after the keys, in ``COLUMNS`` order.
    ``kind``, ``int`` or ``float``, is the column's dtype and parses its
    cells. ``cells`` names the column's cells in the table's CSV file after
    the keys: one for a vector, one per column of an (N, len(cells))
    matrix (the constructor rejects another shape), none for a column the
    file does not hold, which is NaN when left out or None. Every instance
    attribute is a column.

    A table with a file of its own publishes ``_write_csv`` as its
    ``write_csv`` and reads through ``_parse_csv``.
    """

    COLUMNS: tuple = ()

    def __init_subclass__(cls):
        cls.HEADER = ["household_id", "date", *(c for _, _, cells in cls.COLUMNS for c in cells)]

    def __init__(self, household_ids, dates, *values, **columns):
        names = [name for name, _, _ in self.COLUMNS][:len(values)]
        columns.update(zip(names, values, strict=True))  # more values than columns: ValueError
        self.household_ids = np.ascontiguousarray(household_ids, dtype=object)
        self.dates = np.ascontiguousarray(dates, dtype=object)
        for name, kind, cells in self.COLUMNS:
            if not cells and columns.get(name) is None:
                columns[name] = np.full(len(self.household_ids), np.nan)
            column = np.ascontiguousarray(columns[name], dtype=kind)
            if len(cells) > 1 and (column.ndim != 2 or column.shape[1] != len(cells)):
                raise ValueError(f"{name}: expected shape (N, {len(cells)}), got {column.shape}")
            setattr(self, name, column)
        if len({len(column) for column in vars(self).values()}) > 1:
            raise ValueError("column lengths differ")

    def __len__(self) -> int:
        return len(self.household_ids)

    def take(self, indices):
        """A table of copies of the rows at ``indices`` (positions or a mask)."""
        idx = np.asarray(indices)
        if not idx.size:  # np.asarray([]) is float64, which cannot index
            idx = idx.astype(np.intp)
        return type(self)(**{name: column[idx] for name, column in vars(self).items()})

    def _csv_blocks(self, lo, hi, *columns):
        """Yield ``(keys, *columns)`` per block of up to ``CSV_BLOCK_ROWS``
        rows of the rows ``lo`` to ``hi`` (exclusive) of the table and of
        the row-aligned arrays ``columns``.

        ``keys`` holds each row's ``household_id,date`` text as ``csv.writer``
        writes it: every distinct id goes through ``csv.writer`` once, so ids
        with a comma, quote, CR or LF are quoted as csv quotes them, and
        every distinct date is ``isoformat``-ed once. Each column comes as
        the block's ``.tolist()``.
        """
        @functools.cache
        def id_text(household_id) -> str:
            buffer = io.StringIO()
            # the default line end: csv quotes a field holding any of its characters
            csv.writer(buffer).writerow([household_id, ""])
            return buffer.getvalue()[:-len(",\r\n")]

        date_text = functools.cache(dt.date.isoformat)
        for start in range(lo, hi, CSV_BLOCK_ROWS):
            stop = min(start + CSV_BLOCK_ROWS, hi)
            keys = [f"{id_text(hid)},{date_text(date)}"
                    for hid, date in zip(self.household_ids[start:stop], self.dates[start:stop])]
            yield (keys, *(column[start:stop].tolist() for column in columns))

    def _write_shards(self, workers: int) -> int:
        """How many processes ``_write_csv`` formats the table with: up to
        ``workers``, each with a range of at least ``CSV_BLOCK_ROWS`` rows."""
        return max(1, min(workers, len(self) // CSV_BLOCK_ROWS))

    def _write_csv(self, path, workers: int = 1) -> None:
        """Write the table to the CSV file ``path``, byte for byte as
        ``csv.writer`` writes rows of the id, the ISO date and the ``repr``
        of each number, a block of ``CSV_BLOCK_ROWS`` rows at a time; in a
        cell column that holds NaN, a NaN is an empty cell.

        Every line depends on its own row only, so up to ``workers``
        ``_forked`` processes format contiguous ranges of at least
        ``CSV_BLOCK_ROWS`` rows each, the children into temp files in the
        directory of ``path``, which this process appends in row order after
        the header and the first range; the bytes do not depend on the
        split. A child that fails makes the call raise OSError naming ``path``.
        """
        vectors = []  # one per cell of a data row after the keys
        for name, _, cells in self.COLUMNS:
            if cells:
                column = getattr(self, name)
                vectors += list(column.T) if column.ndim == 2 else [column]
        texts = [_repr_or_empty if np.isnan(vector).any() else repr for vector in vectors]
        n = len(self)
        with _forked(self._write_shards(workers),
                     os.path.dirname(os.path.abspath(path))) as (shard, shards, parts):
            bounds = [n * i // shards for i in range(shards + 1)]
            with (io.TextIOWrapper(parts, encoding="utf-8", newline="") if shard else
                  open(path, "w", newline="", encoding="utf-8")) as fh:
                if not shard:
                    csv.writer(fh).writerow(self.HEADER)
                for keys, *block in self._csv_blocks(*bounds[shard:shard + 2], *vectors):
                    lines = zip(keys, *map(map, texts, block))
                    fh.write("\r\n".join(map(",".join, lines)) + "\r\n")
                fh.flush()
                for i, (code, part) in enumerate(() if shard else parts, start=1):
                    if code:
                        raise OSError(f"{path}: the process formatting rows {bounds[i]} "
                                      f"to {bounds[i + 1]} failed (exit code {code})")
                    shutil.copyfileobj(part, fh.buffer)

    @classmethod
    def _parse_csv(cls, path):
        """The table in the CSV file ``path``; a damaged file raises
        CorruptArtifactError naming it and, where there is one, the data row."""
        parsers = [str, dt.date.fromisoformat,
                   *(kind for _, kind, cells in cls.COLUMNS for _ in cells)]
        parsed = []  # the cells of every data row, row after row
        with _artifact_rows(path, cls.HEADER) as rows:
            for row in rows:
                parsed += map(operator.call, parsers, row)
        by_cell = np.array(parsed, dtype=object).reshape(-1, len(parsers)).T
        columns, start = {}, 2
        for name, _, cells in cls.COLUMNS:
            if cells:
                stop = start + len(cells)
                columns[name] = by_cell[start] if len(cells) == 1 else by_cell[start:stop].T
                start = stop
        return cls(household_ids=by_cell[0], dates=by_cell[1], **columns)


class DayTable(KeyedTable):
    """Household-days as columns, one row per day.

    ``kwh[i, t-1]`` holds slot t of day i, covering clock hour [t-1, t);
    slot 1 is midnight to 1am. Missing readings are NaN. Meter files are
    written by ``write_meter_corpus`` and read by ``read_meter_corpus``.
    """

    COLUMNS = (("kwh", float, WIDE_HEADER[2:]),)


@dataclass(frozen=True)
class WeatherDay:
    date: dt.date
    avg_temp_f: float


class Survey:
    """Survey answers as columns: ``household_ids`` (str objects) and
    ``indicators``, an (N, 12) int8 matrix in ``INDICATOR_VOCABULARY``
    order of 1 (true), 0 (false) or -1 (unknown), one row per household."""

    def __init__(self, household_ids, indicators):
        self.household_ids = np.asarray(household_ids, dtype=object)
        self.indicators = np.asarray(indicators, dtype=np.int8)
        if self.indicators.shape != (len(self.household_ids), len(INDICATOR_VOCABULARY)):
            raise ValueError(f"indicators: expected shape (N, 12), got {self.indicators.shape}")

    def __len__(self) -> int:
        return len(self.household_ids)

    def flags(self, indicator: str) -> list:
        """The ``indicator`` column as a list; UnknownIndicatorError outside the vocabulary."""
        if indicator not in INDICATOR_VOCABULARY:
            raise UnknownIndicatorError(
                f"unknown indicator '{indicator}'; allowed: {list(INDICATOR_VOCABULARY)}")
        return self.indicators[:, INDICATOR_VOCABULARY.index(indicator)].tolist()


_MONTH_SEASON = {
    12: "winter", 1: "winter", 2: "winter",
    3: "spring", 4: "spring", 5: "spring",
    6: "summer", 7: "summer", 8: "summer",
    9: "autumn", 10: "autumn", 11: "autumn",
}

SEASONS = ("summer", "autumn", "winter", "spring")
DAY_TYPES = ("weekday", "weekend")

_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()
# label arrays index these, so all rows share one str object per label
_SEASON_OF_MONTH0 = np.array([_MONTH_SEASON[m] for m in range(1, 13)], dtype=object)
_DAY_TYPE_OF_WEEKEND = np.array(DAY_TYPES, dtype=object)


def day_numbers(dates) -> np.ndarray:
    """int64 days since 1970-01-01 of a sequence of dates."""
    ordinals = np.fromiter((d.toordinal() for d in dates), dtype=np.int64,
                           count=len(dates))
    return ordinals - _EPOCH_ORDINAL


class SeasonCalendar:
    """Meteorological seasons and weekday/weekend labels for any date.

    Summer is Jun-Aug, autumn Sep-Nov, winter Dec-Feb, spring Mar-May.
    Weekend is Saturday/Sunday; holidays are not special-cased.
    """

    @staticmethod
    def season(date: dt.date) -> str:
        return _MONTH_SEASON[date.month]

    @staticmethod
    def day_labels(days: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(season, day_type) object arrays for ``day_numbers`` output."""
        months = days.astype("datetime64[D]").astype("datetime64[M]")
        month0 = months.astype(np.int64) % 12  # months since 1970-01
        weekend = (days + 3) % 7 >= 5  # 1970-01-01 was a Thursday
        return _SEASON_OF_MONTH0[month0], _DAY_TYPE_OF_WEEKEND[weekend.astype(np.intp)]


def _repr_or_empty(value: float) -> str:
    """A number's cell: its ``repr``, or empty for NaN."""
    return "" if value != value else repr(value)


def _parse_kwh_cell(cell: str, row_no: int, label: str, diagnostics: list) -> float:
    """Parse one hourly reading; malformed or negative -> NaN with a note."""
    text = cell.strip()
    if text == "":
        return np.nan
    try:
        value = float(text)
    except ValueError:
        diagnostics.append(
            Diagnostic(row_no, f"{label}: non-numeric reading '{text}' marked missing")
        )
        return np.nan
    if not np.isfinite(value) or value < 0:
        diagnostics.append(
            Diagnostic(row_no, f"{label}: invalid reading {text} marked missing")
        )
        return np.nan
    return value


def _write_table(path, header, rows, provenance=None) -> None:
    """Write ``header`` and ``rows`` to the CSV file ``path`` through one
    ``csv.writer``, after a ``# <provenance JSON>`` line if ``provenance``
    is given."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if provenance is not None:
            fh.write("# " + json.dumps(provenance, sort_keys=True, default=str) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class _Range(io.FileIO):
    """Bytes ``[start, stop)`` of a file (to its end without ``stop``), unbuffered."""

    def __init__(self, path, start: int, stop=None):
        super().__init__(path)
        self.left = (os.fstat(self.fileno()).st_size if stop is None else stop) - self.seek(start)

    def read(self, size=-1) -> bytes:
        data = super().read(self.left if size < 0 else min(size, self.left))
        self.left -= len(data)
        return data


def _csv_rows(path, error, start=0, stop=None, first=1):
    """Yield ``(row_no, cells)`` for the CSV rows in bytes ``[start, stop)``
    of the UTF-8 file ``path``, numbered from ``first``; a range starts and
    stops where a row does. The first row that holds a byte that is not
    UTF-8 or that csv cannot split raises ``error(row_no, message)``: as
    decoding runs 8 kB ahead of csv, only a failure reads the range again,
    each bad byte decoded as a lone surrogate, to find that row."""
    def text(errors):
        return io.TextIOWrapper(_Range(path, start, stop), "utf-8", errors, newline="")

    try:
        with text("strict") as lines:
            yield from enumerate(csv.reader(lines), start=first)
    except (UnicodeDecodeError, csv.Error):
        row_no = first - 1
        try:
            with text("surrogateescape") as lines:
                for row_no, cells in enumerate(csv.reader(lines), start=first):
                    if bad := re.search("[\udc80-\udcff]", ",".join(cells)):
                        byte = ord(bad[0]) - 0xdc00
                        raise error(row_no, f"byte {byte:#x} is not UTF-8") from None
        except csv.Error as exc:
            raise error(row_no + 1, exc) from None
        raise  # the file changed between the two reads


def _data_rows(path, rows, width: int, width_note: str, diagnostics: list, date_col=None):
    """Yield ``(row_no, row, date)`` for the data rows among the ``_csv_rows``
    pairs ``rows`` of the input CSV ``path``.

    Blank rows are skipped. A row without ``width`` cells, or without an ISO
    date in column ``date_col`` when one is given, gets a diagnostic
    (``width_note`` or the bad date) and is skipped; ``date`` is the parsed
    date, or None without ``date_col``. A row without ``width`` cells that
    holds a line break, where a stray quote took the rows after it into one
    field, raises MalformedInputError at the quote's row instead.
    """
    date = None
    for row_no, row in rows:
        if not row:
            continue
        if len(row) != width:
            if any("\n" in cell or "\r" in cell for cell in row):
                raise MalformedInputError(
                    path, row_no, f"a quote opens a field that runs across lines ({width_note})")
            diagnostics.append(Diagnostic(row_no, width_note))
            continue
        if date_col is not None:
            try:
                date = dt.date.fromisoformat(row[date_col].strip())
            except ValueError:
                diagnostics.append(Diagnostic(row_no, f"bad date '{row[date_col]}'"))
                continue
        yield row_no, row, date


def _input_rows(path, header: list[str], stop=None):
    """The ``_csv_rows`` pairs after the header of the input CSV ``path``
    (before byte ``stop`` if given); an empty file or a header other than
    ``header`` (cells stripped) raises HeaderMismatchError."""
    rows = _csv_rows(path, functools.partial(MalformedInputError, path), stop=stop)
    _, actual = next(rows, (1, None))
    if actual is None:
        raise HeaderMismatchError(f"{path}: file is empty, expected header {header}")
    if [c.strip() for c in actual] != header:
        raise HeaderMismatchError(
            f"{path}: header {actual} does not match schema {header}"
        )
    return rows


@contextlib.contextmanager
def _artifact_rows(path, header: list[str]):
    """Yield an iterator over the data rows of the CSV artifact ``path``,
    each checked to hold one cell per ``header`` column.

    A missing or different header, a row with another cell count, and a
    ``ValueError`` (a bad date or number) raised by the ``with`` block while
    it parses a row become a CorruptArtifactError naming the file and the
    1-based data row.
    """
    def error(row_no, message):
        where = f"data row {row_no}" if row_no else "header"
        return CorruptArtifactError(f"{path}: {where}: {message}")

    rows = _csv_rows(path, error, first=0)
    _, actual = next(rows, (0, None))
    if actual is None:
        raise CorruptArtifactError(f"{path}: no header, expected {header}")
    if actual != header:
        raise CorruptArtifactError(f"{path}: header {actual}, expected {header}")
    row_no = 0

    def checked():
        nonlocal row_no
        for row_no, row in rows:
            if len(row) != len(header):
                raise error(row_no, f"expected {len(header)} cells, got {len(row)}")
            yield row

    try:
        yield checked()
    except ValueError as exc:
        raise error(row_no, exc) from exc


def _read_json(path) -> dict:
    """The JSON object in the artifact ``path``; a file that does not parse
    as one raises CorruptArtifactError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise CorruptArtifactError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise CorruptArtifactError(f"{path}: not a JSON object")
    return payload


def _json_digest(payload) -> str:
    """The sha256 of ``payload`` as compact, key-sorted JSON."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _json_array(payload, key: str, dtype, ndim: int) -> np.ndarray:
    """``payload[key]`` as an ``ndim``-D array of JSON integers or numbers, not bools."""
    try:
        array = np.asarray(payload[key], dtype=dtype)
        cells = np.asarray(payload[key], dtype=object).ravel().tolist()
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"'{key}': {exc}") from exc
    kinds, name = ((int,), "integer") if dtype is np.int64 else ((int, float), "number")
    wrong = [cell for cell in cells if type(cell) not in kinds]
    if wrong:
        raise ValueError(f"'{key}' holds {wrong[0]!r}, not a JSON {name}")
    if array.ndim != ndim:
        raise ValueError(f"'{key}' has {array.ndim} dimensions, not {ndim}")
    return array


@contextlib.contextmanager
def _centroid_json(path, kind: str, version: int):
    """Yield the JSON object in the ``kind`` artifact ``path`` with its
    ``ids`` and (len(ids), 24) ``centroids`` arrays. A schema other than
    ``version`` raises VersionMismatchError; a missing key, or a TypeError or
    ValueError raised here or in the ``with`` block while it reads the object,
    becomes a CorruptArtifactError naming the file."""
    payload = _read_json(path)
    found = payload.get("schema_version")
    if found != version:
        raise VersionMismatchError(f"{path}: {kind} schema {found}, supported {version}")
    try:
        ids = _json_array(payload, "ids", np.int64, 1)
        centroids = _json_array(payload, "centroids", float, 2)
        if centroids.shape != (len(ids), HOURS_PER_DAY):
            raise ValueError(f"centroids of shape {centroids.shape} for {len(ids)} ids")
        yield payload, ids, centroids
    except KeyError as exc:
        raise CorruptArtifactError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CorruptArtifactError(f"{path}: malformed value ({exc})") from exc


def _write_json(path, payload) -> None:
    """Write ``payload`` to ``path`` as indented, key-sorted JSON, a
    read-only mapping as a dict. The file is replaced in one step: a failed
    write leaves the previous file whole."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True, default=dict)
            fh.write("\n")
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def _frozen(value):
    """``value`` made read-only, the one rule for objects stages share: an
    array is flagged read-only, a dict made a read-only mapping, a list or
    tuple a tuple, item by item, and another object with attributes (a keyed
    table, model or dictionary) frozen attribute by attribute, in place; a
    frozen dataclass record is read-only already and returned as it is."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, dict):
        return MappingProxyType({key: _frozen(item) for key, item in value.items()})
    elif isinstance(value, (list, tuple)):
        return tuple(map(_frozen, value))
    elif hasattr(value, "__dict__") and not (
            is_dataclass(value) and value.__dataclass_params__.frozen):
        for name, item in vars(value).items():
            setattr(value, name, _frozen(item))
    return value


def read_meter_corpus(path, schema: str = "wide", workers: int = 1):
    """Read hourly meter readings into a :class:`DayTable`.

    Returns ``(days, diagnostics)``. Raises on unreadable file, header
    mismatch, or duplicate (household_id, date) keys. ``workers`` bounds
    the processes that parse a wide file; the table, the diagnostics and
    any error do not depend on it.
    """
    if schema == "wide":
        return _read_meter_wide(path, workers)
    if schema == "long":
        return _read_meter_long(path)
    raise ValueError(f"unknown meter schema '{schema}' (expected wide|long)")


def _wide_days(path, rows, seen: set, diagnostics: list, days) -> int:
    """Append the ids, dates and 24 readings of each data row it keeps of
    the wide file's ``_csv_rows`` pairs ``rows`` to the columns ``days``; a
    key already in ``seen``, to which each is added, raises. Returns the
    number of the last of ``rows``, or 1, the header's, if there is none."""
    last = 1
    rows = ((last := row_no, cells) for row_no, cells in rows)  # each sets last as it is read
    household_ids, dates, readings = days
    for row_no, row, date in _data_rows(path, rows, len(WIDE_HEADER),
                                        "expected 24 hourly columns", diagnostics, date_col=1):
        household_id = row[0].strip()
        key = (household_id, date)
        if key in seen:
            raise DuplicateRecordError(
                f"{path}:{row_no}: duplicate (household_id, date) {key}"
            )
        seen.add(key)
        # Whole-row fast path; any empty, malformed, negative or
        # non-finite cell sends the row through the per-cell parser,
        # which marks it missing and writes the diagnostics. A NaN
        # after the first cell can hide from min, never from sum.
        try:
            kwh = list(map(float, row[2:]))
            clean = math.isfinite(sum(kwh)) and min(kwh) >= 0.0
        except ValueError:
            clean = False
        if not clean:
            kwh = [
                _parse_kwh_cell(row[2 + t], row_no, f"h{t + 1}", diagnostics)
                for t in range(HOURS_PER_DAY)
            ]
        household_ids.append(household_id)
        dates.append(date)
        readings.extend(kwh)
    return last


def _read_meter_wide(path, workers: int = 1):
    """With ``workers`` > 1, a file of ``FORK_MIN_BYTES`` or more with no
    ``"`` in its first half is parsed in two ranges, the second in a forked
    child; this process reads the second itself, numbering on from its own
    rows, if the child fails or a key of the second range is in the first."""
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        fh.seek(size // 2)
        fh.readline()
        split = fh.tell()
        wanted = 2 if workers > 1 and size >= FORK_MIN_BYTES and split < size else 1
        if wanted > 1:  # a quote could open a field across the split: one C scan, no copy
            with mmap.mmap(fh.fileno(), split, access=mmap.ACCESS_READ) as first:
                wanted = 1 if first.find(b'"') >= 0 else 2
    days = ([], [], array.array("d"))  # ids, dates, every day's 24 readings
    diagnostics: list[Diagnostic] = []
    seen: set[tuple[str, dt.date]] = set()
    error = functools.partial(MalformedInputError, path)
    with _forked(wanted) as (shard, shards, results):
        if shard:
            _wide_days(path, _csv_rows(path, error, split), seen, diagnostics, days)
            shared = {}  # one object per distinct id and date: pickled once, loaded once
            pickle.dump(([[shared.setdefault(v, v) for v in column] for column in days[:2]],
                         diagnostics), results)
            days[2].tofile(results)
        else:
            last = _wide_days(path, _input_rows(path, WIDE_HEADER, split if shards > 1 else None),
                              seen, diagnostics, days)
            for code, part in results:  # the child's, if one was forked
                more, notes = pickle.load(part) if code == 0 else (None, None)
                if more and seen.isdisjoint(zip(*more)):
                    for column, tail in zip(days, more):
                        column.extend(tail)
                    while block := part.read(1 << 16):  # no second copy of them all
                        days[2].frombytes(block)
                    diagnostics.extend(Diagnostic(last + d.row, d.message) for d in notes)
                else:
                    _wide_days(path, _csv_rows(path, error, split, first=last + 1),
                               seen, diagnostics, days)
    household_ids, dates, readings = days
    kwh = np.frombuffer(readings, dtype=float).reshape(-1, HOURS_PER_DAY)
    return DayTable(household_ids, dates, kwh), diagnostics


def _read_meter_long(path):
    diagnostics: list[Diagnostic] = []
    slots: dict[tuple[str, dt.date], np.ndarray] = {}
    filled: set[tuple[str, dt.date, int]] = set()
    rows = _data_rows(path, _input_rows(path, LONG_HEADER), len(LONG_HEADER),
                      f"expected {len(LONG_HEADER)} columns", diagnostics, date_col=1)
    for row_no, row, date in rows:
        household_id = row[0].strip()
        try:
            hour = int(row[2])
        except ValueError:
            diagnostics.append(Diagnostic(row_no, f"bad hour '{row[2]}'"))
            continue
        if not 1 <= hour <= HOURS_PER_DAY:
            diagnostics.append(Diagnostic(row_no, f"hour {hour} outside 1..24"))
            continue
        triple = (household_id, date, hour)
        if triple in filled:
            raise DuplicateRecordError(
                f"{path}:{row_no}: duplicate (household_id, date, hour) {triple}"
            )
        filled.add(triple)
        key = (household_id, date)
        if key not in slots:
            slots[key] = np.full(HOURS_PER_DAY, np.nan)
        slots[key][hour - 1] = _parse_kwh_cell(
            row[3], row_no, f"hour {hour}", diagnostics
        )
    days = DayTable(
        [hid for hid, _ in slots],
        [date for _, date in slots],
        np.array(list(slots.values())).reshape(-1, HOURS_PER_DAY),
    )
    return days, diagnostics


def write_meter_corpus(days: DayTable, path, schema: str = "wide") -> None:
    """Write a :class:`DayTable` to CSV (round-trip counterpart of the
    readers): the wide schema through the keyed-table writer, the long one
    a block of ``CSV_BLOCK_ROWS`` days at a time.

    Readings are written as the ``repr`` of Python floats (shortest text that
    parses back to the same double); missing (NaN) readings as empty cells.
    """
    if schema == "wide":
        days._write_csv(path)
    elif schema == "long":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(LONG_HEADER)
            for block in days._csv_blocks(0, len(days), days.kwh):
                fh.write("".join([
                    f"{key},{t},{'' if v != v else repr(v)}\r\n"
                    for key, kwh in zip(*block)
                    for t, v in enumerate(kwh, start=1)
                ]))
    else:
        raise ValueError(f"unknown meter schema '{schema}'")


def read_weather(path):
    """Read daily average temperatures. Returns (weather_days, diagnostics)."""
    records: list[WeatherDay] = []
    diagnostics: list[Diagnostic] = []
    seen: set[dt.date] = set()
    rows = _data_rows(path, _input_rows(path, WEATHER_HEADER), len(WEATHER_HEADER),
                      "expected 2 columns", diagnostics, date_col=0)
    for row_no, row, date in rows:
        try:
            temp = float(row[1])
        except ValueError:
            diagnostics.append(
                Diagnostic(row_no, f"non-numeric temperature '{row[1]}'")
            )
            continue
        if not np.isfinite(temp):
            diagnostics.append(Diagnostic(row_no, f"non-finite temperature {temp}"))
            continue
        if date in seen:
            raise DuplicateRecordError(f"{path}:{row_no}: duplicate date {date}")
        seen.add(date)
        records.append(WeatherDay(date, temp))
    if not records:
        warnings.warn(f"{path}: weather file contains no usable records")
    return records, diagnostics


def write_weather(records, path) -> None:
    _write_table(path, WEATHER_HEADER,
                 ([rec.date.isoformat(), repr(float(rec.avg_temp_f))] for rec in records))


def read_survey(path):
    """Read household survey indicators. Returns (:class:`Survey`, diagnostics).

    Header columns after household_id must come from the closed indicator
    vocabulary; cells are 1 (true), 0 (false), or empty (unknown).
    """
    flags_of: dict[str, dict[str, int]] = {}  # in file order
    diagnostics: list[Diagnostic] = []
    rows = _csv_rows(path, functools.partial(MalformedInputError, path))
    _, header = next(rows, (1, None))
    if not header or header[0].strip() != "household_id":
        raise HeaderMismatchError(
            f"{path}: survey header must start with 'household_id'"
        )
    columns = [c.strip() for c in header[1:]]
    unknown = [c for c in columns if c not in INDICATOR_VOCABULARY]
    if unknown:
        raise UnknownIndicatorError(
            f"{path}: unknown indicator column(s) {unknown}; "
            f"allowed: {list(INDICATOR_VOCABULARY)}"
        )
    repeated = sorted({c for c in columns if columns.count(c) > 1})
    if repeated:
        raise HeaderMismatchError(f"{path}: survey header repeats column(s) {repeated}")
    width = len(columns) + 1
    for row_no, row, _ in _data_rows(path, rows, width, f"expected {width} columns",
                                     diagnostics):
        household_id = row[0].strip()
        if household_id in flags_of:
            raise DuplicateRecordError(
                f"{path}:{row_no}: duplicate household_id '{household_id}'"
            )
        flags = flags_of[household_id] = dict.fromkeys(INDICATOR_VOCABULARY, -1)
        for col, cell in zip(columns, row[1:]):
            text = cell.strip()
            if text in ("0", "1"):
                flags[col] = int(text)
            elif text:
                diagnostics.append(
                    Diagnostic(
                        row_no,
                        f"{col}: cell '{text}' not in {{0,1,empty}}, treated as unknown",
                    )
                )
    indicators = np.array([list(flags.values()) for flags in flags_of.values()], dtype=np.int8)
    return Survey(list(flags_of), indicators.reshape(-1, len(INDICATOR_VOCABULARY))), diagnostics


def write_survey(survey: Survey, path) -> None:
    """Write every indicator of the vocabulary: 1, 0, or empty if unknown."""
    cells = np.array(["", "0", "1"], dtype=object)[survey.indicators + 1]
    _write_table(path, ["household_id", *INDICATOR_VOCABULARY],
                 ([hid, *row] for hid, row in zip(survey.household_ids.tolist(), cells.tolist())))
