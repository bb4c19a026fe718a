"""Byte mutations of the files of one tiny run, read back by their readers.

Each drawn case damages one file with one to three edits (replace a byte,
delete or insert a few, truncate) and calls the reader of that file: the
four input readers, the five artifact readers (``load_model`` reads
``model.json`` and ``labels.csv``) and ``SyntheticTruth.read_csv``. The
call returns, or raises a LoadShapesError whose message names the damaged
file; for a CSV in the artifact format, ``truth.csv`` included, it also
names the data row or the header, unless it states a fact of the whole
file. The meter file is read by one process and by two, which give the
same outcome.

A second harness damages one artifact in a copy of the run's output
directory and runs the stage command that reads it first. The stage
returns ``ran`` or ``cached``, or raises a StageError that names the file
as above, leaves none of its outputs and has no manifest entry.
"""

import re
import shutil
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loadshapes import ingest
from loadshapes.cluster import load_model
from loadshapes.dictionary import AssignmentTable, load_dictionary
from loadshapes.errors import LoadShapesError, StageError
from loadshapes.ingest import read_meter_corpus, read_survey, read_weather
from loadshapes.pipeline import (
    STAGES,
    Manifest,
    RunConfig,
    run_pipeline,
    stage_analyze,
    stage_assign,
    stage_cluster,
    stage_truncate,
)
from loadshapes.preprocess import CleaningReport, ShapeTable
from loadshapes.synthetic import GeneratorConfig, SyntheticTruth, generate_synthetic

INPUTS = ("meter.csv", "weather.csv", "survey.csv", "truth.csv")  # truth.csv: synth's sidecar
ARTIFACTS = ("shapes.csv", "cleaning_report.csv", "model.json", "labels.csv",
             "dictionary.json", "assignments.csv")
# the files CorruptArtifactError names by data row
ROW_NAMED = ("truth.csv", "shapes.csv", "cleaning_report.csv", "labels.csv", "assignments.csv")

# what a damaged artifact CSV may raise without naming a row
WHOLE_FILE = ("no header", "no count for rule", "tallies do not sum", "row counts differ",
              "label counts disagree", "twice")

# the stage command that reads each artifact first
FIRST_READER = {"shapes.csv": stage_cluster, "model.json": stage_truncate,
                "labels.csv": stage_truncate, "dictionary.json": stage_assign,
                "assignments.csv": stage_analyze}


def tiny_config(files, out) -> RunConfig:
    """The config of the tiny run, with its outputs in ``out``."""
    return RunConfig(meter=str(files["meter.csv"]), weather=str(files["weather.csv"]),
                     survey=str(files["survey.csv"]), out=str(out), seed=5, sample=100)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """``{file name: path}`` of the inputs and artifacts of a 6-household,
    20-day run, and its shape table."""
    base = tmp_path_factory.mktemp("tiny")
    generate_synthetic(GeneratorConfig(households=6, days=20), seed=3).write(base)
    files = {name: base / name for name in INPUTS}
    files.update({name: base / "out" / name for name in ARTIFACTS})
    run_pipeline(tiny_config(files, base / "out"))
    return files, ShapeTable.read_csv(files["shapes.csv"])


def read(name, path, files, shapes, **kwargs):
    """What the reader of file ``name`` makes of ``path``."""
    if name == "meter.csv":
        return read_meter_corpus(path, **kwargs)
    return {
        "weather.csv": read_weather,
        "survey.csv": read_survey,
        "truth.csv": SyntheticTruth.read_csv,
        "shapes.csv": ShapeTable.read_csv,
        "cleaning_report.csv": CleaningReport.read_csv,
        "model.json": lambda p: load_model(p, files["labels.csv"], shapes),
        "labels.csv": lambda p: load_model(files["model.json"], p, shapes),
        "dictionary.json": load_dictionary,
        "assignments.csv": lambda p: AssignmentTable.read_csv(p, shapes),
    }[name](path)


def outcome(name, path, files, shapes, **kwargs):
    """The error's type and text, or None if the read returned."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a weather file with no usable records warns
        try:
            read(name, path, files, shapes, **kwargs)
        except LoadShapesError as exc:
            return type(exc), str(exc)
    return None


def mutated(data: bytes, edits) -> bytes:
    """``data`` after ``edits``, each ``(op, at, payload)``: ``at`` is a byte
    offset (taken modulo the length plus one) or a text to find."""
    data = bytearray(data)
    for op, at, payload in edits:
        i = data.find(at) if isinstance(at, bytes) else at % (len(data) + 1)
        if op == "replace":
            data[i:i + 1] = payload[:1]
        elif op == "delete":
            del data[i:i + len(payload)]
        elif op == "insert":
            data[i:i] = payload[:4]
        else:
            del data[i:]
    return bytes(data)


EDITS = st.lists(st.tuples(st.sampled_from(["replace", "delete", "insert", "truncate"]),
                           st.integers(0, 1 << 20), st.binary(min_size=1, max_size=8)),
                 min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(INPUTS + ARTIFACTS), EDITS)
# each a defect the harness found: a byte that is not UTF-8 escaped as a bare
# UnicodeDecodeError, and a damaged schema_version raised a
# VersionMismatchError that named no file
@example("shapes.csv", [("replace", b"\r\n", b"\xff")])
@example("truth.csv", [("replace", b"date", b"\xff")])
@example("meter.csv", [("replace", b"H00004,2011-06-10", b"\xff")])  # second range
@example("survey.csv", [("replace", b"\n", b"\xe9")])
@example("model.json", [("replace", b"schema_version", b"X")])
@example("dictionary.json", [("replace", b"schema_version", b"X")])
def test_a_damaged_file_returns_or_raises_an_error_naming_it(tiny_run, name, edits):
    files, shapes = tiny_run
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(mutated(files[name].read_bytes(), edits))
        result = outcome(name, path, files, shapes)
        if name == "meter.csv":  # every file splits: the second range is read by a child
            with mock.patch.object(ingest, "FORK_MIN_BYTES", 1):
                assert outcome(name, path, files, shapes, workers=2) == result
    if result is not None:
        assert_names(name, result[1])


def assert_names(name, message) -> None:
    """``message`` names the file ``name`` and, for a CSV that has data
    rows, the data row or the header, unless it states a fact of the file."""
    assert name in message
    if name in ROW_NAMED:
        assert re.search(r"data row \d+|header", message) or any(
            fact in message for fact in WHOLE_FILE), message


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(FIRST_READER)), EDITS)
# a defect the harness found: a centroid of model.json that no longer sums
# to 1 failed truncate with an error that named no file
@example("model.json", [("delete", 674, b"..")])
def test_a_stage_given_a_damaged_artifact_runs_or_fails_naming_it(tiny_run, name, edits):
    files, _ = tiny_run
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(files[name].parent, out)
        (out / name).write_bytes(mutated(files[name].read_bytes(), edits))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a stage may warn of a clamped sample
                status = FIRST_READER[name](tiny_config(files, out)).status
        except StageError as exc:
            assert_names(name, str(exc))
            assert not any((out / output).exists() for output in STAGES[exc.stage].outputs)
            assert Manifest(out).entry(exc.stage) is None
        else:
            assert status in ("ran", "cached")
