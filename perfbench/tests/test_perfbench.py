"""Tests of the benchmark harness, at the tiny corpus size."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
for path in (str(ROOT / "src"), str(BENCH_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from loadshapes import cluster, dictionary, pipeline  # noqa: E402
from tracing import SpanIndex, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def run_benchmark(*args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, kind):
    proc = run_benchmark("--workload", workload, "--seed", str(SEED), "--seconds", "0.2",
                         "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= worker.MIN_REPS
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    report = {line.split()[0]: line.split()[2] for line in lines[:-1]
              if len(line.split()) >= 3}
    for name, unit in expected.items():
        assert report.get(name) == unit, name
    if kind == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        spans_file = ROOT / ".perfbench_work" / f"spans-{workload}-{SEED}.json"
        spans = json.loads(spans_file.read_text())["repetitions"]
        spans_file.unlink()
        if not any(spans_file.parent.iterdir()):
            spans_file.parent.rmdir()
        assert spans and all(set(s) == {"name", "start", "end", "parent"}
                             for rep in spans for s in rep)


def traced_and_plain(workload, tmp_path):
    size = workloads.SIZES[workload]["tiny"]
    setup, load, rep = workloads.WORKLOADS[workload]
    setup(size, SEED, tmp_path)
    inputs = load(size, SEED, tmp_path, SEED)
    plain = rep(inputs)
    with Tracer() as tracer:
        traced = rep(inputs, tracer)
    return plain, traced, tracer


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_outputs_are_byte_identical(workload, tmp_path):
    plain, traced, tracer = traced_and_plain(workload, tmp_path)
    assert plain.problems == [] and traced.problems == []
    assert traced.digest == plain.digest
    assert traced.artifact_digests == plain.artifact_digests
    assert len(tracer.spans) > 1
    # restore put every original function back, including imported copies
    assert pipeline.adaptive_kmeans is cluster.adaptive_kmeans
    assert not hasattr(cluster.adaptive_kmeans, "__wrapped__")
    assert not any(hasattr(fn, "__wrapped__") for fn in pipeline._STAGE_FNS.values())


def test_full_run_stage_spans_cover_the_run(tmp_path):
    _, traced, tracer = traced_and_plain("full_run", tmp_path)
    layers = worker.layer_values("full_run", tracer.spans, traced.counts)
    assert layers["pipeline.stage_coverage"] >= 0.95
    assert layers["pipeline.cache_hits"] == workloads.RERUNS * len(pipeline.PIPELINE_STAGES)
    assert layers["preprocess.shapes_read_calls"] == 4


def test_self_time_subtracts_child_spans():
    spans = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "b", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "b", "start": 5.0, "end": 7.0, "parent": 0},
        {"name": "c", "start": 5.5, "end": 6.0, "parent": 2},
    ]
    ix = SpanIndex(spans)
    assert ix.total_self("a") == 5.0
    assert ix.total_self("b") == 4.5
    assert ix.total("c", "a") == 0.5
    assert ix.count("b", "c") == 0


def test_times_are_scaled_by_the_reference_loop():
    # the same parts, once on a host twice as slow: both the part and the
    # reference loop take twice as long
    fast = {"parts": [[1.0, 0.9, workloads.REFERENCE_S], [2.0, 2.0, workloads.REFERENCE_S]]}
    slow = {"parts": [[2.0, 1.8, 2 * workloads.REFERENCE_S],
                      [4.0, 4.0, 2 * workloads.REFERENCE_S]]}
    assert run.summed_parts(workloads, [fast, slow, slow]) == pytest.approx(3.0)
    assert run.summed_parts(workloads, [slow, fast, fast], 1) == pytest.approx(2.9)


def _shifted_distances(real):
    def assign_all(*args, **kwargs):
        table = real(*args, **kwargs)
        table.distances = table.distances + 1e-3
        return table
    return assign_all


def _raising(*args, **kwargs):
    raise RuntimeError("merge failed on purpose")


@pytest.mark.parametrize("workload,module,attr,sabotage,message", [
    ("assign_analyze", dictionary, "assign_all", _shifted_distances(dictionary.assign_all),
     "not at the nearest shape"),
    ("cluster_fit", cluster, "hierarchical_merge", _raising, "merge failed on purpose"),
])
def test_failed_repetitions_count_toward_error_rate(
        workload, module, attr, sabotage, message, tmp_path, monkeypatch):
    size = workloads.SIZES[workload]["tiny"]
    workloads.WORKLOADS[workload][0](size, SEED, tmp_path)
    monkeypatch.setattr(module, attr, sabotage)
    measured = worker.measure(workload, size, SEED, SEED, tmp_path, seconds=0,
                              trace=False, min_reps=2)
    reps = measured["reps"]
    assert [r["ok"] for r in reps] == [False, False]
    assert message in reps[0]["problems"][0]
    result = run.result_object(reps, {})
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 2)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("--workload", "full_run", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path,
                         script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
