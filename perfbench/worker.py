"""Child process of the benchmark: builds inputs or measures repetitions.

    python3 perfbench/worker.py setup   --workload W --size S --seed N --run-seed M
        --workdir D --trace T --result F --reps R
    python3 perfbench/worker.py measure --workload W --size S --seed N --run-seed M
        --workdir D --trace T --result F --seconds X

``run.py`` starts one process per role, so the memory high-water mark of
building the inputs never reaches the measured process. Results go to the
JSON file named by ``--result``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

from loadshapes.pipeline import PIPELINE_STAGES
from tracing import SpanIndex, Tracer, installed_or_null
from workloads import SIZES, WORKLOADS

MIN_REPS = 3

ANALYTICS_WRITERS = (
    "analytics.write_entropy_csv", "analytics.write_coverage_csv",
    "analytics.write_taxonomy_csv", "analytics.write_char_deltas_csv",
    "analytics.write_occurrence_csv",
)
# the span that encloses one repetition's timed operation, per workload
OP_SPAN = {"full_run": "op.cold", "cluster_fit": "op.fit",
           "assign_analyze": "op.assign_analyze"}


def run_setup(workload: str, size: dict, seed: int, workdir: Path, trace: bool,
              reps: int) -> dict:
    """Build the inputs ``reps`` times; the last build is the one kept."""
    setup_fn = WORKLOADS[workload][0]
    builds, layers = [], []
    for _ in range(reps):
        tracer = Tracer() if trace else None
        with installed_or_null(tracer):
            builds.append(setup_fn(size, seed, workdir))
        if tracer:
            ix = SpanIndex(tracer.spans)
            layers.append({
                "synthetic.generate_s": ix.total("synthetic.generate_synthetic"),
                "synthetic.write_s": ix.total("synthetic.SyntheticCorpus.write"),
            })
    return {"builds": builds, "layers": layers}


def measure(workload: str, size: dict, seed: int, run_seed: int, workdir: Path,
            seconds: float, trace: bool, min_reps: int = MIN_REPS) -> dict:
    """Repeat the workload's operation for ``seconds`` (at least
    ``min_reps`` times). With ``trace``, every other repetition is traced.
    A repetition fails when it raises, when a check on its outputs fails,
    or when its outputs differ from the first completed repetition's."""
    _, load_fn, rep_fn = WORKLOADS[workload]
    inputs = load_fn(size, seed, workdir, run_seed)
    reps = []
    reference = None
    start = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        record = {"traced": traced, "ok": False}
        tracer = Tracer() if traced else None
        try:
            with installed_or_null(tracer):
                rep = rep_fn(inputs, tracer)
            if reference is None:
                reference = rep.digest
            elif rep.digest != reference:
                rep.problems.append("outputs differ from the first repetition's")
            record.update(
                wall_s=rep.wall_s, cpu_s=rep.cpu_s, parts=rep.parts, reruns=rep.reruns,
                digest=rep.digest, artifact_digests=rep.artifact_digests,
                counts=rep.counts, problems=rep.problems, ok=not rep.problems,
            )
            if tracer:
                record["layers"] = layer_values(workload, tracer.spans, rep.counts)
                record["spans"] = tracer.spans
        except Exception:  # a failed repetition is counted, not fatal
            record["problems"] = [traceback.format_exc()]
        reps.append(record)
        i += 1
        if time.perf_counter() - start >= seconds and i >= min_reps:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"reps": reps, "peak_rss_mb": peak_kb / 1024.0}


def layer_values(workload: str, spans: list, counts: dict) -> dict:
    """Per-layer numbers of one traced repetition."""
    ix = SpanIndex(spans)
    op = OP_SPAN[workload]

    def t(name):
        return ix.total(name, op)

    def rate(count, seconds):
        return count / seconds if seconds else 0.0

    c = counts.get
    v = {}
    v["ingest.read_meter_s"] = t("ingest.read_meter_corpus")
    v["ingest.meter_rows"] = c("meter_rows", 0)
    v["ingest.rows_per_s"] = rate(c("meter_rows", 0), v["ingest.read_meter_s"])
    v["ingest.diagnostics"] = c("diagnostics", 0)

    v["preprocess.preprocess_days_s"] = t("preprocess.preprocess_days")
    v["preprocess.retained"] = c("retained", 0)
    v["preprocess.shapes_write_s"] = t("preprocess.ShapeTable.write_csv")
    v["preprocess.shapes_read_s"] = t("preprocess.ShapeTable.read_csv")
    v["preprocess.shapes_read_calls"] = ix.count("preprocess.ShapeTable.read_csv", op)

    # the first kmeans call inside adaptive_kmeans seeds k_init clusters;
    # the later ones are the 2-means splits
    split = []
    for i in ix.under("cluster.adaptive_kmeans", op):
        calls = [k for k in ix.children(i) if spans[k]["name"] == "cluster.kmeans"]
        split += calls[1:]
    v["cluster.adaptive_kmeans_s"] = t("cluster.adaptive_kmeans")
    v["cluster.split_kmeans_s"] = sum(ix.duration[j] for j in split)
    v["cluster.split_kmeans_calls"] = len(split)
    v["cluster.reconverge_s"] = ix.total_self("cluster.adaptive_kmeans", op)
    v["cluster.split_rounds"] = c("split_rounds", 0)
    v["cluster.k1"] = c("k1", 0)
    v["cluster.merge_s"] = t("cluster.hierarchical_merge")
    v["cluster.merges"] = c("merges", 0)
    v["cluster.k2"] = c("k2", 0)
    v["cluster.model_io_s"] = t("cluster.save_model") + t("cluster.load_model")

    v["dictionary.truncate_s"] = t("dictionary.truncate")
    v["dictionary.truncation_rounds"] = c("truncation_rounds", 0)
    v["dictionary.size"] = c("dictionary_size", 0)
    v["dictionary.exit_violation_rate"] = c("exit_violation_rate", 0.0)
    v["dictionary.assign_s"] = t("dictionary.assign_all")
    v["dictionary.assign_shapes_per_s"] = rate(c("shapes_assigned", 0),
                                               v["dictionary.assign_s"])
    v["dictionary.assignments_io_s"] = (t("dictionary.AssignmentTable.write_csv")
                                        + t("dictionary.AssignmentTable.read_csv"))

    v["analytics.build_frame_s"] = t("analytics.build_frame")
    v["analytics.stratified_entropy_s"] = t("analytics.stratified_entropy")
    v["analytics.household_entropy_s"] = t("analytics.household_entropy")
    v["analytics.char_delta_s"] = t("analytics.characteristic_entropy_delta")
    v["analytics.occurrence_map_s"] = t("analytics.occurrence_map")
    v["analytics.coverage_curve_s"] = t("analytics.coverage_curve")
    v["analytics.write_s"] = sum(t(name) for name in ANALYTICS_WRITERS)

    for stage in PIPELINE_STAGES:
        v[f"pipeline.{stage}_s"] = t(f"pipeline.stage_{stage}")
        v[f"pipeline.{stage}_self_s"] = ix.total_self(f"pipeline.stage_{stage}", op)
    reruns = ix.count("op.rerun")
    v["pipeline.run_id_s"] = (ix.total("pipeline.run_id_for", "op.rerun") / reruns
                              if reruns else 0.0)
    v["pipeline.cache_hits"] = c("cache_hits", 0)
    v["pipeline.cache_attempts"] = c("cache_attempts", 0)
    v["pipeline.artifact_bytes"] = c("artifact_bytes", 0)
    op_s = ix.total(op)
    v["pipeline.stage_coverage"] = (sum(v[f"pipeline.{s}_s"] for s in PIPELINE_STAGES) / op_s
                                    if op_s else 0.0)
    return v


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--size", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--reps", type=int, default=1, help="input builds (setup)")
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    size = SIZES[args.workload][args.size]
    warnings.simplefilter("ignore")  # e.g. sample clamping; the checks decide
    if args.role == "setup":
        result = run_setup(args.workload, size, args.seed, args.workdir, bool(args.trace),
                           args.reps)
    else:
        result = measure(args.workload, size, args.seed, args.run_seed, args.workdir,
                         args.seconds, bool(args.trace))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
