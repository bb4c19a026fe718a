"""loadshapes benchmark.

    python3 perfbench/run.py --workload {full_run,cluster_fit,assign_analyze}
        --seed N --seconds S --trace {0,1} [--size {bench,acceptance,tiny}]

Builds the workload's inputs from the seed in a child process, then
repeats the timed operation for S seconds in a second child process and
checks every repetition's outputs. setup_s is the median of seven input
builds, four before and three after the timed repetitions. With --trace 0
it prints the end-to-end metrics; with --trace 1, every other repetition
runs with span tracing and it prints the per-layer metrics. Every timing
is scaled to a fixed host speed, measured by a reference loop run around
it (see ``workloads._Clock``). The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Run it from anywhere; it finds the loadshapes source at ../src relative to
this file, and keeps scratch files under .perfbench_work/ at the root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Input builds before and after the timed repetitions: on a shared host
# CPU speed can drift over tens of seconds, so setup_s samples both ends of
# the run, as the timed repetitions span it.
SETUP_REPS_BEFORE = 4
SETUP_REPS_AFTER = 3

# Children run numpy single-threaded, so no run uses more threads than the
# `threads`/`workers` arguments, which are set to nproc.
CHILD_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}



def metric_units(kind: str) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics that
    BENCHMARK.json declares; the report prints exactly these."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_child(role: str, args, seed: int, run_seed: int, workdir: Path,
              setup_reps: int = 0) -> dict:
    result = workdir / f"{role}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), role,
        "--workload", args.workload, "--size", args.size,
        "--seed", str(seed), "--run-seed", str(run_seed),
        "--workdir", str(workdir), "--trace", str(args.trace),
        "--seconds", str(args.seconds), "--reps", str(setup_reps),
        "--result", str(result),
    ]
    pythonpath = [str(SRC), str(HERE)]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath),
               PYTHONHASHSEED="0", **CHILD_THREAD_ENV)
    # the child's stdout goes to our stderr: our stdout ends with the result
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def summed_parts(workloads, reps: list, column: int = 0) -> float:
    """Sum over the timed parts of a repetition of each part's median
    scaled time across ``reps``; column 0 is wall time, 1 is CPU time."""
    return sum(statistics.median(workloads.scaled(r["parts"][j], column) for r in reps)
               for j in range(len(reps[0]["parts"])))


def tail(values: list) -> str:
    """The highest nearest-rank percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return "tail: needs >= 11 samples"
    ordered = sorted(values)
    return f"p{100.0 * (n - 10) / n:.1f}={ordered[n - 11]:.6g} (10 samples above)"


def machine_facts(workers: int) -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode
        blas = "unknown"
    threads = " ".join(f"{k}={v}" for k, v in CHILD_THREAD_ENV.items())
    return (f"nproc={workers} python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas} {threads} threads/workers={workers}")


def summarize(args, workloads, setup: dict, measured: dict):
    """Returns (metrics, lines of the human-readable report)."""
    reps = measured["reps"]
    done = [r for r in reps if "wall_s" in r]
    plain = [r for r in done if not r["traced"]]
    if not plain:
        return None, []
    lines = []
    median = statistics.median
    scaled = workloads.scaled
    if not args.trace:
        walls = [sum(scaled(p) for p in r["parts"]) for r in plain]
        wall = summed_parts(workloads, plain)
        processed = plain[0]["counts"][workloads.THROUGHPUT_COUNT[args.workload]]
        if args.workload == "full_run":
            reruns = [row for r in plain for row in r["reruns"]]
            rerun = median(scaled(row) for row in reruns)
        else:
            # nothing is cached in memory: a repeat of the same request is
            # every repetition after the first
            reruns = plain[1:] or plain
            rerun = summed_parts(workloads, reruns)
        builds = setup["builds"]
        values = {
            "wall_s": wall,
            "days_per_s": processed / wall,
            "cpu_s": summed_parts(workloads, plain, 1),
            "peak_rss_mb": measured["peak_rss_mb"],
            "setup_s": median(scaled(row) for row in builds),
            "rerun_s": rerun,
        }
        parts = len(plain[0]["parts"])
        of_n = (f"median of n={len(plain)}" if parts == 1 else
                f"sum over {parts} parts of each one's median of n={len(plain)}")
        notes = {
            "wall_s": f"{of_n}; unscaled median {median(r['wall_s'] for r in plain):.6g}; "
                      + tail(walls),
            "days_per_s": "household-days per repetition / wall_s",
            "cpu_s": f"{of_n}; unscaled median {median(r['cpu_s'] for r in plain):.6g}",
            "peak_rss_mb": "high-water mark of the measuring process",
            "setup_s": f"median of n={len(builds)}; unscaled median "
                       f"{median(row[0] for row in builds):.6g}",
            "rerun_s": f"median of n={len(reruns)}",
        }
        units = metric_units("end_to_end")
        for name in units:
            lines.append(f"  {name:<16} {values[name]:>14.6g} {units[name]:<6} {notes[name]}")
        lines.append(f"  {'':<16} {processed:>14d} household-days per repetition")
        lines.append("  scaled wall_s samples: " + " ".join(f"{w:.4g}" for w in walls))
        refs = [row[2] for r in plain for row in r["parts"]]
        lines.append(f"  reference loop: median {1e3 * median(refs):.4g} ms over {len(refs)} "
                     f"timed parts; times are scaled to {1e3 * workloads.REFERENCE_S:g} ms")
    else:
        units = metric_units("per_layer")
        traced = [r for r in done if r["traced"]]
        values = {}
        for name in units:
            if name.startswith("synthetic."):
                values[name] = median(layer[name] for layer in setup["layers"])
            elif name == "trace.overhead_s":
                values[name] = (summed_parts(workloads, traced)
                                - summed_parts(workloads, plain)) if traced else 0.0
            else:
                values[name] = (median(r["layers"][name] for r in traced)
                                if traced else 0.0)
        lines.append(f"  traced repetitions: {len(traced)}, untraced: {len(plain)}")
        for name, unit in units.items():
            lines.append(f"  {name:<34} {values[name]:>14.6g} {unit}")
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in values}
    return metrics, lines


def result_object(reps: list, metrics: dict) -> dict:
    """The last line of the output: a repetition that raised or failed a
    check counts as failed."""
    failed = sum(not r["ok"] for r in reps)
    return {"correct": failed == 0, "attempted": len(reps), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the acceptance suite's seeds)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "acceptance", "tiny"), default="bench")
    args = parser.parse_args(argv)

    if not (SRC / "loadshapes" / "__init__.py").is_file():
        print(f"run.py: loadshapes source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload '{args.workload}'; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    seed = args.seed if args.seed is not None else workloads.DEFAULT_SEEDS[args.workload]
    run_seed = seed
    if args.seed is None and args.workload == "full_run":
        run_seed = workloads.ACCEPTANCE_RUN_SEED

    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{seed}-", dir=base))
    try:
        setup = run_child("setup", args, seed, run_seed, workdir, SETUP_REPS_BEFORE)
        measured = run_child("measure", args, seed, run_seed, workdir)
        after = run_child("setup", args, seed, run_seed, workdir, SETUP_REPS_AFTER)
        for key in setup:
            setup[key] += after[key]
        if args.trace:
            # kept after the run, for reading the traced repetitions span by span
            spans_path = base / f"spans-{args.workload}-{seed}.json"
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": seed,
                           "repetitions": [r["spans"] for r in measured["reps"]
                                           if "spans" in r]}, fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # holds span files, or another run is using it

    metrics, lines = summarize(args, workloads, setup, measured)
    reps = measured["reps"]
    if args.trace:
        lines.append(f"  spans of the traced repetitions: {spans_path.relative_to(ROOT)}")
    result = result_object(reps, metrics)
    for i, r in enumerate(reps):
        for problem in r.get("problems", []):
            print(f"repetition {i + 1} failed: {problem}", file=sys.stderr)
    if metrics is None:
        print("run.py: no repetition completed", file=sys.stderr)
        return 1

    print(f"loadshapes benchmark: workload={args.workload} size={args.size} "
          f"seed={seed} trace={args.trace} seconds={args.seconds:g}")
    print("machine: " + machine_facts(workloads.nproc()))
    for line in lines:
        print(line)
    print(f"  {'error_rate':<16} {result['failed'] / len(reps):>14.6g} {'ratio':<6} "
          f"{result['failed']} failed of {len(reps)} attempted")
    reference = next((r for r in reps if r.get("digest")), None)
    if reference is not None:
        print(f"output digest: {reference['digest']}")
        for name, digest in reference["artifact_digests"].items():
            print(f"  {name:<24} sha256={digest}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
