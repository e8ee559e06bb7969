"""Benchmark of the ``fsl`` CLI: one workload, one run, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-1d --seed 1 --seconds 18 --trace 0

Jobs run in this process through ``fsl.cli.main``, one after the other (a
closed loop with one client).  ``--trace 0`` times whole passes over the
workload's jobs and prints the end-to-end metrics; ``--trace 1`` makes one
traced pass (see ``replay.py``) and prints the per-layer metrics.  The last
line of standard output is the result object; the lines before it hold the
machine record, per-job times and, when tracing, the self time of each layer.
See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3


def cap_threads() -> int:
    """Cap every BLAS/OpenMP thread setting at nproc; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            value = min(int(os.environ.get(var, nproc)), nproc)
        except ValueError:
            value = nproc
        os.environ[var] = str(max(value, 1))
    return nproc


NPROC = cap_threads()
if not (SRC / "fsl" / "__init__.py").is_file():
    sys.exit(f"perfbench: no fsl sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fsl  # noqa: E402
from fsl import cli  # noqa: E402
from fsl import simulator  # noqa: E402

from replay import Replay, ReplayMismatch, Tracer  # noqa: E402
from workloads import WORKLOADS, check_output, jobs  # noqa: E402

if Path(fsl.__file__).resolve().parent != SRC / "fsl":
    sys.exit(f"perfbench: imported fsl from {fsl.__file__}, not from {SRC}")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "gates_total": "count",
                    "two_qubit_total": "count", "depth_total": "count", "ok_jobs_frac": "frac"}
STAGE_SPANS = ("funcs.sample", "compiler.prepare", "compiler.compile", "compiler.target",
               "frqi.read", "frqi.compile", "frqi.phase_spectra", "frqi.target",
               "synth.loader", "synth.iqft", "synth.decompose", "circuit.compose",
               "circuit.peephole", "circuit.report", "circuit.export", "simulator.run",
               "simulator.loader", "simulator.fanout", "simulator.iqft", "simulator.tail",
               "simulator.fidelity")


def machine_record() -> dict:
    return {"nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def run_job(job, out_dir: Path) -> dict:
    """One CLI call; its exit code, captured output and wall time."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job.argv(out_dir))
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a leaked exception is a failed job, not a failed benchmark
        rc = -1
        err.write(traceback.format_exc())
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "seconds": time.perf_counter() - t0}


def job_problems(job, result: dict, out_dir: Path | None):
    """Circuit counts of a finished job and the list of checks it failed."""
    if result["rc"] != 0:
        return None, [f"exit code {result['rc']}: {result['stderr'].strip()[-300:]}"]
    try:
        return check_output(job, result["stdout"], out_dir)
    except (ValueError, KeyError, OSError) as exc:
        return None, [f"unreadable output: {exc!r}"]


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import the CLI, which every call pays."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fsl.cli"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(workload_jobs, seconds: float, work: Path):
    """Untraced passes until ``seconds`` have gone by (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        results = [run_job(job, work) for job in workload_jobs]
        passes.append({"seconds": time.perf_counter() - t0, "results": results})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return passes, peak_rss_mb


def end_to_end(workload_jobs, seconds: float, work: Path):
    setup_s = setup_seconds()
    passes, peak_rss_mb = measure(workload_jobs, seconds, work)
    failed, first = 0, None
    for k, p in enumerate(passes):
        last = k == len(passes) - 1
        totals = [0, 0, 0]
        for job, result in zip(workload_jobs, p["results"]):
            counts, problems = job_problems(job, result, work if last else None)
            if counts is not None:
                totals = [totals[0] + counts.gates, totals[1] + counts.two_qubit,
                          totals[2] + counts.depth]
            if problems:
                failed += 1
                print(f"FAIL pass {k} {job.label}: {'; '.join(problems)}")
            print(f"pass {k} {job.label}: {result['seconds']:.4f} s")
        first = first or totals
        if totals != first:
            failed += 1
            print(f"FAIL pass {k}: circuit counts {totals} differ from the first pass {first}")
    attempted = len(workload_jobs) * len(passes)
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(statistics.median(p["results"][j]["seconds"] for p in passes)
                      for j in range(len(workload_jobs))),
        "peak_rss_mb": peak_rss_mb,
        "gates_total": first[0],
        "two_qubit_total": first[1],
        "depth_total": first[2],
        "ok_jobs_frac": (attempted - failed) / attempted,
    }
    print(f"passes: {len(passes)}, seconds each: {[round(p['seconds'], 4) for p in passes]}")
    return attempted, failed, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


@contextlib.contextmanager
def record_runs(tracer: Tracer, parent: dict, runs: list):
    """Time each ``simulator.run`` call the CLI makes, in a span under
    ``parent``, and keep its (state, span) as the chained replay's reference."""
    original = simulator.run

    def run(*args, **kwargs):
        with tracer.span("simulator.run", parent) as span:
            state = original(*args, **kwargs)
        runs.append((state, span))
        return state

    simulator.run = run
    try:
        yield
    finally:
        simulator.run = original


def traced(workload_jobs, work: Path, spans_path: Path):
    tracer = Tracer()
    replay = Replay(tracer)
    failed = 0
    t0 = time.perf_counter()
    for i, job in enumerate(workload_jobs):
        tracer.job = i
        runs: list = []
        with tracer.span("cli.main", None, command=job.label) as main, \
                record_runs(tracer, main, runs):
            result = run_job(job, work)
        _, problems = job_problems(job, result, work)
        try:
            replay.job(job, main, runs[-1] if runs else None)
        except ReplayMismatch as exc:
            problems.append(str(exc))
        if problems:
            failed += 1
            print(f"FAIL {job.label}: {'; '.join(problems)}")
    traced_wall = time.perf_counter() - t0

    spans = tracer.spans
    own = tracer.self_times()
    untraced_wall = sum(s["end"] - s["start"] for s in spans if s["name"] == "cli.main")
    print(f"tracing overhead: {traced_wall - untraced_wall:.4f} s "
          f"(traced pass {traced_wall:.4f} s, CLI calls {untraced_wall:.4f} s)")
    self_by = {"layer": defaultdict(float), "name": defaultdict(float)}
    for s in spans:
        for key, sums in self_by.items():
            sums[s[key]] += own[s["id"]]
    for sums in self_by.values():
        for what, t in sorted(sums.items(), key=lambda kv: -kv[1]):
            print(f"self time {what:20s} {t:10.4f} s")

    with open(spans_path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
    print(f"spans: {spans_path}")

    def total(name, key=None):
        return sum((s[key] if key else s["end"] - s["start"]) for s in spans if s["name"] == name)

    def ns_per_gate_amp(name):
        work = sum(s["gates"] * s["amplitudes"] for s in spans if s["name"] == name)
        return total(name) * 1e9 / work if work else 0.0

    metrics = {f"{name}_s": (total(name), "s") for name in STAGE_SPANS}
    metrics["cli.self_s"] = (self_by["name"]["cli.main"], "s")
    metrics["simulator.loader_ns_per_gate_amp"] = (ns_per_gate_amp("simulator.loader"), "ns")
    metrics["simulator.iqft_ns_per_gate_amp"] = (ns_per_gate_amp("simulator.iqft"), "ns")
    metrics["synth.loader_gates"] = (total("synth.loader", "gates"), "count")
    metrics["circuit.peephole_removed"] = (total("circuit.peephole", "removed"), "count")
    for stage in ("loader", "fanout", "iqft", "tail"):
        metrics[f"simulator.{stage}_gates"] = (total(f"simulator.{stage}", "gates"), "count")
    return len(workload_jobs), failed, metrics


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": machine_record()}))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        for job in jobs(args.workload, args.seed, work, small=True):  # warm-up, not timed
            run_job(job, work)
        full = jobs(args.workload, args.seed, work)
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            attempted, failed, metrics = traced(full, work, spans_path)
        else:
            attempted, failed, metrics = end_to_end(full, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
