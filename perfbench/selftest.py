"""Fast self-test of the benchmark on the small-n variant of every workload.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that the metric names and units match BENCHMARK.json, that the
output checks pass on good output and catch bad output, that the stage split
covers every simulated gate and rejects a wrong split, that the seed leaves
the circuit counts alone, and that the benchmark refuses to run without the
``fsl`` sources.  It takes a few seconds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from replay import Replay, ReplayMismatch, Tracer, registers
from workloads import WORKLOADS, Job, check_output, jobs

from fsl import compiler, funcs

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
run.SETUP_REPEATS = 1


def _names(metrics: dict, section: str) -> None:
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    got = {k: u for k, (_, u) in metrics.items()}
    assert got == want, f"{section}: got {sorted(got)}, BENCHMARK.json lists {sorted(want)}"


def test_workloads(work: Path) -> None:
    for workload in WORKLOADS:
        small = jobs(workload, 1, work, small=True)
        attempted, failed, e2e = run.end_to_end(small, 0, work)
        assert (attempted, failed) == (len(small), 0), (workload, attempted, failed)
        _names(e2e, "end_to_end")
        assert e2e["ok_jobs_frac"][0] == 1.0
        assert all(v > 0 for v, _ in e2e.values()), e2e

        attempted, failed, layers = run.traced(small, work, work / f"{workload}.jsonl")
        assert failed == 0, workload
        _names(layers, "per_layer")
        simulated = sum(layers[f"simulator.{s}_gates"][0] for s in ("loader", "fanout", "iqft", "tail"))
        if workload == "compile-wide":
            assert simulated == 0 and layers["simulator.loader_s"][0] == 0
        else:  # the split covers every gate of every simulated circuit
            assert simulated == e2e["gates_total"][0], (simulated, e2e["gates_total"])
        spans = [json.loads(line) for line in (work / f"{workload}.jsonl").read_text().splitlines()]
        assert {"id", "name", "layer", "job", "parent", "start", "end"} <= set(spans[0])


def test_seed_keeps_counts(work: Path) -> None:
    for workload in ("verify-1d", "verify-nd"):
        counts = []
        for seed in (1, 2):
            _, failed, e2e = run.end_to_end(jobs(workload, seed, work, small=True), 0, work)
            assert failed == 0
            counts.append([e2e[k][0] for k in ("gates_total", "two_qubit_total", "depth_total")])
        assert counts[0] == counts[1], (workload, counts)


def test_checks_catch_bad_output(work: Path) -> None:
    job = Job("simulate", 10, 4, "piecewise")
    result = run.run_job(job, work)
    counts, problems = check_output(job, result["stdout"], None)
    assert not problems and counts.gates > 0
    bad = json.loads(result["stdout"])
    bad["fidelity_vs_truncated"] = 0.5
    assert check_output(job, json.dumps(bad), None)[1]
    bad["report"]["depth"] = 10**6  # far over the paper's depth bound
    assert check_output(Job("compile", 10, 4, "piecewise"), json.dumps(bad["report"]), None)[1]

    broken = [job, Job("simulate", 10, 4, "no_such_function")]
    attempted, failed, e2e = run.end_to_end(broken, 0, work)
    assert (attempted, failed) == (2, 1) and e2e["ok_jobs_frac"][0] == 0.5


def test_split_rejects_wrong_sizes(work: Path) -> None:
    grid = funcs.sample(funcs.builtin("piecewise"), 8)
    circ, _ = compiler.compile_spec(compiler.prepare_spec(grid, 3), compiler.FSLPlan(n=8, m=3))
    replay = Replay(Tracer())
    replay._simulate(circ, registers(8, 1), 3, 0, None, None)
    for wrong_m in (2, 4):
        try:
            replay._simulate(circ, registers(8, 1), wrong_m, 0, None, None)
        except ReplayMismatch:
            continue
        raise AssertionError(f"the stage split accepted m={wrong_m} for an m=3 circuit")


def test_refuses_without_sources(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-1d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    tests = (test_workloads, test_seed_keeps_counts, test_checks_catch_bad_output,
             test_split_rejects_wrong_sizes, test_refuses_without_sources)
    try:
        for test in tests:
            test(work)
            print(f"PASS {test.__name__}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
