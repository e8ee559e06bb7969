"""Workload definitions, seeded inputs and output checks for the benchmark.

A workload is a fixed list of ``fsl`` CLI jobs run back to back.  The seed
generates only the ``--expr`` job's expression and the PGM image; every other
job is fixed.  Each workload also has a small-n variant with the same shape,
used for the warm-up pass and by the self-test.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fsl import circuit as cir

WORKLOADS = ("verify-1d", "verify-nd", "compile-wide")

EXACT_TOL = 1e-9
"""Fidelity and ancilla-population floor for every simulated job."""


@dataclass(frozen=True)
class Job:
    """One CLI invocation, kept as parameters so the traced replay can rebuild it."""

    command: str  # simulate | compile | sweep | image
    n: int = 0
    m: int = 0
    function: str | None = None
    expr: str | None = None
    loader: str = "ucr"
    m_range: tuple[int, int] | None = None
    pgm: str | None = None
    prefix: str = ""

    @property
    def label(self) -> str:
        what = self.function or ("expr" if self.expr else "pgm")
        size = f"m={self.m_range[0]}:{self.m_range[1]}" if self.m_range else f"m={self.m}"
        return f"{self.command} {what} {self.loader} n={self.n} {size}"

    def argv(self, out_dir: Path) -> list[str]:
        if self.command == "image":
            return ["image", "--pgm", self.pgm, "--m", str(self.m), "--simulate",
                    "--emit", "none"]
        args = [self.command]
        args += ["--function", self.function] if self.function else ["--expr", self.expr]
        args += ["--n", str(self.n), "--loader", self.loader]
        if self.command == "sweep":
            args += ["--m-range", f"{self.m_range[0]}:{self.m_range[1]}"]
        else:
            args += ["--m", str(self.m)]
        if self.command == "compile":
            args += ["--emit", "json,qasm", "--out-dir", str(out_dir), "--prefix", self.prefix]
        return args


def seeded_expression(seed: int) -> str:
    """A 1-D expression with a dense spectrum: the sawtooth ``x`` (a jump at the
    wrap) gives every coefficient in the window a non-zero value, so gate counts
    do not depend on the seed."""
    rng = np.random.default_rng([seed, 1])
    a, b, d = rng.uniform(0.5, 1.5, size=3)
    c, w = rng.uniform(0.2, 0.8), rng.uniform(0.05, 0.2)
    k, p = int(rng.integers(2, 9)), rng.uniform(0.0, 2 * math.pi)
    return (f"{a:.3f}*x + {b:.3f}*exp(-((x - {c:.3f})/{w:.3f})^2)"
            f" + {d:.3f}*sin({k}*2*pi*x + {p:.3f}) + 0.5")


def write_seeded_pgm(path: Path, side: int, seed: int) -> None:
    """A smooth 8-bit P5 image: a few random low-frequency waves plus a bump.

    The 8-bit rounding spreads a little mass over every frequency, so the FRQI
    loader vector is dense and gate counts do not depend on the seed.
    """
    rng = np.random.default_rng([seed, 2])
    t = np.arange(side) / side
    x, y = np.meshgrid(t, t, indexing="ij")
    field = np.zeros((side, side))
    for _ in range(3):
        fx, fy = rng.integers(0, 4, size=2)
        field += rng.uniform(0.5, 1.0) * np.cos(2 * np.pi * (fx * x + fy * y) + rng.uniform(0, 2 * np.pi))
    cx, cy = rng.uniform(0.3, 0.7, size=2)
    field += 2.0 * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / 0.02)
    field = (field - field.min()) / (field.max() - field.min())
    pixels = np.round(255 * (0.1 + 0.8 * field)).astype(np.uint8)
    path.write_bytes(f"P5\n{side} {side}\n255\n".encode() + pixels.tobytes())


def jobs(workload: str, seed: int, work_dir: Path, small: bool = False) -> list[Job]:
    """The workload's job list; ``small`` gives the warm-up/self-test variant."""
    if workload == "verify-1d":
        expr = seeded_expression(seed)
        if small:
            return [Job("simulate", 10, 4, "piecewise"), Job("simulate", 9, 4, "tanh"),
                    Job("simulate", 9, 5, expr=expr)]
        return [Job("simulate", 20, 8, "piecewise"), Job("simulate", 19, 6, "tanh"),
                Job("simulate", 18, 7, expr=expr)]
    if workload == "verify-nd":
        side = 16 if small else 512
        pgm = work_dir / f"image{side}.pgm"
        write_seeded_pgm(pgm, side, seed)
        if small:
            return [Job("simulate", 5, 3, "sinc2d"), Job("image", 4, 2, pgm=str(pgm))]
        return [Job("simulate", 10, 3, "sinc2d"), Job("image", 9, 3, pgm=str(pgm))]
    if workload == "compile-wide":
        if small:
            return [Job("compile", 10, 6, "piecewise", prefix="ucr_"),
                    Job("compile", 10, 5, "piecewise", loader="schmidt", prefix="schmidt_"),
                    Job("sweep", 10, function="piecewise", m_range=(3, 6))]
        return [Job("compile", 20, 14, "piecewise", prefix="ucr_"),
                Job("compile", 20, 10, "piecewise", loader="schmidt", prefix="schmidt_"),
                Job("sweep", 20, function="piecewise", m_range=(3, 13))]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Output checks

@dataclass
class Counts:
    """Circuit size summed over a job's reports (one per sweep row)."""

    gates: int = 0
    two_qubit: int = 0
    depth: int = 0

    def add(self, single: int, two: int, opaque: int, depth: int) -> None:
        self.gates += single + two + opaque
        self.two_qubit += two
        self.depth += depth


def resource_violations(n: int, m: int, single: int, two: int, depth: int) -> list[str]:
    """The paper's bounds for the UCR loader, as acceptance criterion 5 states them."""
    q = m + 1
    bounds = {
        "single_qubit": (single, n + 2 ** (q + 1) - 1),
        "two_qubit": (two, n * (n + 1) // 2 + 2 ** (q + 1) - 2),
        "depth": (depth, 2 * (n - 2) + math.ceil(math.log2(n - m)) + 2 ** (q + 2) - 2 * q),
    }
    return [f"{k} {got} > {limit}" for k, (got, limit) in bounds.items() if got > limit]


def _report_counts(report: dict, counts: Counts) -> tuple[int, int, int]:
    gc = report["gate_counts"]
    counts.add(gc["single_qubit"], gc["two_qubit"], gc["opaque"], report["depth"])
    return gc["single_qubit"], gc["two_qubit"], report["depth"]


def check_output(job: Job, stdout: str, out_dir: Path | None) -> tuple[Counts, list[str]]:
    """Parse one job's output and return its circuit counts and any failed checks.

    ``out_dir`` is where the job's emitted files are; pass None to skip the
    file read-back (the files of earlier passes have been overwritten).
    """
    counts = Counts()
    problems: list[str] = []
    if job.command == "sweep":
        rows = stdout.strip().splitlines()
        expect = job.m_range[1] - job.m_range[0] + 1
        if len(rows) != expect + 1:
            return counts, [f"sweep printed {len(rows) - 1} rows, expected {expect}"]
        for row in rows[1:]:
            m, _, _, depth, single, two, _ = row.split(",")
            counts.add(int(single), int(two), 0, int(depth))
            problems += [f"m={m}: {v}" for v in
                         resource_violations(job.n, int(m), int(single), int(two), int(depth))]
        return counts, problems

    result = json.loads(stdout)
    if job.command == "simulate":
        _report_counts(result["report"], counts)
        key = "ancilla_zero_population" if "ancilla_zero_population" in result \
            else "fidelity_vs_truncated"
        if not result[key] >= 1 - EXACT_TOL:
            problems.append(f"{key} = {result[key]!r} < 1-{EXACT_TOL:g}")
    elif job.command == "image":
        _report_counts(result, counts)
        fid = result["fidelity_vs_truncated_frqi"]
        if not fid >= 1 - EXACT_TOL:
            problems.append(f"fidelity_vs_truncated_frqi = {fid!r} < 1-{EXACT_TOL:g}")
    else:  # compile
        single, two, depth = _report_counts(result, counts)
        if job.loader == "ucr":  # criterion 5 states the bounds for the UCR loader only
            problems += resource_violations(job.n, job.m, single, two, depth)
        if out_dir is not None:
            problems += _check_emitted(job, result, out_dir)
    return counts, problems


def _check_emitted(job: Job, report: dict, out_dir: Path) -> list[str]:
    """The emitted JSON reads back with the report's gate counts; the QASM has
    one line per gate plus header and terminal SWAPs."""
    circ = cir.from_json((out_dir / f"{job.prefix}circuit.json").read_text())
    got = cir.gate_counts(circ)
    want = report["gate_counts"]
    problems = []
    if (got.single_qubit, got.two_qubit, got.opaque) != \
            (want["single_qubit"], want["two_qubit"], want["opaque"]):
        problems.append(f"circuit.json reads back as {got}, report says {want}")
    qasm_lines = (out_dir / f"{job.prefix}circuit.qasm").read_text().count("\n")
    expect = 3 + len(circ.gates) + len(cir.permutation_to_swaps(circ.output_permutation))
    if qasm_lines != expect:
        problems.append(f"circuit.qasm has {qasm_lines} lines, expected {expect}")
    return problems
