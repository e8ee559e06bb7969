"""Traced replay: each CLI job re-run stage by stage through the public
functions of the ``fsl`` modules, with one span per stage.

For every job the traced run first times the real ``fsl.cli.main`` call (the
``cli.main`` span) and, inside it, each ``simulator.run`` call the CLI makes
(the ``simulator.run`` span).  It then replays the job's pipeline on the same
inputs.  The replayed stages are recorded as children of ``cli.main``; a
span's self time is its duration minus its children's durations, so
``cli.main`` keeps only what the CLI does itself (argument handling, report
formatting, writing, and the second ``prepare_spec`` of the mirror path).

Compile stages are timed by repeating the assembly with ``synth`` and
``circuit`` functions right after the compile call; those spans are children
of the compile span, and the repeated circuit must equal the compiled one gate
for gate.  The simulation is split by gate index into loader, fan-out, iQFT
and tail segments (sizes derived from n, m and D) and chained through
``simulator.run(segment, initial=state)``; those spans are children of the
CLI's ``simulator.run`` span, and the chain must reach the CLI's state.
"""
from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from fsl import circuit as cir
from fsl import compiler, fourier, frqi, funcs, simulator
from fsl.circuit import Circuit, GateKind
from fsl.compiler import FSLPlan, Loader, NonperiodicVariant
from fsl.synth import build_inverse_qft, build_schmidt_circuit, build_ucr_circuit, decompose_opaque

from workloads import Job

CHAIN_TOL = 1e-12
"""Fidelity floor between the chained segments' state and one ``simulator.run``."""

LAYER_OF = {"compiler.prepare": "fourier", "cli.main": "cli"}
"""Span names whose layer is not their prefix (``prepare_spec`` is DFT and window work)."""


@dataclass
class Tracer:
    """Spans kept in memory: name, layer, job, parent, start and end (seconds
    since the tracer was made), plus counts recorded at the span."""

    spans: list = field(default_factory=list)
    job: int = 0
    t0: float = field(default_factory=time.perf_counter)

    @contextmanager
    def span(self, name: str, parent: dict | None, **counts):
        rec = {"id": len(self.spans), "name": name, "layer": LAYER_OF.get(name, name.split(".")[0]),
               "job": self.job, "parent": None if parent is None else parent["id"],
               "start": time.perf_counter() - self.t0, "end": None, **counts}
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self.t0

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the durations of its children."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


class ReplayMismatch(Exception):
    """The replay disagrees with the program: a repeated assembly, a stage
    split or the chained simulation does not match."""


def _gate_key(g):
    matrix = None if g.matrix is None else g.matrix.tobytes()
    return g.kind, g.qubits, g.angle, g.label, matrix


def _same_circuit(a: Circuit, b: Circuit, what: str) -> None:
    if a.num_qubits != b.num_qubits or a.output_permutation != b.output_permutation \
            or len(a.gates) != len(b.gates) \
            or any(_gate_key(x) != _gate_key(y) for x, y in zip(a.gates, b.gates)):
        raise ReplayMismatch(f"repeated assembly differs from {what}")


def registers(n: int, dims: int, lead: int = 0) -> list[list[int]]:
    """Wires of each dimension's n-wire register, after ``lead`` leading wires."""
    return [list(range(lead + d * n, lead + (d + 1) * n)) for d in range(dims)]


def fanout_gates(regs, m: int) -> list:
    """Balanced CNOT fan-out tree from each register's sign wire, in the order
    the compiler emits it."""
    gates = []
    for reg in regs:
        sign = len(reg) - m - 1
        holders, queue = [reg[sign]], reg[:sign][::-1]
        while queue:
            for hold in list(holders):
                if not queue:
                    break
                t = queue.pop(0)
                gates.append(cir.cnot(hold, t))
                holders.append(t)
    return gates


@dataclass
class Replay:
    """Replays jobs into one tracer."""

    tracer: Tracer

    def span(self, name, parent, **counts):
        return self.tracer.span(name, parent, **counts)

    # -- compile stages ---------------------------------------------------

    def _peephole(self, circ: Circuit, parent) -> Circuit:
        with self.span("circuit.peephole", parent) as sp:
            out = cir.peephole_cancel_cnots(circ)
        sp["removed"] = len(circ.gates) - len(out.gates)
        return out

    def _report(self, circ: Circuit, parent) -> None:
        with self.span("circuit.report", parent):
            cir.depth(circ)
            cir.gate_counts(circ)

    def _assemble(self, vec, loader: Loader, regs, m: int, lead: int, tail: tuple,
                  peephole_last: bool, parent) -> Circuit:
        """Loader on the lead wires plus each register's top m+1 wires, fan-out
        per register, iQFT per register, then the tail gates.

        The periodic and mirror paths run the peephole pass before the tail;
        FRQI runs it after.
        """
        n = len(regs[0])
        total = lead + n * len(regs)
        wires = list(range(lead)) + [q for reg in regs for q in reg[n - m - 1:]]
        with self.span("synth.loader", parent) as sp:
            build = build_schmidt_circuit if loader is Loader.SCHMIDT else build_ucr_circuit
            circ = build(vec, qubits=wires, num_qubits=total)
        sp["gates"] = len(circ.gates)
        with self.span("circuit.compose", parent):
            circ = Circuit(total, circ.gates + tuple(fanout_gates(regs, m)))
        for reg in regs:
            with self.span("synth.iqft", parent):
                iqft = build_inverse_qft(n, num_qubits=total, qubits=reg)
            with self.span("circuit.compose", parent):
                circ = cir.compose(circ, iqft)
        if not peephole_last:
            circ = self._peephole(circ, parent)
            self._report(circ, parent)
        if tail:
            with self.span("circuit.compose", parent):
                circ = cir.compose(circ, Circuit(total, tail))
        if peephole_last:
            circ = self._peephole(circ, parent)
        if tail or peephole_last:
            self._report(circ, parent)
        return circ

    def _compile_periodic(self, spec, plan: FSLPlan, grid, parent):
        with self.span("compiler.compile", parent) as sp:
            circ, _ = compiler.compile_spec(spec, plan, source=grid)
        again = self._assemble(spec.wrapped_vector(), plan.loader, registers(plan.n, plan.dims),
                               plan.m, 0, (), False, sp)
        _same_circuit(again, circ, "compile_spec")
        return circ

    def _compile_mirror(self, grid, plan: FSLPlan, parent):
        with self.span("compiler.compile", parent) as sp:
            circ, _ = compiler.compile_nonperiodic(grid, plan.m, NonperiodicVariant.DISENTANGLE, plan)
        with self.span("compiler.prepare", sp):
            spec = compiler.prepare_spec(fourier.mirror_extend(grid), plan.m)
        tail = tuple(cir.cnot(0, t) for t in range(1, grid.n + 1)) + (cir.h(0),)
        again = self._assemble(spec.wrapped_vector(), plan.loader, registers(grid.n + 1, 1),
                               plan.m, 0, tail, False, sp)
        _same_circuit(again, circ, "compile_nonperiodic")
        return circ

    def _compile_frqi(self, img, m: int, parent):
        with self.span("frqi.compile", parent) as sp:
            circ, _ = frqi.compile_frqi(img, m)
        with self.span("frqi.phase_spectra", sp):
            vec = frqi.phase_spectra(img, m)
        again = self._assemble(vec, Loader.UCR, registers(img.n, 2, lead=1), m, 1,
                               (cir.h(0), cir.phase(math.pi / 2, 0)), True, sp)
        _same_circuit(again, circ, "compile_frqi")
        return circ

    # -- simulation -------------------------------------------------------

    def _simulate(self, circ: Circuit, regs, m: int, tail: int, cli_run, parent):
        """Chain ``simulator.run`` over the loader, fan-out, iQFT and tail
        segments; ``cli_run`` is the (state, span) of the CLI's own run, which
        the chain must reproduce and which parents the segment spans."""
        if cli_run is not None:
            reference, parent = cli_run
        n, dims = len(regs[0]), len(regs)
        sizes = {"tail": tail, "iqft": dims * (n + n * (n - 1) // 2),
                 "fanout": dims * (n - m - 1)}
        sizes["loader"] = len(circ.gates) - sum(sizes.values())
        bounds, lo = [], 0
        for name in ("loader", "fanout", "iqft", "tail"):
            bounds.append((name, lo, lo + sizes[name]))
            lo += sizes[name]
        _check_split(circ, bounds, fanout_gates(regs, m), dims * n)
        bounds = [b for b in bounds if b[2] > b[1]]
        state = None
        for k, (name, lo, hi) in enumerate(bounds):
            perm = circ.output_permutation if k == len(bounds) - 1 else None
            segment = Circuit(circ.num_qubits, circ.gates[lo:hi], perm)
            with self.span(f"simulator.{name}", parent, gates=hi - lo,
                           amplitudes=2 ** circ.num_qubits):
                state = simulator.run(segment, initial=state)
        if cli_run is not None and simulator.fidelity(state, reference) < 1 - CHAIN_TOL:
            raise ReplayMismatch("chained segments and one simulator.run reach different states")
        return state

    # -- jobs -------------------------------------------------------------

    def job(self, job: Job, parent, cli_run) -> None:
        """Replay ``job`` under the ``parent`` span; ``cli_run`` is the
        (state, span) of the CLI's ``simulator.run`` call, or None."""
        if job.command == "image":
            self._image(job, parent, cli_run)
            return
        with self.span("funcs.sample", parent):
            fdef = funcs.builtin(job.function) if job.function else funcs.expression(job.expr)
            grid = funcs.sample(fdef, job.n)
        loader = Loader(job.loader)
        if job.command == "sweep":
            for m in range(job.m_range[0], job.m_range[1] + 1):
                with self.span("compiler.prepare", parent):
                    spec = compiler.prepare_spec(grid, m)
                self._compile_periodic(spec, FSLPlan(n=job.n, m=m, dims=fdef.dims, loader=loader),
                                       grid, parent)
            return
        plan = FSLPlan(n=job.n, m=job.m, dims=fdef.dims, loader=loader)
        mirror = job.command == "simulate" and fdef.name in funcs.MIRROR_DEFAULT
        if mirror:
            circ = self._compile_mirror(grid, plan, parent)
        else:
            with self.span("compiler.prepare", parent):
                spec = compiler.prepare_spec(grid, job.m)
            circ = self._compile_periodic(spec, plan, grid, parent)
        if job.command == "compile":
            self._materialize_and_export(circ, parent)
        elif mirror:
            state = self._simulate(circ, registers(job.n + 1, 1), job.m, job.n + 1, cli_run, parent)
            with self.span("simulator.fidelity", parent):
                block0 = state.amplitudes.reshape(2, -1)[0]
                simulator.reduced_population(state, 0, 0)
                abs(np.vdot(grid.samples, block0 / np.linalg.norm(block0))) ** 2
        else:
            state = self._simulate(circ, registers(job.n, fdef.dims), job.m, 0, cli_run, parent)
            with self.span("compiler.target", parent):
                target = compiler.target_state(spec, job.n)
            with self.span("simulator.fidelity", parent):
                simulator.fidelity(state, target)
                exact = simulator.Statevector(fdef.dims * job.n, grid.samples.reshape(-1))
                simulator.fidelity(state, exact)

    def _materialize_and_export(self, circ: Circuit, parent) -> None:
        if circ.has_opaque():
            with self.span("synth.decompose", parent):
                circ = decompose_opaque(circ)
            circ = self._peephole(circ, parent)
            self._report(circ, parent)
        with self.span("circuit.export", parent):
            cir.to_json_dict(circ)
            cir.export_qasm(circ)

    def _image(self, job: Job, parent, cli_run) -> None:
        with self.span("frqi.read", parent):
            img = frqi.read_pgm(job.pgm)
        circ = self._compile_frqi(img, job.m, parent)
        state = self._simulate(circ, registers(img.n, 2, lead=1), job.m, 2, cli_run, parent)
        with self.span("frqi.target", parent):
            truncated = frqi.frqi_truncated_target(img, job.m)
        with self.span("simulator.fidelity", parent):
            simulator.fidelity(state, truncated)
        with self.span("frqi.target", parent):
            exact = frqi.frqi_target(img)
        with self.span("simulator.fidelity", parent):
            simulator.fidelity(state, exact)


def _check_split(circ: Circuit, bounds, fanout: list, iqft_h: int) -> None:
    """The derived segments hold what their names say: the fan-out segment is
    exactly the expected CNOT tree, the iQFT segment has one H per register
    wire and no other kinds but CPHASE, and the loader segment is not empty."""
    seg = {name: circ.gates[lo:hi] for name, lo, hi in bounds}
    kinds = {name: [g.kind for g in gates] for name, gates in seg.items()}
    ok = (len(seg["loader"]) > 0
          and [(g.kind, g.qubits) for g in seg["fanout"]] == [(g.kind, g.qubits) for g in fanout]
          and set(kinds["iqft"]) <= {GateKind.H, GateKind.CPHASE}
          and kinds["iqft"].count(GateKind.H) == iqft_h
          and set(kinds["tail"]) <= {GateKind.CNOT, GateKind.H, GateKind.PHASE})
    if not ok:
        raise ReplayMismatch("the derived loader/fan-out/iQFT/tail split does not fit the circuit")
