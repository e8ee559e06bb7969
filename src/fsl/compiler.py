"""End-to-end compilation: windowed Fourier coefficients in, circuit out.

Every load is built by ``assemble``, on ``lead`` leading wires followed by D
registers of n wires each:

  1. a loader U_c (UCR or Schmidt, both at gate level) preparing the loader
     vector on the lead wires plus the top m+1 wires of every register (one
     loader call, which may load factors on disjoint wires: the UCR loader
     splits a vector that is a product across some cut, such as a separable
     function's across its registers);
  2. a CNOT fan-out from each register's sign wire (position n-m-1 within
     the register) that pads the negative frequencies up to the full register,
     a balanced tree of depth ceil(log2(n-m));
  3. an inverse QFT per register, converting frequencies to samples, whose
     terminal swaps are elided into the circuit's output permutation;
  4. the caller's tail gates, moved onto the wires that permutation names.

``assemble`` concatenates the four steps' kind, wire and angle columns into
one ``Circuit`` and returns it with its ``CompileReport``.  No optimisation
pass runs over the result: the UCR loader is emitted with the CNOT pairs where
its blocks meet already cancelled, and no step leaves a pair for another.

``compile_spec`` uses no lead wires, and no tail for a periodic load.  With a
``NonperiodicVariant`` it is the mirror load of an (n+1)-wire extension: a
CNOT/H tail disentangles the ancilla, or the report carries a measurement rule
instead; ``compile_nonperiodic`` is its grid-level form.  The image load
``frqi.compile_frqi`` uses one lead colour wire and an H+S tail on it.

``target_state`` evaluates the same truncated series directly and is the
oracle every compiled circuit is checked against.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from enum import Enum

import numpy as np

from . import fourier
from .circuit import Circuit, Gate, GateCounts, cnot, cnot_rows, depth, gate_counts, h
from .errors import CapacityExceeded, DimensionMismatch
from .fourier import FourierSpec, GridFunction
from .simulator import DEFAULT_MAX_QUBITS, Statevector
from .synth import build_inverse_qft, build_schmidt_circuit, build_ucr_circuit


class Loader(str, Enum):
    UCR = "ucr"
    SCHMIDT = "schmidt"


class NonperiodicVariant(str, Enum):
    DISENTANGLE = "disentangle"
    MEASURE = "measure"


@dataclass(frozen=True)
class FSLPlan:
    n: int
    m: int
    dims: int = 1
    loader: Loader = Loader.UCR
    max_qubits: int = DEFAULT_MAX_QUBITS

    def __post_init__(self):
        if self.dims < 1:
            raise ValueError("dims must be >= 1")
        if not 0 <= self.m < self.n:
            raise ValueError(f"need 0 <= m < n, got m={self.m}, n={self.n}")


# The widest load whose 2^total complex128 amplitudes numpy can address: 58 on 64-bit.
MAX_WIRES = (np.iinfo(np.intp).max // 16).bit_length() - 1


def check_capacity(plan: FSLPlan, lead: int = 0) -> None:
    """Reject a load wider than ``plan.max_qubits`` or, whatever that says, than
    ``MAX_WIRES``; callers run it before sampling and before any DFT."""
    total = lead + plan.dims * plan.n
    if total > plan.max_qubits:
        raise CapacityExceeded(f"{total} qubits exceeds capacity {plan.max_qubits} "
                               f"(raise max_qubits or FSL_MAX_QUBITS)")
    if total > MAX_WIRES:
        raise CapacityExceeded(f"{total} qubits exceeds the {MAX_WIRES}-qubit ceiling "
                               f"of an addressable complex128 state")


@dataclass(frozen=True)
class CompileReport:
    depth: int
    gate_counts: GateCounts
    exact_infidelity: float
    analytic_bound: float | None
    compile_wall_time: float
    post_processing: dict | None = None

    def to_dict(self, include_timing: bool = True) -> dict:
        """The fields as JSON values; the wall time is ``compile_wall_time_s``
        when timing is asked for, and a None ``post_processing`` is left out."""
        d = asdict(self)
        wall = d.pop("compile_wall_time")
        if include_timing:
            d["compile_wall_time_s"] = wall
        if self.post_processing is None:
            del d["post_processing"]
        return {**d, "contains_opaque": False}  # pinned by tests/test_cli_bytes.py


def target_state(spec: FourierSpec, n: int) -> Statevector:
    """Direct evaluation of the truncated series on every grid point.

    This is the reference oracle: embed the windowed coefficients at their
    signed frequencies in the full 2^n spectrum and reconstruct.  A window
    that is exactly Hermitian, ``np.array_equal(c, conj(c[::-1, ...]))`` as
    every real grid's is, gives a real series.  That series is its own
    conjugate, which ``irfftn`` sums from the conjugate window's k >= 0 half
    on the last axis.  Any other window goes through ``fourier.reconstruct``.
    """
    conj, side = np.conjugate(spec.coeffs), 2**n
    if np.array_equal(spec.coeffs, conj[(slice(None, None, -1),) * spec.dims]):
        half = replace(spec, coeffs=conj).embed(side, half=True)
        samples = np.fft.irfftn(half, s=(side,) * spec.dims, axes=range(spec.dims),
                                norm="forward")
    else:
        samples = fourier.reconstruct(spec.embed(side))
    # normalised before the reshape: a view of a writable owner would be copied
    return Statevector(spec.dims * n, fourier._unit(samples).reshape(-1))


def _fanout_pairs(wires: list[int]) -> list[tuple[int, int]]:
    """(control, target) of each CNOT copying the sign wire ``wires[0]`` onto
    the rest, in order: a balanced tree in which copy wire k takes its control
    from the wire k - 2^floor(log2 k), so k's copy lands in layer bit_length(k)."""
    return [(wires[k - (1 << (k.bit_length() - 1))], wires[k]) for k in range(1, len(wires))]


def assemble(vec: np.ndarray, plan: FSLPlan, captured: float, lead: int = 0,
             tail: tuple[Gate, ...] = (), bound: float | None = None,
             post_processing: dict | None = None) -> tuple[Circuit, CompileReport]:
    """The FSL circuit for loader vector ``vec`` (steps 1-4 of the module
    docstring) and its report; the window kept ``captured`` of the spectrum.

    The leading qubits of ``vec`` go on wires 0..lead-1, the rest on each
    register's m+1 coefficient wires.  ``tail`` gates address logical qubits
    (after the iQFTs' elided swaps) and are remapped onto wires; the steps'
    columns go into one ``Circuit``, on which no pass runs.  Callers check
    capacity first.  The report's ``compile_wall_time`` covers assembly only:
    the spectrum is computed before the clock starts, and depth and counts
    after it stops."""
    t0 = time.perf_counter()
    n, m = plan.n, plan.m
    total = lead + plan.dims * n
    regs = [list(range(lead + d * n, lead + (d + 1) * n)) for d in range(plan.dims)]
    loader_qubits = list(range(lead)) + [q for reg in regs for q in reg[n - m - 1:]]
    build = build_schmidt_circuit if plan.loader is Loader.SCHMIDT else build_ucr_circuit
    parts = [build(vec, qubits=loader_qubits, num_qubits=total)]
    parts += [cnot_rows(_fanout_pairs(reg[n - m - 1::-1])) for reg in regs]
    perm = list(range(total))  # logical qubit -> wire after the iQFTs' elided swaps
    for reg in regs:  # registers are disjoint, so no iQFT gate needs remapping
        parts.append(build_inverse_qft(n, num_qubits=total, qubits=reg))
        perm = [perm[p] for p in parts[-1].output_permutation]
    parts.append(Circuit(total, [g.remap(perm) for g in tail]))
    circ = Circuit.join(total, parts, perm)
    wall = time.perf_counter() - t0
    return circ, CompileReport(
        depth=depth(circ),
        gate_counts=gate_counts(circ),
        exact_infidelity=max(0.0, 1.0 - captured),
        analytic_bound=bound,
        compile_wall_time=wall,
        post_processing=post_processing,
    )


def compile_spec(spec: FourierSpec, plan: FSLPlan, source: GridFunction | None = None,
                 variant: NonperiodicVariant | None = None) -> tuple[Circuit, CompileReport]:
    """Load of a windowed spectrum; ``source``, the plan's grid, adds the analytic bound in 1D.

    With a ``variant``, ``spec``, ``plan`` and ``source`` describe the mirror
    extension of a 1D function on n+1 wires, wire 0 the ancilla.  DISENTANGLE
    appends CNOTs from it onto wires 1..n and an H on it, leaving it in |0>;
    MEASURE reports the rule that complements wires 1..n on its outcome 1."""
    if spec.dims != plan.dims:
        raise DimensionMismatch(f"spec has D={spec.dims}, plan has D={plan.dims}")
    if spec.m != plan.m:
        raise ValueError(f"spec was truncated at m={spec.m}, plan says m={plan.m}")
    if source is not None and (source.n, source.dims) != (plan.n, plan.dims):
        raise DimensionMismatch(f"source grid has n={source.n}, D={source.dims}; "
                                f"plan has n={plan.n}, D={plan.dims}")
    check_capacity(plan)
    bound = None
    if source is not None and source.dims == 1 and plan.m != plan.n - 1:
        bound = fourier.infidelity_bound(source, plan.m)
    tail, rule = (), None
    if variant is not None:
        if plan.dims != 1:
            raise DimensionMismatch("non-periodic loading is one-dimensional")
        variant = NonperiodicVariant(variant)
    if variant is NonperiodicVariant.DISENTANGLE:
        tail = tuple(cnot(0, t) for t in range(1, plan.n)) + (h(0),)
    elif variant is NonperiodicVariant.MEASURE:
        rule = {
            "measure_qubit": 0,
            "data_qubits": list(range(1, plan.n)),
            "on_outcome_1": "apply X to every data qubit (complement the register)",
        }
    return assemble(spec.wrapped_vector(), plan, spec.norm_constant, tail=tail, bound=bound,
                    post_processing=rule)


def prepare_spec(g: GridFunction, m: int, filter_a: float | None = None) -> FourierSpec:
    """Analysis pipeline: one transform up to m, its truncation window, optional Lanczos filter."""
    return fourier.truncate(fourier.spectrum(g, m), m, filter_a)


def compile_nonperiodic(g: GridFunction, m: int, variant: NonperiodicVariant,
                        plan: FSLPlan | None = None,
                        filter_a: float | None = None) -> tuple[Circuit, CompileReport]:
    """The mirror load of a 1D function: ``compile_spec`` with a ``variant`` on
    g's extension, whose window ``filter_a`` filters.  m is bounded by g's n
    wires, and the capacity is checked at n+1 before the grid is extended."""
    plan = replace(plan or FSLPlan(n=g.n, m=m), n=g.n, m=m, dims=1)
    plan = replace(plan, n=g.n + 1)
    check_capacity(plan)
    extended = fourier.mirror_extend(g)
    return compile_spec(prepare_spec(extended, m, filter_a), plan, extended, variant)
