"""Gate-level circuit representation.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of a computational-basis index, so the
  basis state |b0 b1 ... b_{q-1}> has index sum(b_t * 2**(q-1-t)).
* Circuits are immutable values: a gate list plus an output permutation.
  ``output_permutation[i] = w`` means logical qubit ``i`` of the circuit's
  output lives on wire ``w`` (used to elide the terminal SWAP network of the
  QFT).  The identity permutation is the common case.
* Angles are stored as given, without mod-2*pi reduction.
"""
from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import NotUnitary, OpaqueGatePresent


class GateKind(str, Enum):
    H = "H"
    X = "X"
    RY = "RY"
    RZ = "RZ"
    PHASE = "PHASE"
    CNOT = "CNOT"
    CPHASE = "CPHASE"
    SWAP = "SWAP"
    OPAQUE_UNITARY = "OPAQUE_UNITARY"


_ARITY = {
    GateKind.H: 1,
    GateKind.X: 1,
    GateKind.RY: 1,
    GateKind.RZ: 1,
    GateKind.PHASE: 1,
    GateKind.CNOT: 2,
    GateKind.CPHASE: 2,
    GateKind.SWAP: 2,
}

_ANGLED = {GateKind.RY, GateKind.RZ, GateKind.PHASE, GateKind.CPHASE}

UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class Gate:
    """A single gate: kind, qubit tuple (controls first), optional angle/matrix."""

    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None
    matrix: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(map(int, self.qubits)))
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubit in gate {self.kind}: {self.qubits}")
        if self.kind is GateKind.OPAQUE_UNITARY:
            if self.matrix is None:
                raise ValueError("OPAQUE_UNITARY requires a matrix")
            dim = 2 ** len(self.qubits)
            mat = np.asarray(self.matrix, dtype=complex)
            if mat.shape != (dim, dim):
                raise ValueError(f"matrix shape {mat.shape} does not match {len(self.qubits)} qubits")
            if np.max(np.abs(mat.conj().T @ mat - np.eye(dim))) >= UNITARITY_TOL:
                raise NotUnitary(f"opaque gate '{self.label}' is not unitary")
            mat = np.ascontiguousarray(mat)
            mat.setflags(write=False)
            object.__setattr__(self, "matrix", mat)
        else:
            if len(self.qubits) != _ARITY[self.kind]:
                raise ValueError(f"{self.kind} expects {_ARITY[self.kind]} qubits, got {self.qubits}")
            if self.kind in _ANGLED:
                if self.angle is None or not math.isfinite(self.angle):
                    raise ValueError(f"{self.kind} requires a finite angle, got {self.angle}")
                object.__setattr__(self, "angle", float(self.angle))
            elif self.angle is not None:
                raise ValueError(f"{self.kind} takes no angle")

    def inverse(self) -> Gate:
        if self.kind in _ANGLED:
            return Gate(self.kind, self.qubits, -self.angle)
        if self.kind is GateKind.OPAQUE_UNITARY:
            return Gate(self.kind, self.qubits, matrix=self.matrix.conj().T, label=self.label + "+")
        return self  # H, X, CNOT, SWAP are self-inverse

    def remap(self, mapping) -> Gate:
        return Gate(self.kind, tuple(mapping[q] for q in self.qubits), self.angle, self.matrix, self.label)


# Short constructors; these keep circuit builders readable.
def h(q: int) -> Gate:
    return Gate(GateKind.H, (q,))


def x(q: int) -> Gate:
    return Gate(GateKind.X, (q,))


def ry(angle: float, q: int) -> Gate:
    return Gate(GateKind.RY, (q,), angle)


def rz(angle: float, q: int) -> Gate:
    return Gate(GateKind.RZ, (q,), angle)


def phase(angle: float, q: int) -> Gate:
    return Gate(GateKind.PHASE, (q,), angle)


def cnot(control: int, target: int) -> Gate:
    return Gate(GateKind.CNOT, (control, target))


def cphase(angle: float, a: int, b: int) -> Gate:
    return Gate(GateKind.CPHASE, (a, b), angle)


def swap(a: int, b: int) -> Gate:
    return Gate(GateKind.SWAP, (a, b))


def unitary(matrix: np.ndarray, qubits, label: str = "U") -> Gate:
    return Gate(GateKind.OPAQUE_UNITARY, tuple(qubits), matrix=np.asarray(matrix, dtype=complex), label=label)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over ``num_qubits`` wires plus an output permutation."""

    num_qubits: int
    gates: tuple[Gate, ...] = ()
    output_permutation: tuple[int, ...] = None  # identity when omitted

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        perm = self.output_permutation
        if perm is None:
            perm = tuple(range(self.num_qubits))
        else:
            perm = tuple(int(p) for p in perm)
        if sorted(perm) != list(range(self.num_qubits)):
            raise ValueError(f"invalid output permutation {perm}")
        object.__setattr__(self, "output_permutation", perm)
        wires = [q for g in self.gates for q in g.qubits]
        if wires and (min(wires) < 0 or max(wires) >= self.num_qubits):
            g = next(g for g in self.gates if not all(0 <= q < self.num_qubits for q in g.qubits))
            raise ValueError(f"gate {g.kind} on {g.qubits} outside {self.num_qubits} qubits")

    @property
    def is_identity_permutation(self) -> bool:
        return self.output_permutation == tuple(range(self.num_qubits))

    def has_opaque(self) -> bool:
        return any(g.kind is GateKind.OPAQUE_UNITARY for g in self.gates)


@dataclass(frozen=True)
class GateCounts:
    single_qubit: int
    two_qubit: int
    opaque: int
    by_kind: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.single_qubit + self.two_qubit + self.opaque


def depth(c: Circuit) -> int:
    """ASAP-layered depth: each gate enters the earliest layer after every
    earlier gate sharing one of its qubits.  Opaque gates count as depth 1."""
    busy_until = [0] * c.num_qubits  # never decreases, so its max is the depth
    for g in c.gates:
        qubits = g.qubits
        if len(qubits) == 1:
            busy_until[qubits[0]] += 1
        elif len(qubits) == 2:
            a, b = qubits
            la, lb = busy_until[a], busy_until[b]
            busy_until[a] = busy_until[b] = (la if la > lb else lb) + 1
        else:
            layer = 1 + max(busy_until[q] for q in qubits)
            for q in qubits:
                busy_until[q] = layer
    return max(busy_until, default=0)


def gate_counts(c: Circuit) -> GateCounts:
    kinds = Counter(g.kind for g in c.gates)
    single = sum(k for kind, k in kinds.items() if _ARITY.get(kind) == 1)
    two = sum(k for kind, k in kinds.items() if _ARITY.get(kind) == 2)
    by_kind = {kind.value: k for kind, k in kinds.items()}
    return GateCounts(single, two, kinds[GateKind.OPAQUE_UNITARY], by_kind)


def _inverse_permutation(perm) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def invert(c: Circuit) -> Circuit:
    """Exact inverse circuit: reversed gate list with inverted gates.

    A circuit means P_perm composed after its gate product, so the inverse
    carries the inverse permutation and its gates are conjugated onto the
    permuted wires.
    """
    iperm = _inverse_permutation(c.output_permutation)
    gates = tuple(g.inverse().remap(iperm) for g in reversed(c.gates))
    return Circuit(c.num_qubits, gates, iperm)


def compose(a: Circuit, b: Circuit) -> Circuit:
    """Circuit equal to running ``a`` then ``b`` (b's qubits are logical wrt a's output)."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("qubit count mismatch in compose")
    if a.is_identity_permutation:
        gates = a.gates + b.gates
    else:
        gates = a.gates + tuple(g.remap(a.output_permutation) for g in b.gates)
    perm = tuple(a.output_permutation[b.output_permutation[j]] for j in range(a.num_qubits))
    return Circuit(a.num_qubits, gates, perm)


def _cancel_sweep(gates, num_qubits: int) -> tuple[list[Gate], bool]:
    """One left-to-right sweep that drops each CNOT equal to the kept gate just
    before it on both wires; also says whether a later sweep could drop more.

    Each wire keeps a stack of kept-gate indices.  A cancelled pair pops both
    stacks, uncovering the gates beneath, which may not pair again within the
    same sweep; an uncovered CNOT that meets an equal one flags a later sweep."""
    stacks = [[] for _ in range(num_qubits)]
    pushed = [True] * num_qubits  # the wire's top was pushed, not uncovered
    dropped = set()
    uncovered_pair = False
    for i, g in enumerate(gates):
        qubits = g.qubits
        if g.kind is GateKind.CNOT:
            a, b = qubits
            sa, sb = stacks[a], stacks[b]
            if sa and sb and sa[-1] == sb[-1]:
                top = gates[sa[-1]]
                if top.kind is GateKind.CNOT and top.qubits == qubits:
                    if pushed[a] and pushed[b]:
                        dropped.add(sa.pop())
                        sb.pop()
                        dropped.add(i)
                        pushed[a] = pushed[b] = False
                        continue
                    uncovered_pair = True
        for q in qubits:
            stacks[q].append(i)
            pushed[q] = True
    return [g for i, g in enumerate(gates) if i not in dropped], uncovered_pair


def peephole_cancel_cnots(c: Circuit) -> Circuit:
    """Drop adjacent identical CNOT pairs (same control and target, nothing in
    between on either qubit), then the pairs that dropping makes adjacent.

    Each sweep drops the pairs adjacent in its input, pairing runs of equal
    CNOTs from the left.  A sweep that uncovers no equal pair is the last; a
    further sweep runs only when a dropped pair sat between two equal CNOTs."""
    gates, again = _cancel_sweep(c.gates, c.num_qubits)
    while again:
        gates, again = _cancel_sweep(gates, c.num_qubits)
    return Circuit(c.num_qubits, tuple(gates), c.output_permutation)


# ---------------------------------------------------------------------------
# Serialization

_QASM_NAMES = {
    GateKind.H: "h",
    GateKind.X: "x",
    GateKind.RY: "ry",
    GateKind.RZ: "rz",
    GateKind.PHASE: "u1",
    GateKind.CNOT: "cx",
    GateKind.CPHASE: "cp",
    GateKind.SWAP: "swap",
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


_FLOAT_TAG = "\x00f:"


def _tag_floats(obj):
    if isinstance(obj, float):
        return _FLOAT_TAG + _fmt(obj)
    if isinstance(obj, dict):
        return {k: _tag_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tag_floats(v) for v in obj]
    return obj


def dumps(obj, **kwargs) -> str:
    """json.dumps with floats rendered to 17 significant digits."""
    text = json.dumps(_tag_floats(obj), **kwargs)
    return re.sub(r'"\\u0000f:([^"]*)"', r"\1", text)


def permutation_to_swaps(perm) -> list[tuple[int, int]]:
    """SWAP gate sequence (in application order) whose net effect equals
    applying ``perm`` at the end of the circuit."""
    r = list(perm)
    swaps = []
    for i in range(len(r)):
        if r[i] != i:
            j = r[i]
            swaps.append((i, j))
            for t in range(len(r)):  # left-compose the transposition (i j)
                if r[t] == i:
                    r[t] = j
                elif r[t] == j:
                    r[t] = i
    return swaps


def _gate_texts(c: Circuit, parts) -> list[str]:
    """One text per gate.  ``parts(g)`` gives the text before and after the
    angle, which depends only on the gate's kind and qubits, so it runs once
    per distinct pair (and raises for an opaque gate); only angles are
    formatted per gate."""
    texts = []
    fixed: dict = {}
    for g in c.gates:
        key = (g.kind, g.qubits)
        around = fixed.get(key)
        if around is None:
            around = fixed[key] = parts(g)
        if g.angle is None:
            texts.append(around[0])
        else:
            texts.append(around[0] + format(g.angle, ".17g") + around[1])  # angles are floats
    return texts


def _qasm_parts(g: Gate) -> tuple[str, str]:
    if g.kind is GateKind.OPAQUE_UNITARY:
        raise OpaqueGatePresent(f"cannot export opaque gate '{g.label}'; decompose first")
    name = _QASM_NAMES[g.kind]
    args = ",".join(f"q[{q}]" for q in g.qubits)
    if g.kind in _ANGLED:
        return f"{name}(", f") {args};"
    return f"{name} {args};", ""


def export_qasm(c: Circuit) -> str:
    """Deterministic OpenQASM 2.0 text.

    Requires a fully decomposed circuit (no opaque gates).  A non-identity
    output permutation is materialized with explicit terminal SWAPs so the
    program needs no external bookkeeping.  ``cp`` follows the modern qelib1
    naming; ``u1`` is the plain phase gate.
    """
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{c.num_qubits}];"]
    lines += _gate_texts(c, _qasm_parts)
    if not c.is_identity_permutation:
        for a, b in permutation_to_swaps(c.output_permutation):
            lines.append(f"swap q[{a}],q[{b}];")
    return "\n".join(lines) + "\n"


def _not_serializable(g: Gate) -> OpaqueGatePresent:
    return OpaqueGatePresent(f"cannot serialize opaque gate '{g.label}'; decompose first")


def to_json_dict(c: Circuit) -> dict:
    """Circuit as the documented JSON schema (opaque gates are not representable)."""
    gates = []
    for g in c.gates:
        if g.kind is GateKind.OPAQUE_UNITARY:
            raise _not_serializable(g)
        entry = {"kind": g.kind.value, "qubits": list(g.qubits)}
        if g.angle is not None:
            entry["angle"] = g.angle
        gates.append(entry)
    return {
        "num_qubits": c.num_qubits,
        "gates": gates,
        "output_permutation": list(c.output_permutation),
    }


def from_json_dict(d: dict) -> Circuit:
    gates = tuple(
        Gate(GateKind(e["kind"]), tuple(e["qubits"]), e.get("angle"))
        for e in d["gates"]
    )
    return Circuit(int(d["num_qubits"]), gates, tuple(d["output_permutation"]))


# What ``dumps(to_json_dict(c), indent=2)`` writes before each gate's first qubit.
_JSON_GATE_HEAD = {kind: f'    {{\n      "kind": "{kind.value}",\n      "qubits": [\n        '
                   for kind in _ARITY}


def _json_parts(g: Gate) -> tuple[str, str]:
    head = _JSON_GATE_HEAD.get(g.kind)
    if head is None:
        raise _not_serializable(g)
    text = head + ",\n        ".join(map(str, g.qubits)) + "\n      ]"
    if g.kind in _ANGLED:
        return text + ',\n      "angle": ', "\n    }"
    return text + "\n    }", ""


def to_json(c: Circuit) -> str:
    """The ``to_json_dict`` schema, floats to 17 significant digits (exact round
    trip), byte for byte as ``dumps(to_json_dict(c), indent=2)`` lays it out."""
    entries = _gate_texts(c, _json_parts)
    gates = "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"
    perm = ",\n    ".join(map(str, c.output_permutation))
    perm = f"[\n    {perm}\n  ]" if perm else "[]"
    return (f'{{\n  "num_qubits": {c.num_qubits},\n  "gates": {gates},\n'
            f'  "output_permutation": {perm}\n}}')


def from_json(text: str) -> Circuit:
    return from_json_dict(json.loads(text))
