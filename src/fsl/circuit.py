"""Gate-level circuit representation.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of a computational-basis index, so the
  basis state |b0 b1 ... b_{q-1}> has index sum(b_t * 2**(q-1-t)).
* Circuits are immutable values: a gate list plus an output permutation.
  ``output_permutation[i] = w`` means logical qubit ``i`` of the circuit's
  output lives on wire ``w`` (used to elide the terminal SWAP network of the
  QFT).  The identity permutation is the common case.
* Angles are stored as given, without mod-2*pi reduction.

A ``Circuit`` holds its gate list as columns, one row per gate:

* ``kinds``: uint8 codes, ``CODES[kind]`` (``KINDS[code]`` maps back); the
  kind's ``GateKind`` row holds its wire count, angle flag and QASM name;
* ``wires``: int32, gates x 2, controls first; a one-wire gate's second
  entry is -1;
* ``angles``: float64, NaN where the kind takes no angle.

The compile path, the writers and the simulator read and write the columns;
a ``Circuit`` checks them once, with whole-array tests.  ``Circuit.gates`` is the
tuple of ``Gate`` objects, built from the columns on first use and cached.
"""
from __future__ import annotations

import io
import json
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import count

import numpy as np


class GateKind(str, Enum):
    """One row per gate kind: name, wire count, whether it takes an angle, and
    OpenQASM name."""

    def __new__(cls, value: str, arity: int, angled: bool, qasm: str):
        kind = str.__new__(cls, value)
        kind._value_, kind.arity, kind.angled, kind.qasm = value, arity, angled, qasm
        return kind

    H = "H", 1, False, "h"
    X = "X", 1, False, "x"
    RY = "RY", 1, True, "ry"
    RZ = "RZ", 1, True, "rz"
    PHASE = "PHASE", 1, True, "u1"
    CNOT = "CNOT", 2, False, "cx"
    CPHASE = "CPHASE", 2, True, "cp"
    SWAP = "SWAP", 2, False, "swap"


KINDS = tuple(GateKind)
CODES = {kind: code for code, kind in enumerate(KINDS)}
_CNOT = CODES[GateKind.CNOT]
_ARITY_OF = np.full(256, -1)  # by code: 1 or 2 wires, -1 for no kind
_ARITY_OF[:len(KINDS)] = [kind.arity for kind in KINDS]
_ANGLED_OF = np.array([kind.angled for kind in KINDS] + [False] * (256 - len(KINDS)))


@dataclass(frozen=True)
class Gate:
    """A single gate: kind, qubit tuple (controls first), optional angle.
    Gates compare and hash by (kind, qubits, angle)."""

    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None
    matrix = None  # read by perfbench/replay.py's _gate_key
    label = ""  # read by perfbench/replay.py's _gate_key

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(map(int, self.qubits)))
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubit in gate {self.kind}: {self.qubits}")
        object.__setattr__(self, "kind", KINDS[CODES[self.kind]])  # KeyError for an unknown kind
        if len(self.qubits) != self.kind.arity:
            raise ValueError(f"{self.kind} expects {self.kind.arity} qubits, got {self.qubits}")
        if self.kind.angled:
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{self.kind} requires a finite angle, got {self.angle}")
            object.__setattr__(self, "angle", float(self.angle))
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")

    def remap(self, mapping) -> Gate:
        return Gate(self.kind, tuple(mapping[q] for q in self.qubits), self.angle)


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


def cnot_rows(pairs) -> tuple:
    """A (kinds, wires, angles) row block of CNOTs, one per (control, target) pair."""
    wires = np.array(pairs, dtype=np.int32).reshape(-1, 2)
    return np.full(len(wires), _CNOT, np.uint8), wires, np.full(len(wires), math.nan)


_COLUMN_TYPES = ((np.uint8, (-1,)), (np.int32, (-1, 2)), (np.float64, (-1,)))


def _permutation(num_qubits: int, perm) -> tuple[int, ...]:
    perm = tuple(range(num_qubits)) if perm is None else tuple(int(p) for p in perm)
    if sorted(perm) != list(range(num_qubits)):
        raise ValueError(f"invalid output permutation {perm}")
    return perm


class Circuit:
    """Ordered gate list over ``num_qubits`` wires plus an output permutation,
    held as kind, wire and angle columns (module docstring).

    ``Circuit(num_qubits, gates, output_permutation)`` takes ``Gate`` objects;
    ``Circuit.join`` builds one from row blocks and other circuits."""

    def __init__(self, num_qubits: int, gates=(), output_permutation=None):
        gates = tuple(gates)
        _permutation(num_qubits, output_permutation)
        wires = [q for g in gates for q in g.qubits]
        if wires and (min(wires) < 0 or max(wires) >= num_qubits):
            g = next(g for g in gates if not all(0 <= q < num_qubits for q in g.qubits))
            raise ValueError(f"gate {g.kind} on {g.qubits} outside {num_qubits} qubits")
        rows = ([CODES[g.kind] for g in gates], [(g.qubits + (-1, -1))[:2] for g in gates],
                [math.nan if g.angle is None else g.angle for g in gates])
        self._fill(num_qubits, rows, output_permutation)
        self.__dict__["gates"] = gates

    @classmethod
    def join(cls, num_qubits: int, parts, output_permutation=None) -> Circuit:
        """The circuit that runs ``parts`` in order.  A part is a Circuit (its
        gates; its output permutation is not used) or a (kinds, wires, angles)
        row block of kind codes, wire pairs padded with -1 and angles."""
        columns = [[np.empty(0, t).reshape(s)] for t, s in _COLUMN_TYPES]
        for part in parts:
            if isinstance(part, Circuit):
                part = part.kinds, part.wires, part.angles
            for column, values, (dtype, shape) in zip(columns, part, _COLUMN_TYPES):
                column.append(np.asarray(values, dtype).reshape(shape))
        c = cls.__new__(cls)
        c._fill(num_qubits, [np.concatenate(column) for column in columns], output_permutation)
        return c

    def _fill(self, num_qubits: int, rows, output_permutation) -> None:
        """Set the fields from columns and check them as whole arrays, in the
        order of the per-gate checks: the first faulty gate raises the error its
        ``Gate`` would, then the permutation and the wire range are checked."""
        kinds, wires, angles = (np.asarray(values, dtype).reshape(shape)
                                for values, (dtype, shape) in zip(rows, _COLUMN_TYPES))
        for column in (kinds, wires, angles):
            column.setflags(write=False)
        self.num_qubits, self.kinds, self.wires, self.angles = num_qubits, kinds, wires, angles

        arity, (a, b) = _ARITY_OF[kinds], wires.T
        ok = (arity > 0) & (a >= 0) & np.where(arity == 1, b == -1, (b >= 0) & (b != a)) \
            & (np.isfinite(angles) == _ANGLED_OF[kinds])
        if not ok.all():
            i = int(np.argmin(ok))
            k, angle = int(kinds[i]), float(angles[i])
            if arity[i] > 0:  # the Gate constructor names the fault as for a gate object
                Gate(KINDS[k], self._qubits(i), None if math.isnan(angle) else angle)
            raise ValueError(f"gate row {i} (kind code {k}, wires {wires[i].tolist()}) is malformed")
        self.output_permutation = _permutation(num_qubits, output_permutation)
        if wires.max(initial=-1) >= num_qubits:
            i = int(np.argmax(wires.max(axis=1) >= num_qubits))
            raise ValueError(f"gate {KINDS[kinds[i]]} on {self._qubits(i)} outside {num_qubits} qubits")

    def _qubits(self, i: int) -> tuple[int, ...]:
        return tuple(q for q in self.wires[i].tolist() if q != -1)

    @cached_property
    def gates(self) -> tuple[Gate, ...]:
        """The gate list as ``Gate`` objects, materialised from the columns once."""
        return tuple(Gate(KINDS[k], (a,) if b < 0 else (a, b), None if angle != angle else angle)
                     for k, a, b, angle in zip(self.kinds.tolist(), *self.wires.T.tolist(),
                                               self.angles.tolist()))

    def take(self, keep) -> Circuit:
        """The gates that ``keep`` (a slice or boolean mask) selects, in order,
        with this circuit's output permutation."""
        c = Circuit.__new__(Circuit)
        c._fill(self.num_qubits, (self.kinds[keep], self.wires[keep], self.angles[keep]),
                self.output_permutation)
        return c

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return (self.num_qubits, self.gates, self.output_permutation) == \
            (other.num_qubits, other.gates, other.output_permutation)

    def __hash__(self):
        return hash((self.num_qubits, self.gates, self.output_permutation))

    def __repr__(self):
        return (f"Circuit(num_qubits={self.num_qubits!r}, gates={self.gates!r}, "
                f"output_permutation={self.output_permutation!r})")

    def has_opaque(self) -> bool:  # called by perfbench/replay.py's _materialize_and_export
        return False


@dataclass(frozen=True)
class GateCounts:
    single_qubit: int
    two_qubit: int
    by_kind: dict = field(default_factory=dict)
    opaque: int = 0  # read by perfbench/workloads.py (_check_emitted, _report_counts)


def depth(c: Circuit) -> int:
    """ASAP-layered depth: each gate enters the earliest layer after every
    earlier gate sharing one of its qubits."""
    busy_until = [0] * c.num_qubits  # never decreases, so its max is the depth
    for a, b in zip(*c.wires.T.tolist()):
        if b < 0:
            busy_until[a] += 1
        else:
            la, lb = busy_until[a], busy_until[b]
            busy_until[a] = busy_until[b] = (la if la > lb else lb) + 1
    return max(busy_until, default=0)


def gate_counts(c: Circuit) -> GateCounts:
    counts = np.bincount(c.kinds, minlength=len(KINDS)).tolist()
    present, first = np.unique(c.kinds, return_index=True)
    by_kind = {KINDS[k].value: counts[k] for k in present[np.argsort(first)].tolist()}
    arity = _ARITY_OF[:len(KINDS)].tolist()
    return GateCounts(sum(n for n, a in zip(counts, arity) if a == 1),
                      sum(n for n, a in zip(counts, arity) if a == 2), by_kind)


def compose(a: Circuit, b: Circuit) -> Circuit:
    """Circuit equal to running ``a`` then ``b`` (b's qubits are logical wrt a's output)."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("qubit count mismatch in compose")
    gates = a.gates + tuple(g.remap(a.output_permutation) for g in b.gates)
    perm = tuple(a.output_permutation[b.output_permutation[j]] for j in range(a.num_qubits))
    return Circuit(a.num_qubits, gates, perm)


def peephole_cancel_cnots(c: Circuit) -> Circuit:
    """Drop adjacent identical CNOT pairs (same control and target, nothing in
    between on either qubit), then the pairs that dropping makes adjacent.

    A utility off the compile path, kept for its public callers: the compiled
    circuits hold no such pair.  Each sweep drops the pairs adjacent in its
    input, pairing runs of equal CNOTs from the left, and sweeps repeat until
    one drops nothing."""
    while True:
        kinds, (controls, targets) = c.kinds.tolist(), c.wires.T.tolist()
        keep = np.ones(len(kinds), bool)
        last = [-1] * (c.num_qubits + 1)  # wire -> last kept gate on it; the extra slot is wire -1
        for i, kind, a, b in zip(count(), kinds, controls, targets):
            j = last[a]
            if kind == _CNOT and j >= 0 and j == last[b] and kinds[j] == _CNOT and controls[j] == a:
                keep[j] = keep[i] = False
                last[a] = last[b] = -1
            else:
                last[a] = last[b] = i
        if keep.all():
            return c
        c = c.take(keep)


# ---------------------------------------------------------------------------
# Serialization

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


def _qasm_parts(kind: GateKind, qubits) -> tuple[str, str]:
    args = ",".join(f"q[{q}]" for q in qubits)
    if kind.angled:
        return f"{kind.qasm}(", f") {args};"
    return f"{kind.qasm} {args};", ""


# What ``json.dumps(..., indent=2)`` writes before each gate's first qubit.
_JSON_GATE_HEAD = {kind: f'    {{\n      "kind": "{kind.value}",\n      "qubits": [\n        '
                   for kind in KINDS}


def _json_parts(kind: GateKind, qubits) -> tuple[str, str]:
    text = _JSON_GATE_HEAD[kind] + ",\n        ".join(map(str, qubits)) + "\n      ]"
    if kind.angled:
        return text + ',\n      "angle": ', "\n    }"
    return text + "\n    }", ""


_BLOCK = 4096  # gates formatted and written per step of ``write_circuit``


def write_circuit(c: Circuit, json_out=None, qasm_out=None) -> None:
    """Write ``to_json(c)`` to the text stream ``json_out`` and ``export_qasm(c)``
    to ``qasm_out``; either may be None.

    The gate columns are walked ``_BLOCK`` gates at a time: each block's angles
    are formatted once, for both texts, and each gate's text is its angle
    between two texts that depend only on its row of kind and wires, built once
    per distinct row in the block.  So no text of the whole circuit is held."""
    outs = []  # (stream, parts, text between gates)
    if json_out is not None:
        json_out.write(f'{{\n  "num_qubits": {c.num_qubits},\n  "gates": [')
        outs.append((json_out, _json_parts, ",\n"))
    if qasm_out is not None:
        qasm_out.write(f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{c.num_qubits}];')
        outs.append((qasm_out, _qasm_parts, "\n"))
    if not outs:
        return
    base = c.num_qubits + 1
    for lo in range(0, len(c.kinds), _BLOCK):
        kinds, wires = c.kinds[lo:lo + _BLOCK], c.wires[lo:lo + _BLOCK]
        key = (kinds.astype(np.int64) * base + wires[:, 0]) * base + wires[:, 1] + 1
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        rows = [(KINDS[k], (a,) if b < 0 else (a, b))
                for k, (a, b) in zip(kinds[first].tolist(), wires[first].tolist())]
        angles = ["" if a != a else format(a, ".17g") for a in c.angles[lo:lo + _BLOCK].tolist()]
        inverse = inverse.tolist()
        for out, parts, sep in outs:
            around = [parts(*row) for row in rows]
            out.write(sep if lo else "\n")
            out.write(sep.join([head + angle + end for (head, end), angle
                                in zip(map(around.__getitem__, inverse), angles)]))
    if json_out is not None:
        perm = ",\n    ".join(map(str, c.output_permutation))
        perm = f"[\n    {perm}\n  ]" if perm else "[]"
        close = "\n  ]" if len(c.kinds) else "]"
        json_out.write(f'{close},\n  "output_permutation": {perm}\n}}')
    if qasm_out is not None:
        qasm_out.write("".join(f"\nswap q[{a}],q[{b}];"
                               for a, b in permutation_to_swaps(c.output_permutation)) + "\n")


def export_qasm(c: Circuit) -> str:
    """Deterministic OpenQASM 2.0 text (``write_circuit``).

    A non-identity output permutation is materialized with explicit terminal SWAPs so the
    program needs no external bookkeeping.  ``cp`` follows the modern qelib1
    naming; ``u1`` is the plain phase gate.
    """
    out = io.StringIO()
    write_circuit(c, qasm_out=out)
    return out.getvalue()


def to_json(c: Circuit) -> str:
    """The circuit as the documented JSON schema (``num_qubits``; ``gates``, each
    with ``kind``, ``qubits`` and, if the kind takes one, ``angle``;
    ``output_permutation``), laid out as ``dumps(..., indent=2)`` would, floats
    to 17 significant digits (exact round trip); written by ``write_circuit``."""
    out = io.StringIO()
    write_circuit(c, json_out=out)
    return out.getvalue()


def to_json_dict(c: Circuit) -> dict:
    """The ``to_json`` schema as a dict: its text read back, so an integral
    angle (-0.0 too) comes back as a JSON integer of equal value."""
    return json.loads(to_json(c))


def from_json(text: str) -> Circuit:
    d = json.loads(text)
    gates = tuple(Gate(GateKind(e["kind"]), tuple(e["qubits"]), e.get("angle")) for e in d["gates"])
    return Circuit(int(d["num_qubits"]), gates, tuple(d["output_permutation"]))
