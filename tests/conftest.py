"""Shared test helpers: random inputs, states and images, and an independent
dense-matrix oracle.

The dense oracle builds every gate as an explicit 2^n x 2^n matrix from index
arithmetic over basis states, deliberately sharing no code with the stride
simulator it checks.
"""
import cmath
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fsl.circuit import Circuit, Gate, GateCounts, GateKind, cnot, compose, ry, rz
from fsl.compiler import FSLPlan, Loader
from fsl.simulator import Statevector
from fsl.synth import (ANGLE_EPS, build_inverse_qft, build_schmidt_circuit, build_ucr_circuit,
                       gray_code, gray_transform, mottonen_angles)


def rand_state(rng, q):
    v = rng.standard_normal(2**q) + 1j * rng.standard_normal(2**q)
    return v / np.linalg.norm(v)


def rand_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def zero_state(n) -> Statevector:
    """|0...0> on ``n`` qubits."""
    return Statevector(n, np.eye(1, 2**n, dtype=complex)[0])


def reduced_density_matrix(s: Statevector, qubits: tuple[int, ...]) -> np.ndarray:
    """Reduced density matrix of the listed qubits (kept in the given order)."""
    n = s.num_qubits
    keep = list(qubits)
    rest = [q for q in range(n) if q not in keep]
    moved = np.transpose(s.amplitudes.reshape([2] * n), keep + rest).reshape(2 ** len(keep), -1)
    return moved @ moved.conj().T


def write_pgm(path, brightness) -> None:
    """A binary 8-bit PGM of a square brightness array in [0, 1]: pixel =
    round(255 * brightness)."""
    pixels = np.round(np.asarray(brightness) * 255).astype(np.uint8)
    Path(path).write_bytes(b"P5\n%d %d\n255\n" % pixels.shape + pixels.tobytes())


def random_circuit(rng, n, num_gates, include_opaque=False, random_perm=False):
    kinds = [GateKind.H, GateKind.X, GateKind.RY, GateKind.RZ, GateKind.PHASE,
             GateKind.CNOT, GateKind.CPHASE, GateKind.SWAP]
    if include_opaque:
        kinds.append(GateKind.OPAQUE_UNITARY)
    gates = []
    for _ in range(num_gates):
        kind = kinds[rng.integers(len(kinds))]
        if kind is GateKind.OPAQUE_UNITARY:
            k = int(rng.integers(1, min(3, n) + 1))
            qubits = tuple(int(v) for v in rng.choice(n, size=k, replace=False))
            gates.append(Gate(kind, qubits, matrix=rand_unitary(rng, 2**k)))
            continue
        arity = 2 if kind in (GateKind.CNOT, GateKind.CPHASE, GateKind.SWAP) else 1
        qubits = tuple(int(v) for v in rng.choice(n, size=arity, replace=False))
        angle = None
        if kind in (GateKind.RY, GateKind.RZ, GateKind.PHASE, GateKind.CPHASE):
            angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        gates.append(Gate(kind, qubits, angle))
    perm = None
    if random_perm:
        perm = tuple(int(v) for v in rng.permutation(n))
    return Circuit(n, tuple(gates), perm)


def gate_key(g: Gate):
    """Everything that makes two gates the same gate; opaque matrices by their bytes."""
    return g.kind, g.qubits, g.angle, g.label, None if g.matrix is None else g.matrix.tobytes()


def reference_depth(c: Circuit) -> int:
    """The per-``Gate`` ASAP layering ``depth`` replaced: each gate one layer
    past the latest layer on any of its wires."""
    busy_until = [0] * c.num_qubits
    for g in c.gates:
        layer = 1 + max(busy_until[q] for q in g.qubits)
        for q in g.qubits:
            busy_until[q] = layer
    return max(busy_until, default=0)


def reference_gate_counts(c: Circuit) -> GateCounts:
    """The per-``Gate`` count ``gate_counts`` replaced: a ``Counter`` over the
    kinds, in first-seen order, split by the plain kinds' arity."""
    kinds = Counter(g.kind for g in c.gates)
    arity = {k: 2 if k in (GateKind.CNOT, GateKind.CPHASE, GateKind.SWAP) else 1
             for k in GateKind if k is not GateKind.OPAQUE_UNITARY}
    return GateCounts(sum(k for kind, k in kinds.items() if arity.get(kind) == 1),
                      sum(k for kind, k in kinds.items() if arity.get(kind) == 2),
                      kinds[GateKind.OPAQUE_UNITARY], {kind.value: k for kind, k in kinds.items()})


def reference_peephole(c: Circuit) -> Circuit:
    """The fixed-point CNOT cancellation ``peephole_cancel_cnots`` replaced:
    whole passes over the gate list, each dropping the identical CNOT pairs
    adjacent in its input, until one pass drops nothing."""
    gates = list(c.gates)
    changed = True
    while changed:
        changed = False
        kept = []
        last_on = {}  # qubit -> index into kept
        for g in gates:
            if g.kind is GateKind.CNOT:
                i = last_on.get(g.qubits[0], -1)
                j = last_on.get(g.qubits[1], -1)
                if i >= 0 and i == j and kept[i] is not None \
                        and kept[i].kind is GateKind.CNOT and kept[i].qubits == g.qubits:
                    kept[i] = None
                    for q in g.qubits:
                        del last_on[q]
                    changed = True
                    continue
            kept.append(g)
            for q in g.qubits:
                last_on[q] = len(kept) - 1
        gates = [g for g in kept if g is not None]
    return Circuit(c.num_qubits, tuple(gates), c.output_permutation)


def reference_fanout_pairs(source: int, targets: list[int]) -> list[tuple[int, int]]:
    """The balanced fan-out tree as a queue: each round, every wire that already
    holds the sign copies it onto the next target in line, until none is left."""
    holders = [source]
    queue = list(targets)
    pairs = []
    while queue:
        for hold in list(holders):
            if not queue:
                break
            t = queue.pop(0)
            pairs.append((hold, t))
            holders.append(t)
    return pairs


def reference_assembly(vec, plan: FSLPlan, lead: int = 0, tail=()) -> Circuit:
    """The load ``compiler.assemble`` builds, put together the way it used to
    be: the loader, the queue-built fan-out and each iQFT joined by
    ``compose``, the tail composed last, then the fixed-point peephole pass."""
    n, m = plan.n, plan.m
    total = lead + plan.dims * n
    regs = [list(range(lead + d * n, lead + (d + 1) * n)) for d in range(plan.dims)]
    wires = list(range(lead)) + [q for reg in regs for q in reg[n - m - 1:]]
    build = build_schmidt_circuit if plan.loader is Loader.SCHMIDT else build_ucr_circuit
    circ = build(vec, qubits=wires, num_qubits=total)
    fanout = [cnot(*pair) for reg in regs
              for pair in reference_fanout_pairs(reg[n - m - 1], reg[: n - m - 1][::-1])]
    circ = Circuit(total, circ.gates + tuple(fanout))
    for reg in regs:
        circ = compose(circ, build_inverse_qft(n, num_qubits=total, qubits=reg))
    return reference_peephole(compose(circ, Circuit(total, tuple(tail))))


def reference_ucr_block(axis, alpha, controls, target, start_with_cnot=False):
    """The per-gate form ``_ucr_block`` replaced: a new CNOT for each of the
    2^j steps, its control read from the Gray-code bit that flips there."""
    theta = gray_transform(alpha)
    if np.max(np.abs(theta)) < ANGLE_EPS:
        return []
    j = int(round(math.log2(len(theta))))
    rot = ry if axis is GateKind.RY else rz

    def control(k):  # of the k-th CNOT, 1-based; the 2^j-th closes the cycle
        if k == 2**j:
            return controls[0]
        flip = gray_code(k) ^ gray_code(k - 1)
        return controls[j - 1 - (flip.bit_length() - 1)]

    def rotation(k):
        return [] if abs(theta[k]) < ANGLE_EPS else [rot(float(theta[k]), target)]

    if j == 0:
        return rotation(0)
    gates = []
    if start_with_cnot:
        for k in range(2**j, 0, -1):
            gates.append(cnot(control(k), target))
            gates.extend(rotation(k - 1))
    else:
        for k in range(2**j):
            gates.extend(rotation(k))
            gates.append(cnot(control(k + 1), target))
    return gates


def reference_ucr_cascade(target, wires, total) -> Circuit:
    """The one-cascade UCR load of ``target`` on ``wires`` from the per-gate
    blocks: an RZ for the global phase, then per level the RY block and the
    reversed RZ block, with the cancelling CNOT pairs taken out by
    ``reference_peephole``."""
    ang = mottonen_angles(target)
    q = ang.num_qubits
    gates = [rz(-ang.global_phase, wires[0])] if abs(ang.global_phase) > ANGLE_EPS else []
    for t in range(q):
        gates += reference_ucr_block(GateKind.RY, ang.alpha_y[q - 1 - t], wires[:t], wires[t])
        gates += reference_ucr_block(GateKind.RZ, ang.alpha_z[q - 1 - t], wires[:t], wires[t],
                                     start_with_cnot=t > 0)
    return reference_peephole(Circuit(total, gates))


def _bit(index, qubit, n):
    return (index >> (n - 1 - qubit)) & 1


def _flip(index, qubit, n):
    return index ^ (1 << (n - 1 - qubit))


def dense_gate_matrix(g: Gate, n: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of a gate, from basis-state index arithmetic."""
    dim = 2**n
    mat = np.zeros((dim, dim), dtype=complex)
    one_q = {
        GateKind.H: np.array([[1, 1], [1, -1]]) / math.sqrt(2),
        GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    }
    if g.kind is GateKind.RY:
        c, s = math.cos(g.angle / 2), math.sin(g.angle / 2)
        one_q[GateKind.RY] = np.array([[c, -s], [s, c]])
    if g.kind is GateKind.RZ:
        one_q[GateKind.RZ] = np.diag([cmath.exp(-0.5j * g.angle), cmath.exp(0.5j * g.angle)])
    if g.kind is GateKind.PHASE:
        one_q[GateKind.PHASE] = np.diag([1.0, cmath.exp(1j * g.angle)])

    if g.kind in one_q:
        u = one_q[g.kind]
        q = g.qubits[0]
        for col in range(dim):
            b = _bit(col, q, n)
            mat[col if b == 0 else _flip(col, q, n), col] += u[0, b]
            mat[col if b == 1 else _flip(col, q, n), col] += u[1, b]
        return mat
    for col in range(dim):
        if g.kind is GateKind.CNOT:
            ctrl, tgt = g.qubits
            row = _flip(col, tgt, n) if _bit(col, ctrl, n) else col
            mat[row, col] = 1.0
        elif g.kind is GateKind.CPHASE:
            a, b = g.qubits
            on = _bit(col, a, n) and _bit(col, b, n)
            mat[col, col] = cmath.exp(1j * g.angle) if on else 1.0
        elif g.kind is GateKind.SWAP:
            a, b = g.qubits
            row = col
            if _bit(col, a, n) != _bit(col, b, n):
                row = _flip(_flip(col, a, n), b, n)
            mat[row, col] = 1.0
        elif g.kind is GateKind.OPAQUE_UNITARY:
            bits = [_bit(col, q, n) for q in g.qubits]
            sub_col = int("".join(map(str, bits)), 2)
            for sub_row in range(2 ** len(g.qubits)):
                row = col
                for pos, q in enumerate(g.qubits):
                    want = (sub_row >> (len(g.qubits) - 1 - pos)) & 1
                    if _bit(row, q, n) != want:
                        row = _flip(row, q, n)
                mat[row, col] = g.matrix[sub_row, sub_col]
        else:
            raise AssertionError(f"oracle has no rule for {g.kind}")
    return mat


def dense_circuit_matrix(c: Circuit) -> np.ndarray:
    """Oracle unitary: plain matrix product, then the output permutation."""
    dim = 2**c.num_qubits
    u = np.eye(dim, dtype=complex)
    for g in c.gates:
        u = dense_gate_matrix(g, c.num_qubits) @ u
    if c.output_permutation != tuple(range(c.num_qubits)):
        perm_mat = np.zeros((dim, dim))
        n = c.num_qubits
        for col in range(dim):
            row = 0
            for i in range(n):
                row |= _bit(col, c.output_permutation[i], n) << (n - 1 - i)
            perm_mat[row, col] = 1.0
        u = perm_mat @ u
    return u


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
