"""Dense statevector simulation, fidelity metrics, and measurement sampling.

Amplitude vectors are big-endian: qubit 0 is the most significant index bit, matching the
circuit convention.  ``run`` allocates one 2^n buffer and lets wires join lazily: the first
gate on a wire makes it the new most significant axis of the active prefix, whose new upper
half is still zero, so nothing is copied and an FSL loader sweeps 2^(m+1) amplitudes instead
of 2^n.  One last transpose maps the wires' bit positions and the output permutation to wire
order.
Gates see axes: ``_at`` is the strided view (no copy) of the amplitudes whose listed axes
read the given bits, which built-in gates swap (X, CNOT, SWAP), scale (RZ, PHASE, CPHASE) or
mix with a 2x2 matrix (RY); opaque unitaries apply their dense block to the axes moved to
the front.  An H and the CPHASE gates right after it that touch its wire (an inverse-QFT
stage) fuse into an in-place butterfly and one broadcast multiply of the half where that
wire reads 1 by the partners' [1, e^{i theta}] vectors and the H's 1/sqrt(2).

Such a step is slow on a wire whose bit p sits in the low half of the a active bits: its
halves are runs of 2^p contiguous amplitudes.  So before a step with CPHASE partners (a lone
H costs less than the rotation) ``run`` rotates the active bits by r = floor(a/2), bit p to
bit (p + r) mod a, with one transient transpose copy of the active prefix, and records each
wire's new bit.  The result is bit-identical: each kernel above is elementwise, and the
opaque matmul gets the same columns in another order, so every amplitude meets the same
operations in the same order, only elsewhere in memory; the final transpose reads any layout
back to wire order.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuit import CODES, KINDS, Circuit, GateKind
from .errors import CapacityExceeded, DimensionMismatch, NonUnitNorm, NotADistribution

DEFAULT_MAX_QUBITS = 24
MAX_OPAQUE_QUBITS = 12

_NORM_TOL = 1e-10
_SQRT_HALF = 1 / math.sqrt(2)
_H, _CPHASE = CODES[GateKind.H], CODES[GateKind.CPHASE]


@dataclass(frozen=True)
class Statevector:
    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise DimensionMismatch(
                f"expected {2**self.num_qubits} amplitudes, got shape {amps.shape}")
        norm = np.sum(np.abs(amps) ** 2)
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"statevector is not normalized (squared norm {norm!r})")
        amps = np.ascontiguousarray(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def zero(cls, num_qubits: int) -> Statevector:
        amps = np.zeros(2**num_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(num_qubits, amps)

    @classmethod
    def from_amplitudes(cls, amps) -> Statevector:
        amps = np.asarray(amps, dtype=complex)
        n = len(amps).bit_length() - 1
        if 2**n != len(amps):
            raise DimensionMismatch(f"amplitude count {len(amps)} is not a power of two")
        norm = np.linalg.norm(amps)
        if not 0 < norm < math.inf:
            raise NonUnitNorm(f"cannot normalize amplitudes of norm {float(norm)}")
        return cls(n, amps / norm)


@dataclass(frozen=True)
class ShotHistogram:
    counts: dict
    shots: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("histogram counts do not sum to shots")

    def probabilities(self, dim: int) -> np.ndarray:
        p = np.zeros(dim)
        for k, c in self.counts.items():
            p[k] = c / self.shots
        return p


def _at(psi: np.ndarray, qubits, bits) -> np.ndarray:
    """Strided view of the amplitudes whose one or two ``qubits`` read ``bits``."""
    if len(qubits) == 1:
        return psi.reshape(2 ** qubits[0], 2, -1)[:, bits[0], :]
    (qa, ba), (qb, bb) = sorted(zip(qubits, bits))
    return psi.reshape(2**qa, 2, 2 ** (qb - qa - 1), 2, -1)[:, ba, :, bb, :]


def _swap(a: np.ndarray, b: np.ndarray) -> None:
    tmp = a.copy()
    a[...] = b
    b[...] = tmp


def _scale(a: np.ndarray, z: complex) -> None:
    if z != 1.0:
        a *= z


def _mix(u: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    new0 = u[0, 0] * a + u[0, 1] * b
    new1 = u[1, 0] * a + u[1, 1] * b
    a[...] = new0
    b[...] = new1


def _h_phase(psi: np.ndarray, qs: tuple[int, ...], angles, k: int) -> None:
    """H on axis ``qs[0]`` of the ``k``-axis ``psi``, then CPHASE(``angles[i]``) with axis
    ``qs[i + 1]``, in place.  Built in gate order, the phase factor rounds alike in any layout."""
    t = psi.reshape([2] * k)
    a, b = (t[(slice(None),) * qs[0] + (slice(bit, bit + 1),)] for bit in (0, 1))
    factor = _SQRT_HALF
    for axis, angle in zip(qs[1:], angles):
        phase = np.array([1, cmath.exp(1j * angle)])
        factor = factor * phase.reshape([2 if x == axis else 1 for x in range(k)])
    a += b
    b *= -2
    b += a  # a - b
    a *= _SQRT_HALF
    b *= factor


def _apply_gate(psi: np.ndarray, op: tuple, qs: tuple[int, ...], k: int) -> None:
    """Apply the gate ``op`` = (kind, angle, opaque matrix), any kind but H, in
    place to the ``k``-axis ``psi``, its wires sitting at axes ``qs``: built-in
    kinds swap, scale or mix slices of ``psi``."""
    kind, angle, matrix = op
    if kind is GateKind.OPAQUE_UNITARY:
        w = len(qs)
        if w > MAX_OPAQUE_QUBITS:
            raise CapacityExceeded(f"opaque gate on {w} qubits exceeds cap {MAX_OPAQUE_QUBITS}")
        moved = np.moveaxis(psi.reshape([2] * k), qs, range(w))
        moved[...] = (matrix @ moved.reshape(2**w, -1)).reshape(moved.shape)
    elif kind is GateKind.RY:
        c, s = math.cos(angle / 2), math.sin(angle / 2)
        _mix(np.array([[c, -s], [s, c]]), _at(psi, qs, (0,)), _at(psi, qs, (1,)))
    elif kind is GateKind.X:
        _swap(_at(psi, qs, (0,)), _at(psi, qs, (1,)))
    elif kind is GateKind.CNOT:
        _swap(_at(psi, qs, (1, 0)), _at(psi, qs, (1, 1)))
    elif kind is GateKind.SWAP:
        _swap(_at(psi, qs, (0, 1)), _at(psi, qs, (1, 0)))
    elif kind is GateKind.RZ:
        ph = cmath.exp(0.5j * angle)
        _scale(_at(psi, qs, (0,)), ph.conjugate())
        _scale(_at(psi, qs, (1,)), ph)
    elif kind is GateKind.PHASE:
        _scale(_at(psi, qs, (1,)), cmath.exp(1j * angle))
    elif kind is GateKind.CPHASE:
        _scale(_at(psi, qs, (1, 1)), cmath.exp(1j * angle))
    else:  # pragma: no cover
        raise ValueError(f"unknown gate kind {kind}")


def run(c: Circuit, initial: Statevector | None = None, max_qubits: int | None = None) -> Statevector:
    """Apply every gate of ``c`` in order, then its output permutation."""
    n = c.num_qubits
    cap = DEFAULT_MAX_QUBITS if max_qubits is None else max_qubits
    if n > cap:
        raise CapacityExceeded(f"{n} qubits exceeds simulator capacity {cap}")
    if initial is None:
        psi = np.zeros(2**n, dtype=complex)
        psi[0] = 1.0
        order = {}  # wire w -> bit position: axis k - 1 - order[w] of psi[:2**k]
    elif initial.num_qubits != n:
        raise DimensionMismatch(f"initial state has {initial.num_qubits} qubits, circuit {n}")
    else:
        psi = initial.amplitudes.copy()
        order = {w: n - 1 - w for w in range(n)}
    kinds, angles, rows, j = c.kinds.tolist(), c.angles.tolist(), c.wires.tolist(), 0
    while j < len(kinds):  # gates i..j-1 run as one step: a gate, or an H and its CPHASE run
        i, j = j, j + 1
        wires = c.side[i].qubits if i in c.side else tuple(q for q in rows[i] if q != -1)
        while (kinds[i] == _H and j < len(kinds) and kinds[j] == _CPHASE
               and wires[0] in rows[j]):  # a CPHASE right after the H, on its wire
            wires += tuple(q for q in rows[j] if q != wires[0])
            j += 1
        for q in wires:
            order.setdefault(q, len(order))
        active, r = len(order), len(order) // 2
        if j > i + 1 and order[wires[0]] < r:  # an H with partners: rotate the low bits up
            psi[:2**active] = psi[:2**active].reshape(2**r, -1).T.reshape(-1)
            order = {w: (p + r) % active for w, p in order.items()}
        # A gate on a wires sees at least 2^(a+2) amplitudes (the extra axes read 0):
        # numpy and BLAS round 1-element and 1-3-column operands unlike a full-width run.
        k = min(n, max(len(order), len(set(wires)) + 2))
        qs = tuple(k - 1 - order[q] for q in wires)
        if kinds[i] == _H:
            _h_phase(psi[:2**k], qs, angles[i + 1:j], k)
        else:
            matrix = c.side[i].matrix if i in c.side else None
            _apply_gate(psi[:2**k], (KINDS[kinds[i]], angles[i], matrix), qs, k)
    for w in reversed(range(n)):  # untouched wires fill the leading axes
        order.setdefault(w, len(order))
    axes = [n - 1 - order[w] for w in c.output_permutation]
    if axes != list(range(n)):
        psi = np.transpose(psi.reshape([2] * n), axes).reshape(-1)
    return Statevector(n, psi)


def fidelity(a: Statevector, b: Statevector) -> float:
    """|<a|b>|^2, insensitive to global phase."""
    if a.num_qubits != b.num_qubits:
        raise DimensionMismatch("statevector dimensions differ")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def classical_fidelity(p, q) -> float:
    """Squared Bhattacharyya coefficient between two outcome distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionMismatch("distribution dimensions differ")
    for name, v in (("p", p), ("q", q)):
        if np.any(v < 0):
            raise NotADistribution(f"{name} has negative entries")
        if not abs(v.sum() - 1.0) <= 1e-9:
            raise NotADistribution(f"{name} sums to {v.sum()}, not 1")
    return float(np.sum(np.sqrt(p) * np.sqrt(q)) ** 2)


def sample(s: Statevector, shots: int, seed: int) -> ShotHistogram:
    """Seeded i.i.d. computational-basis samples.

    The generator is numpy's PCG64 seeded with ``seed``; identical inputs give
    bit-identical histograms.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    probs = np.abs(s.amplitudes) ** 2
    probs = probs / probs.sum()
    outcomes = rng.choice(len(probs), size=shots, p=probs)
    values, counts = np.unique(outcomes, return_counts=True)
    return ShotHistogram({int(v): int(c) for v, c in zip(values, counts)}, shots)


def reduced_population(s: Statevector, qubit: int, value: int) -> float:
    """Probability that measuring ``qubit`` yields ``value``."""
    tensor = np.abs(s.amplitudes.reshape([2] * s.num_qubits)) ** 2
    axes = tuple(i for i in range(s.num_qubits) if i != qubit)
    return float(tensor.sum(axis=axes)[value])


def reduced_density_matrix(s: Statevector, qubits: tuple[int, ...]) -> np.ndarray:
    """Reduced density matrix of the listed qubits (kept in the given order)."""
    n = s.num_qubits
    keep = list(qubits)
    rest = [q for q in range(n) if q not in keep]
    tensor = s.amplitudes.reshape([2] * n)
    moved = np.transpose(tensor, keep + rest).reshape(2 ** len(keep), -1)
    return moved @ moved.conj().T


# ---------------------------------------------------------------------------
# On-disk formats

def histogram_to_csv(h: ShotHistogram) -> str:
    lines = ["index,count"]
    for k in sorted(h.counts):
        lines.append(f"{k},{h.counts[k]}")
    return "\n".join(lines) + "\n"


def dump_statevector(s: Statevector, path) -> None:
    """Raw little-endian complex128 amplitudes in index order, no header."""
    s.amplitudes.astype("<c16").tofile(path)


def load_statevector(path) -> Statevector:
    """Read ``dump_statevector``'s format; a file that is empty or ends inside an
    amplitude is a ``DimensionMismatch``."""
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0 or raw.size % 16:
        raise DimensionMismatch(f"state file holds {raw.size} bytes, not a whole number "
                                "of 16-byte amplitudes")
    return Statevector.from_amplitudes(raw.view("<c16"))
