"""Dense statevector simulation, fidelity metrics, and measurement sampling.

Amplitude vectors are big-endian: qubit 0 is the most significant index bit, matching the
circuit convention.  ``run`` allocates one 2^n buffer and lets wires join lazily: a wire
joins when a gate first mixes it, as the new most significant axis of the active prefix.  A
fresh wire's new upper half is still zero, so nothing is copied and an FSL loader sweeps
2^(m+1) amplitudes instead of 2^n.  A CNOT onto a fresh wire records a copy of its control's
source and moves nothing.  A copy in a diagonal role (RZ, PHASE, either CPHASE wire, a CNOT
control, a fused H step's partner) reads its source's axis; any other role, a mixing gate on
its source, or the end of the run joins it: the half of the prefix where the source reads 1
moves up to the new upper half.  So an FSL fan-out costs nothing, and the iQFT stage on each
copy runs on a prefix one bit wider than the stage before.  With an ``initial`` state every
wire is active and no copy is recorded.  One last transpose maps the wires' bit positions and
the output permutation to wire order.
Gates see axes: ``_at`` is the strided view (no copy) of the amplitudes whose listed axes
read the given bits, which gates swap (X, CNOT, SWAP), scale (RZ, PHASE, CPHASE) or mix
with a 2x2 matrix (RY).  An H and the CPHASE gates right after it that touch its wire (an
inverse-QFT stage) fuse into an in-place butterfly and one broadcast multiply of the half
where that wire reads 1 by the partners' [1, e^{i theta}] vectors and the H's 1/sqrt(2).  A run of
CNOTs from one active control onto distinct active targets (a mirror load's disentangling
tail) is one exchange: the control's 1-half, reflected over every target axis at once.

Such a step is slow on a wire whose bit p sits in the low half of the a active bits: its
halves are runs of 2^p contiguous amplitudes.  So before a step with CPHASE partners (a lone
H costs less than the rotation) ``run`` rotates the active bits by r = floor(a/2), bit p to
bit (p + r) mod a, with one transient transpose copy of the active prefix, and records each
wire's new bit.  The result is bit-identical: each kernel above is elementwise, so every
amplitude meets the same operations in the same order, only elsewhere in memory; the final
transpose reads any layout back to wire order.
"""
from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass

import numpy as np

from .circuit import CODES, KINDS, Circuit, GateKind
from .errors import CapacityExceeded, DimensionMismatch, NonUnitNorm, NotADistribution

DEFAULT_MAX_QUBITS = 24

_NORM_TOL = 1e-10
_SQRT_HALF = 1 / math.sqrt(2)
_H, _CNOT, _CPHASE = CODES[GateKind.H], CODES[GateKind.CNOT], CODES[GateKind.CPHASE]
# Kind -> the two bit patterns of its wires whose amplitudes it exchanges.
_SWAPS = {GateKind.X: ((0,), (1,)), GateKind.CNOT: ((1, 0), (1, 1)),
          GateKind.SWAP: ((0, 1), (1, 0))}
# Kind -> (bit pattern, f): the amplitudes where its wires read the pattern gain e^(i f angle).
_PHASES = {GateKind.RZ: (((0,), -0.5), ((1,), 0.5)), GateKind.PHASE: (((1,), 1.0),),
           GateKind.CPHASE: (((1, 1), 1.0),)}
_DIAGONAL = {CODES[kind] for kind in _PHASES}


@dataclass(frozen=True)
class Statevector:
    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.num_qubits,):
            raise DimensionMismatch(
                f"expected {2**self.num_qubits} amplitudes, got shape {amps.shape}")
        norm = np.vdot(amps, amps).real
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"statevector is not normalized (squared norm {norm!r})")
        amps = np.ascontiguousarray(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

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


_SLAB = 1 << 14  # amplitudes per step of a large swap


def _slabs(v: np.ndarray):
    """Views of at most ``_SLAB`` elements that tile ``v``, splitting the
    leading axis (and the ones after it while a single index is too large)."""
    if v.size <= _SLAB:
        yield v
    elif v.size // len(v) > _SLAB:
        for row in v:
            yield from _slabs(row)
    else:
        step = _SLAB // (v.size // len(v))
        for start in range(0, len(v), step):
            yield v[start:start + step]


def _swap(a: np.ndarray, b: np.ndarray) -> None:
    """Exchange two equal-shape views one slab at a time, so the temporary
    holds at most ``_SLAB`` amplitudes instead of half the state."""
    for sa, sb in zip(_slabs(a), _slabs(b)):
        tmp = sa.copy()
        sa[...] = sb
        sb[...] = tmp


def _flip(psi: np.ndarray, qs: tuple[int, ...], k: int) -> None:
    """X on every axis ``qs[1:]`` of the ``k``-axis ``psi`` where axis ``qs[0]`` reads 1, in
    place: a run of CNOTs that share one control, as one exchange of two quarters."""
    ones = psi.reshape([2] * k)[(slice(None),) * qs[0] + (1,)]
    first, *rest = (q - (q > qs[0]) for q in qs[1:])
    a, b = (ones[(slice(None),) * first + (bit,)] for bit in (0, 1))
    _swap(np.flip(a, [q - (q > first) for q in rest]), b)


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
    """Apply the gate ``op`` = (kind, angle), any kind but H, in place to the
    ``k``-axis ``psi``, its wires sitting at axes ``qs``: swap (``_SWAPS``),
    scale (``_PHASES``) or mix (RY) slices of ``psi``."""
    kind, angle = op
    if kind in _SWAPS:
        _swap(*(_at(psi, qs, bits) for bits in _SWAPS[kind]))
    elif kind in _PHASES:
        for bits, f in _PHASES[kind]:
            z = cmath.exp(1j * (f * angle))
            if z != 1:
                view = _at(psi, qs, bits)
                view *= z
    else:  # RY
        c, s = math.cos(angle / 2), math.sin(angle / 2)
        _mix(np.array([[c, -s], [s, c]]), _at(psi, qs, (0,)), _at(psi, qs, (1,)))


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
    copies = {}  # copy wire -> the active wire it copies

    def materialise(w):  # the copy w becomes the new top axis: its source's 1-half moves up
        a, p = len(order), order[copies.pop(w)]
        ones = _at(psi[:2**a], (a - 1 - p,), (1,))
        _at(psi[2**a:2**(a + 1)], (a - 1 - p,), (1,))[...] = ones
        ones[...] = 0
        order[w] = a

    kinds, angles, rows, j = c.kinds.tolist(), c.angles.tolist(), c.wires.tolist(), 0
    while j < len(kinds):  # gates i..j-1 run as one step: a gate, an H and its CPHASE run,
        i, j = j, j + 1    # or a CNOT run from one active control onto distinct active targets
        kind = kinds[i]
        wires = tuple(q for q in rows[i] if q != -1)
        while (kind == _H and j < len(kinds) and kinds[j] == _CPHASE
               and wires[0] in rows[j]):  # a CPHASE right after the H, on its wire
            wires += tuple(q for q in rows[j] if q != wires[0])
            j += 1
        while (kind == _CNOT and j < len(kinds) and kinds[j] == _CNOT
               and rows[j][0] == wires[0] and rows[j][1] not in wires
               and all(q in order for q in wires + (rows[j][1],))):
            wires += (rows[j][1],)
            j += 1
        if kind == _CNOT and wires[1] not in order and wires[1] not in copies:
            source = copies.get(wires[0], wires[0])  # a CNOT onto a fresh wire: a copy
            order.setdefault(source, len(order))
            copies[wires[1]] = source
            continue
        # Diagonal roles read a copy's source; any other role first makes the copy an
        # axis, and a source in one first materialises all its copies.
        mixed = (wires[:1] if kind == _H else wires[1:] if kind == _CNOT
                 else () if kind in _DIAGONAL else wires)
        for q in mixed:
            for w in [w for w, source in copies.items() if q in (w, source)]:
                materialise(w)
        wires = tuple(copies.get(q, q) for q in wires)
        for q in wires:
            order.setdefault(q, len(order))
        active, r = len(order), len(order) // 2
        if kind == _H and j > i + 1 and order[wires[0]] < r:  # an H with partners: rotate up
            psi[:2**active] = psi[:2**active].reshape(2**r, -1).T.reshape(-1)
            order = {w: (p + r) % active for w, p in order.items()}
        # A gate on a axes sees at least 2^(a+2) amplitudes (the extra axes read 0):
        # numpy and BLAS round 1-element and 1-3-column operands unlike a full-width run.
        k = min(n, max(len(order), len(set(wires)) + 2))
        qs = tuple(k - 1 - order[q] for q in wires)
        if kind == _H:
            _h_phase(psi[:2**k], qs, angles[i + 1:j], k)
        elif kind == _CNOT and j > i + 1:
            _flip(psi[:2**k], qs, k)
        elif len(set(qs)) < len(qs):  # a CPHASE within one copy family is a PHASE
            _apply_gate(psi[:2**k], (GateKind.PHASE, angles[i]), qs[:1], k)
        else:
            _apply_gate(psi[:2**k], (KINDS[kind], angles[i]), qs, k)
    for w in list(copies):
        materialise(w)
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
    counts = rng.multinomial(shots, probs / probs.sum())
    return ShotHistogram({int(v): int(counts[v]) for v in np.flatnonzero(counts)}, shots)


def reduced_population(s: Statevector, qubit: int, value: int) -> float:
    """Probability that measuring ``qubit`` yields ``value``."""
    tensor = np.abs(s.amplitudes.reshape([2] * s.num_qubits)) ** 2
    axes = tuple(i for i in range(s.num_qubits) if i != qubit)
    return float(tensor.sum(axis=axes)[value])


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


def load_statevector(path, num_qubits: int) -> Statevector:
    """Read ``dump_statevector``'s format for ``num_qubits`` qubits; a file of any
    other size is a ``DimensionMismatch``, found before any amplitude is read."""
    size = os.path.getsize(path)
    if size != 16 << num_qubits:
        raise DimensionMismatch(f"state file holds {size} bytes, not the {16 << num_qubits} bytes")
    return Statevector.from_amplitudes(np.fromfile(path, dtype="<c16"))
