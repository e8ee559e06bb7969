"""Dense statevector simulation, fidelity metrics, and measurement sampling.

Amplitude vectors are big-endian: qubit 0 is the most significant index bit,
matching the circuit convention.  ``_at`` is the one map from wires to array
axes: a strided view (no copy) of the amplitudes whose listed wires read the
given bits.  Each built-in gate acts in place on such views: it swaps two
slices (X, CNOT, SWAP), scales one or two (RZ, PHASE, CPHASE) or mixes two
with a 2x2 matrix (H, RY).  Opaque unitaries apply their dense block to the
wires moved to the front.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, GateKind
from .errors import CapacityExceeded, DimensionMismatch, NotADistribution

DEFAULT_MAX_QUBITS = 24
MAX_OPAQUE_QUBITS = 12

_NORM_TOL = 1e-10
_H_MAT = np.array([[1, 1], [1, -1]], dtype=float) / math.sqrt(2)


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
        if abs(norm - 1.0) > _NORM_TOL:
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
        n = int(round(math.log2(len(amps))))
        if 2**n != len(amps):
            raise DimensionMismatch(f"amplitude count {len(amps)} is not a power of two")
        return cls(n, amps / np.linalg.norm(amps))


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


def _apply_gate(psi: np.ndarray, g: Gate, n: int) -> None:
    """Apply ``g`` in place: built-in kinds swap, scale or mix slices of ``psi``."""
    kind, qs = g.kind, g.qubits
    if kind is GateKind.OPAQUE_UNITARY:
        k = len(qs)
        if k > MAX_OPAQUE_QUBITS:
            raise CapacityExceeded(f"opaque gate on {k} qubits exceeds cap {MAX_OPAQUE_QUBITS}")
        moved = np.moveaxis(psi.reshape([2] * n), qs, range(k))
        moved[...] = (g.matrix @ moved.reshape(2**k, -1)).reshape(moved.shape)
    elif kind is GateKind.H:
        _mix(_H_MAT, _at(psi, qs, (0,)), _at(psi, qs, (1,)))
    elif kind is GateKind.RY:
        c, s = math.cos(g.angle / 2), math.sin(g.angle / 2)
        _mix(np.array([[c, -s], [s, c]]), _at(psi, qs, (0,)), _at(psi, qs, (1,)))
    elif kind is GateKind.X:
        _swap(_at(psi, qs, (0,)), _at(psi, qs, (1,)))
    elif kind is GateKind.CNOT:
        _swap(_at(psi, qs, (1, 0)), _at(psi, qs, (1, 1)))
    elif kind is GateKind.SWAP:
        _swap(_at(psi, qs, (0, 1)), _at(psi, qs, (1, 0)))
    elif kind is GateKind.RZ:
        ph = cmath.exp(0.5j * g.angle)
        _scale(_at(psi, qs, (0,)), ph.conjugate())
        _scale(_at(psi, qs, (1,)), ph)
    elif kind is GateKind.PHASE:
        _scale(_at(psi, qs, (1,)), cmath.exp(1j * g.angle))
    elif kind is GateKind.CPHASE:
        _scale(_at(psi, qs, (1, 1)), cmath.exp(1j * g.angle))
    else:  # pragma: no cover
        raise ValueError(f"unknown gate kind {kind}")


def apply_output_permutation(amps: np.ndarray, perm) -> np.ndarray:
    """Relabel wires so logical qubit ``i`` reads from wire ``perm[i]``."""
    n = len(perm)
    if tuple(perm) == tuple(range(n)):
        return amps
    return np.transpose(amps.reshape([2] * n), perm).reshape(-1)


def run(c: Circuit, initial: Statevector | None = None, max_qubits: int | None = None) -> Statevector:
    """Apply every gate of ``c`` in order, then its output permutation."""
    cap = DEFAULT_MAX_QUBITS if max_qubits is None else max_qubits
    if c.num_qubits > cap:
        raise CapacityExceeded(f"{c.num_qubits} qubits exceeds simulator capacity {cap}")
    if initial is None:
        initial = Statevector.zero(c.num_qubits)
    if initial.num_qubits != c.num_qubits:
        raise DimensionMismatch(
            f"initial state has {initial.num_qubits} qubits, circuit {c.num_qubits}")
    psi = initial.amplitudes.copy()
    for g in c.gates:
        _apply_gate(psi, g, c.num_qubits)
    return Statevector(c.num_qubits, apply_output_permutation(psi, c.output_permutation))


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
        if abs(v.sum() - 1.0) > 1e-9:
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
    amps = np.fromfile(path, dtype="<c16")
    return Statevector.from_amplitudes(amps)
