"""Coefficient-loader synthesis.

Three loaders live here:

* ``build_ucr_circuit`` — the uniformly-controlled-rotation cascade.  Angle
  vectors come from the amplitude/phase block formulas, each uniformly
  j-controlled rotation decomposes into 2^j rotations interleaved with 2^j
  CNOTs whose controls follow the binary-reflected Gray code.
* ``build_schmidt_circuit`` — SVD-based: load the Schmidt coefficients on one
  half register, copy with a CNOT ladder, rotate both halves into the Schmidt
  basis with local unitaries (kept opaque; decompose via ``synth_unitary``).
* ``build_inverse_qft`` — the standard controlled-phase network, with the
  terminal SWAP stage optionally replaced by an output permutation.

``synth_unitary`` performs a recursive cosine-sine (quantum Shannon)
decomposition down to ZYZ rotations, exact including global phase.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cossin, schur

from .circuit import Circuit, Gate, GateKind, cnot, cphase, h, phase, ry, rz, unitary
from .errors import NonPowerOfTwoLength, NonUnitNorm, NotUnitary

NORM_TOL = 1e-9
ANGLE_EPS = 1e-14  # rotations below this are identity for all practical purposes


@dataclass(frozen=True)
class UCRAngles:
    """Rotation angles of the uniformly-controlled cascade.

    ``alpha_y[j]`` / ``alpha_z[j]`` hold the level-j angle vector of length
    2^(q-1-j): entry k conditions on the leading q-1-j qubits being |k> and
    rotates qubit q-1-j.  ``global_phase`` is the mean-phase compensation
    applied as an initial RZ(-global_phase).
    """

    alpha_y: tuple
    alpha_z: tuple
    global_phase: float

    @property
    def num_qubits(self) -> int:
        return len(self.alpha_y)


def _check_unit(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if abs(np.sum(np.abs(vec) ** 2) - 1.0) > NORM_TOL:
        raise NonUnitNorm(f"vector norm^2 = {np.sum(np.abs(vec)**2):.12g}")
    return vec


def mottonen_angles(target) -> UCRAngles:
    """Angles that make the UCR cascade map |0...0> to ``target`` exactly.

    The y-angles are 2*arcsin of the square root of block-mass ratios (the
    square root is required for the state-preparation identity); z-angles are
    differences of block phase means; blocks with no amplitude mass get 0.
    """
    psi = _check_unit(target)
    q = int(round(math.log2(len(psi))))
    if 2**q != len(psi):
        raise NonPowerOfTwoLength(f"length {len(psi)} is not a power of two")
    mass = np.abs(psi) ** 2
    omega = np.angle(psi)
    alpha_y = []
    alpha_z = []
    for j in range(q):
        blocks = mass.reshape(2 ** (q - 1 - j), 2, 2**j)
        block_mass = blocks.sum(axis=(1, 2))
        odd_mass = blocks[:, 1, :].sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(block_mass > 0, odd_mass / np.where(block_mass > 0, block_mass, 1.0), 0.0)
        alpha_y.append(2.0 * np.arcsin(np.sqrt(np.clip(ratio, 0.0, 1.0))))
        ph = omega.reshape(2 ** (q - 1 - j), 2, 2**j)
        alpha_z.append(ph[:, 1, :].mean(axis=1) - ph[:, 0, :].mean(axis=1))
    global_phase = 2.0 ** (1 - q) * float(omega.sum())
    return UCRAngles(tuple(alpha_y), tuple(alpha_z), global_phase)


def gray_code(k: int) -> int:
    return k ^ (k >> 1)


def _walsh_hadamard(v: np.ndarray) -> np.ndarray:
    """In-place fast Walsh-Hadamard transform (natural ordering), on a copy."""
    v = v.astype(float).copy()
    size = len(v)
    step = 1
    while step < size:
        w = v.reshape(-1, 2, step)
        a = w[:, 0, :].copy()
        w[:, 0, :] = a + w[:, 1, :]
        w[:, 1, :] = a - w[:, 1, :]
        step *= 2
    return v


def gray_transform(alpha) -> np.ndarray:
    """Map UCR angles alpha to the rotation angles theta of the CNOT-interleaved
    form: theta_k = 2^-j * sum_l (-1)^(b_l . g_k) alpha_l."""
    alpha = np.asarray(alpha, dtype=float).reshape(-1)
    size = len(alpha)
    j = int(round(math.log2(size)))
    if 2**j != size:
        raise NonPowerOfTwoLength(f"length {size} is not a power of two")
    ht = _walsh_hadamard(alpha) / size
    g = np.fromiter((gray_code(k) for k in range(size)), dtype=np.int64, count=size)
    return ht[g]


def gray_transform_matrix(j: int) -> np.ndarray:
    """Dense M with M[k, l] = 2^-j * (-1)^(b_l . g_k) (reference form)."""
    size = 2**j
    ks = np.arange(size)
    gs = np.fromiter((gray_code(int(k)) for k in ks), dtype=np.int64, count=size)
    dots = np.zeros((size, size), dtype=np.int64)
    for bit in range(max(j, 1)):
        dots += np.outer((gs >> bit) & 1, (ks >> bit) & 1)
    return ((-1.0) ** (dots % 2)) / size


def _gray_cnot_control(k: int, num_controls: int, controls) -> int:
    """Control qubit of the k-th CNOT (1-based; the 2^j-th closes the cycle)."""
    if k == 2**num_controls:
        return controls[0]
    flip = gray_code(k) ^ gray_code(k - 1)
    low_bit = flip.bit_length() - 1
    return controls[num_controls - 1 - low_bit]


def _ucr_block(axis: GateKind, alpha, controls, target: int, start_with_cnot: bool = False) -> list[Gate]:
    """Gate list of one uniformly controlled rotation.

    With ``start_with_cnot`` the block is emitted in the inverted-walk order
    (CNOT first, rotation last); both orders realize the same operator, and
    abutting a normal block with an inverted one lets the shared boundary
    CNOT pair cancel in the peephole pass.
    """
    theta = gray_transform(alpha)
    if np.max(np.abs(theta)) < ANGLE_EPS:
        return []  # all-zero level: the bare CNOT cycle is the identity
    j = int(round(math.log2(len(theta))))
    rot = ry if axis is GateKind.RY else rz

    def rotation(k):
        return [] if abs(theta[k]) < ANGLE_EPS else [rot(float(theta[k]), target)]

    gates: list[Gate] = []
    if j == 0:
        return rotation(0)
    if start_with_cnot:
        for k in range(2**j, 0, -1):
            gates.append(cnot(_gray_cnot_control(k, j, controls), target))
            gates.extend(rotation(k - 1))
    else:
        for k in range(2**j):
            gates.extend(rotation(k))
            gates.append(cnot(_gray_cnot_control(k + 1, j, controls), target))
    return gates


def build_ucr_circuit(target, qubits=None, num_qubits: int | None = None) -> Circuit:
    """State-preparation circuit for ``target`` on the given qubit list.

    Emits RZ(-phi) then, per level, the uniformly controlled R_y followed by
    the uniformly controlled R_z for that level (the level pairs commute with
    deeper levels, so this matches the y-cascade-then-z-cascade form while
    letting boundary CNOTs cancel).
    """
    psi = _check_unit(target)
    q = int(round(math.log2(len(psi))))
    if 2**q != len(psi):
        raise NonPowerOfTwoLength(f"length {len(psi)} is not a power of two")
    if qubits is None:
        qubits = list(range(q))
    qubits = list(qubits)
    if len(qubits) != q:
        raise ValueError(f"need {q} qubits, got {len(qubits)}")
    total = max(qubits) + 1 if num_qubits is None else num_qubits

    ang = mottonen_angles(psi)
    gates: list[Gate] = []
    if abs(ang.global_phase) > ANGLE_EPS:
        gates.append(rz(-ang.global_phase, qubits[0]))

    for t in range(q):
        controls, tgt = qubits[:t], qubits[t]
        gates.extend(_ucr_block(GateKind.RY, ang.alpha_y[q - 1 - t], controls, tgt))
        gates.extend(_ucr_block(GateKind.RZ, ang.alpha_z[q - 1 - t], controls, tgt,
                                start_with_cnot=t > 0))
    return Circuit(total, tuple(gates))


# ---------------------------------------------------------------------------
# Schmidt loader

@dataclass(frozen=True)
class SchmidtForm:
    left_qubits: int
    right_qubits: int
    schmidt_coeffs: np.ndarray
    u_matrix: np.ndarray
    v_matrix: np.ndarray


def schmidt_decompose(target) -> SchmidtForm:
    """SVD of the target reshaped across the ceil/floor half split.

    Reconstruction: target = (U (x) V) sum_k alpha_k |k>|k>, with U on the
    left (larger) register and V on the right.
    """
    psi = _check_unit(target)
    q = int(round(math.log2(len(psi))))
    if q < 2:
        raise ValueError("schmidt_decompose needs at least 2 qubits")
    left = (q + 1) // 2
    right = q // 2
    mat = psi.reshape(2**left, 2**right)
    u, s, vh = np.linalg.svd(mat, full_matrices=True)
    return SchmidtForm(left, right, s, u, vh.T)


def build_schmidt_circuit(target, qubits=None, num_qubits: int | None = None) -> Circuit:
    """Schmidt-decomposition loader: coefficient load, CNOT ladder, local bases."""
    psi = _check_unit(target)
    q = int(round(math.log2(len(psi))))
    if q < 2:
        raise ValueError("build_schmidt_circuit needs at least 2 qubits")
    if qubits is None:
        qubits = list(range(q))
    qubits = list(qubits)
    total = max(qubits) + 1 if num_qubits is None else num_qubits

    form = schmidt_decompose(psi)
    left = qubits[:form.left_qubits]
    right = qubits[form.left_qubits:]

    coeff_vec = np.zeros(2**form.left_qubits)
    coeff_vec[: len(form.schmidt_coeffs)] = form.schmidt_coeffs
    loader = build_ucr_circuit(coeff_vec, qubits=left, num_qubits=total)

    gates = list(loader.gates)
    low_left = left[form.left_qubits - form.right_qubits:]
    for a, b in zip(low_left, right):
        gates.append(cnot(a, b))
    for mat, regs, label in ((form.u_matrix, left, "U"), (form.v_matrix, right, "V")):
        if np.max(np.abs(mat - np.eye(len(mat)))) > 1e-12:
            gates.append(unitary(mat, regs, label=label))
    return Circuit(total, tuple(gates))


# ---------------------------------------------------------------------------
# Generic unitary synthesis (quantum Shannon / cosine-sine decomposition)

def _zyz_angles(u: np.ndarray) -> tuple[float, float, float, float]:
    """(alpha, beta, gamma, delta) with u = e^{i alpha} Rz(beta) Ry(gamma) Rz(delta)."""
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    alpha = 0.5 * math.atan2(det.imag, det.real)
    v = u * np.exp(-1j * alpha)
    gamma = 2.0 * math.atan2(abs(v[1, 0]), abs(v[0, 0]))
    if abs(v[1, 0]) < 1e-12:
        beta = 2.0 * np.angle(v[1, 1])
        delta = 0.0
    elif abs(v[0, 0]) < 1e-12:
        beta = 2.0 * np.angle(v[1, 0])
        delta = 0.0
    else:
        beta = np.angle(v[1, 1]) + np.angle(v[1, 0])
        delta = np.angle(v[1, 1]) - np.angle(v[1, 0])
    return alpha, float(beta), gamma, float(delta)


def _emit_1q(u: np.ndarray, qubit: int) -> list[Gate]:
    """Exact single-qubit synthesis: at most RZ, RY, RZ plus a PHASE.

    The global phase is folded into the final RZ/PHASE pair so the emitted
    gates reproduce ``u`` exactly, which the recursive decomposition relies on.
    """
    alpha, beta, gamma, delta = _zyz_angles(u)
    gates = []
    if abs(delta) > ANGLE_EPS:
        gates.append(rz(delta, qubit))
    if abs(gamma) > ANGLE_EPS:
        gates.append(ry(gamma, qubit))
    if abs(beta - 2 * alpha) > ANGLE_EPS:
        gates.append(rz(beta - 2 * alpha, qubit))
    if abs(alpha) > ANGLE_EPS:
        gates.append(phase(2 * alpha, qubit))
    return gates


def _demultiplex(a: np.ndarray, b: np.ndarray, select: int, rest: list[int]) -> list[Gate]:
    """Gates for |0><0| (x) a + |1><1| (x) b with ``select`` as the select qubit."""
    evals, l_mat = schur(a @ b.conj().T, output="complex")
    lam = np.diag(evals)
    d = np.exp(0.5j * np.angle(lam))
    r_mat = (d[:, None].conj() * l_mat.conj().T) @ a
    gates = _synth_rec(r_mat, rest)
    gates += _ucr_block(GateKind.RZ, -2.0 * np.angle(d), rest, select)
    gates += _synth_rec(l_mat, rest)
    return gates


def _synth_rec(u: np.ndarray, qubits: list[int]) -> list[Gate]:
    if len(qubits) == 1:
        return _emit_1q(u, qubits[0])
    half = len(u) // 2
    (u1, u2), theta, (v1h, v2h) = cossin(u, p=half, q=half, separate=True)
    select, rest = qubits[0], qubits[1:]
    gates = _demultiplex(v1h, v2h, select, rest)
    gates += _ucr_block(GateKind.RY, 2.0 * np.asarray(theta), rest, select)
    gates += _demultiplex(u1, u2, select, rest)
    return gates


def synth_unitary(u: np.ndarray, qubits=None, num_qubits: int | None = None) -> Circuit:
    """Decompose a unitary into RZ/RY/PHASE/CNOT gates, exact up to 1e-9.

    Recursive cosine-sine decomposition; O(4^q) gates.  The result includes
    the input's global phase.
    """
    u = np.asarray(u, dtype=complex)
    dim = len(u)
    q = int(round(math.log2(dim)))
    if u.shape != (dim, dim) or 2**q != dim:
        raise ValueError(f"matrix shape {u.shape} is not 2^q x 2^q")
    if np.max(np.abs(u.conj().T @ u - np.eye(dim))) >= 1e-10:
        raise NotUnitary("synth_unitary input is not unitary")
    if qubits is None:
        qubits = list(range(q))
    qubits = list(qubits)
    total = max(qubits) + 1 if num_qubits is None else num_qubits
    return Circuit(total, tuple(_synth_rec(u, qubits)))


def decompose_opaque(c: Circuit) -> Circuit:
    """Replace every opaque gate with its synthesized gate sequence."""
    gates: list[Gate] = []
    for g in c.gates:
        if g.kind is GateKind.OPAQUE_UNITARY:
            gates.extend(_synth_rec(np.asarray(g.matrix), list(g.qubits)))
        else:
            gates.append(g)
    return Circuit(c.num_qubits, tuple(gates), c.output_permutation)


# ---------------------------------------------------------------------------
# Inverse QFT

def build_inverse_qft(q: int, num_qubits: int | None = None, qubits=None) -> Circuit:
    """Inverse QFT: |p> -> 2^(-q/2) sum_k exp(-i 2 pi p k / 2^q) |k>.

    Per wire one H followed by CPHASE(-pi/2^d) with each lower wire.  The
    terminal bit-reversal is elided into the output permutation instead of
    SWAP gates.
    """
    if q < 1:
        raise ValueError("need at least one qubit")
    if qubits is None:
        qubits = list(range(q))
    qubits = list(qubits)
    total = max(qubits) + 1 if num_qubits is None else num_qubits

    gates: list[Gate] = []
    for s in range(q):
        gates.append(h(qubits[s]))
        for d in range(1, q - s):
            gates.append(cphase(-math.pi / 2**d, qubits[s + d], qubits[s]))

    perm = list(range(total))
    for s in range(q):
        perm[qubits[s]] = qubits[q - 1 - s]
    return Circuit(total, tuple(gates), tuple(perm))
