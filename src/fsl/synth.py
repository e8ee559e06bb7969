"""Coefficient-loader synthesis.

Three loaders live here:

* ``build_ucr_circuit`` — the uniformly-controlled-rotation cascade.  Angle
  vectors come from one pairwise norm/phase recursion, each uniformly
  j-controlled rotation decomposes into 2^j rotations interleaved with 2^j
  CNOTs whose controls follow the binary-reflected Gray code.  A target that
  is a product across some cut of its wires loads factor by factor, each on
  its own wires and with no gate between them (Plesch & Brukner, PRA 83,
  032302); a target real up to a global phase takes signed RY angles and at
  most one RZ.
* ``build_schmidt_circuit`` — SVD-based and rank aware: load the r nonzero
  Schmidt coefficients on ceil(log2 r) wires of one half register, copy them
  with a CNOT ladder, and rotate both halves into the Schmidt basis with local
  isometries (Iten et al., PRA 93, 032318); a product target is a UCR load.
* ``build_inverse_qft`` — the standard controlled-phase network, with the
  terminal SWAP stage replaced by an output permutation.

``synth_unitary`` performs the optimised quantum Shannon decomposition of
Shende, Bullock & Markov (quant-ph/0406176), exact including global phase:
cosine-sine steps and demultiplexors recurse down to two-qubit leaves, each
leaf a canonical-form circuit of at most 3 CNOTs (Vatan & Williams,
quant-ph/0308006), every leaf but the last taken only up to a diagonal
(2 CNOTs), and each cosine-sine step's last CZ folded into the next block.
A one-qubit unitary is a ZYZ rotation; inside a larger one, every one-qubit
gate is emitted in SU(2) and the phases are summed into one RZ/PHASE pair.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import CODES, Circuit, GateKind, cnot_rows
from .errors import NonPowerOfTwoLength, NonUnitNorm, NotUnitary

NORM_TOL = 1e-9
ANGLE_EPS = 1e-14  # rotations below this are identity for all practical purposes
UNITARITY_TOL = 1e-10  # synth_unitary refuses a matrix with max |U^H U - I| at or above this
SCHMIDT_RANK_TOL = 1e-12  # Schmidt coefficients below this times the largest are zero
REAL_TOL = 1e-14  # a unit vector whose imaginary parts all lie below this loads as real


@dataclass(frozen=True)
class UCRAngles:
    """Rotation angles of the uniformly-controlled cascade.

    ``alpha_y[j]`` / ``alpha_z[j]`` hold the level-j angle vector of length
    2^(q-1-j): entry k conditions on the leading q-1-j qubits being |k> and
    rotates qubit q-1-j.  ``global_phase`` is the mean-phase compensation
    applied as an initial RZ(-global_phase).  For a target real up to the
    phase phi of its largest entry, folded into (-pi/2, pi/2],
    ``alpha_y[0]`` is signed, in (-2 pi, 2 pi], and carries every sign, every
    ``alpha_z`` is 0 and ``global_phase`` is 2 phi (0 for a real target).
    """

    alpha_y: tuple
    alpha_z: tuple
    global_phase: float

    @property
    def num_qubits(self) -> int:
        return len(self.alpha_y)


def _check_state(target) -> tuple[np.ndarray, int]:
    """``target`` as a complex unit vector and its qubit count."""
    psi = np.asarray(target, dtype=complex).reshape(-1)
    if not abs(np.sum(np.abs(psi) ** 2) - 1.0) <= NORM_TOL:
        raise NonUnitNorm(f"vector norm^2 = {np.sum(np.abs(psi)**2):.12g}")
    q = int(round(math.log2(len(psi))))
    if 2**q != len(psi):
        raise NonPowerOfTwoLength(f"length {len(psi)} is not a power of two")
    return psi, q


def _wires(q: int, qubits, num_qubits: int | None) -> tuple[list[int], int]:
    """A builder's ``q`` wires (0..q-1 by default) and the circuit width
    (one past the highest wire by default)."""
    wires = list(range(q)) if qubits is None else list(qubits)
    if len(wires) != q:
        raise ValueError(f"need {q} qubits, got {len(wires)}")
    return wires, max(wires) + 1 if num_qubits is None else num_qubits


def mottonen_angles(target) -> UCRAngles:
    """Angles that make the UCR cascade map |0...0> to ``target`` exactly.

    One pairwise recursion from the last qubit up: sibling blocks with norms
    (n_even, n_odd) and phases (p_even, p_odd) give y = 2 atan2(n_odd, n_even)
    and z = p_odd - p_even, and merge into a block of norm hypot(n_even, n_odd)
    and phase (p_even + p_odd) / 2; the level-0 blocks are the amplitudes,
    an empty pair gets y = 0, and ``global_phase`` is twice the root's phase.
    Real rule: with phi the phase of the largest amplitude folded into
    (-pi/2, pi/2], a target whose imaginary parts all lie below ``REAL_TOL``
    once turned by e^(-i phi) is real up to that phase, and its level-0 norms
    are the turned amplitudes' signed real parts: every z is 0 and
    ``global_phase`` is 2 phi.
    """
    psi, q = _check_state(target)
    phi = cmath.phase(psi[np.argmax(np.abs(psi))])
    phi -= math.pi * ((phi > math.pi / 2) - (phi <= -math.pi / 2))
    turned = psi * cmath.exp(-1j * phi)
    real = np.max(np.abs(turned.imag)) < REAL_TOL
    # + 0.0 turns -0.0 into 0.0, so an empty pair gets angle 0, not 2 pi
    norm, phase = (turned.real + 0.0, np.zeros(len(psi))) if real else (np.abs(psi), np.angle(psi))
    alpha_y, alpha_z = [], []
    for _ in range(q):
        alpha_y.append(2.0 * np.arctan2(norm[1::2], norm[0::2]))
        alpha_z.append(phase[1::2] - phase[0::2])
        norm, phase = np.hypot(norm[0::2], norm[1::2]), (phase[0::2] + phase[1::2]) / 2
    return UCRAngles(tuple(alpha_y), tuple(alpha_z), 2.0 * (phi if real else float(phase[0])))


def gray_code(k):
    """The binary-reflected Gray code of ``k``, an int or an integer array."""
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
    return ht[gray_code(np.arange(size))]


def gray_transform_matrix(j: int) -> np.ndarray:
    """Dense M with M[k, l] = 2^-j * (-1)^(b_l . g_k) (reference form)."""
    size = 2**j
    ks = np.arange(size)
    gs = gray_code(ks)
    dots = np.zeros((size, size), dtype=np.int64)
    for bit in range(max(j, 1)):
        dots += np.outer((gs >> bit) & 1, (ks >> bit) & 1)
    return ((-1.0) ** (dots % 2)) / size


_H, _RY, _RZ, _PHASE, _CNOT, _CPHASE = (CODES[k] for k in (
    GateKind.H, GateKind.RY, GateKind.RZ, GateKind.PHASE, GateKind.CNOT, GateKind.CPHASE))
_NO_ROWS = (np.empty(0, np.uint8), np.empty((0, 2), np.int32), np.empty(0))


@lru_cache(maxsize=None)
def _gray_control_positions(j: int) -> np.ndarray:
    """Which of the j controls the k-th CNOT of a block uses, k = 1..2^j: the
    one whose Gray-code bit flips between k-1 and k (control 0 for the most
    significant bit), and control 0 for the 2^j-th, which closes the cycle."""
    k = np.arange(1, 2**j)
    flips = gray_code(k) ^ gray_code(k - 1)  # one bit, 2^(its index)
    positions = np.append(j - 1 - np.log2(flips).astype(int), 0)
    positions.setflags(write=False)
    return positions


def _ucr_block(axis: GateKind, alpha, controls, target: int, start_with_cnot: bool = False):
    """(kinds, wires, angles) rows of one uniformly controlled rotation: the
    2^j rotations, each followed by the CNOT of the Gray-code walk.

    With ``start_with_cnot`` the rows run backwards (CNOT first, rotation
    last); both orders realize the same operator, and a normal block followed
    by a reversed one meets it in the same CNOT, which ``build_ucr_circuit``
    leaves out.  Rotations below ``ANGLE_EPS`` are left out; every CNOT stays.
    """
    theta = gray_transform(alpha)
    if np.max(np.abs(theta)) < ANGLE_EPS:
        return _NO_ROWS  # all-zero level: the bare CNOT cycle is the identity
    size = len(theta)
    if size == 1:
        return np.array([CODES[axis]], np.uint8), np.array([(target, -1)], np.int32), theta
    kinds = np.tile(np.array([CODES[axis], CODES[GateKind.CNOT]], np.uint8), size)
    wires = np.full((2 * size, 2), target, np.int32)
    wires[0::2, 1] = -1
    wires[1::2, 0] = np.asarray(controls)[_gray_control_positions(size.bit_length() - 1)]
    angles = np.full(2 * size, math.nan)
    angles[0::2] = theta
    keep = np.ones(2 * size, bool)
    keep[0::2] = np.abs(theta) >= ANGLE_EPS
    if start_with_cnot:
        kinds, wires, angles, keep = kinds[::-1], wires[::-1], angles[::-1], keep[::-1]
    return kinds[keep], wires[keep], angles[keep]


def _product_cut(psi: np.ndarray, q: int):
    """(c, a, b) with a (x) b = ``psi`` on the first c and last q - c qubits,
    at the first cut c = 1..q-1 where that holds to ``SCHMIDT_RANK_TOL``; or
    None.

    With M the (2^c, 2^(q-c)) reshape of psi and (i, j) the place of its
    largest entry (the same entry at every cut), the cut holds when
    ||M - M[:, j] M[i, :] / M[i, j]||_F <= tol, which implies sigma_2 <=
    tol sigma_1: O(2^q) per cut, no SVD.  The residual on a grid of at most
    64 x 64 entries is taken first: it is no larger than the whole one, so a
    cut it rejects is rejected.  a is column j made a unit vector and b is
    row i scaled to match, so a (x) b is that rank-1 matrix, global phase
    included."""
    peak = int(np.argmax(np.abs(psi)))
    for c in range(1, q):
        mat = psi.reshape(2**c, -1)
        i, j = divmod(peak, mat.shape[1])
        col = mat[:, j]
        row = mat[i] / mat[i, j]
        grid = np.s_[::max(1, len(col) // 64), ::max(1, len(row) // 64)]
        if np.linalg.norm(mat[grid] - np.outer(col[grid[0]], row[grid[1]])) > SCHMIDT_RANK_TOL:
            continue
        if np.linalg.norm(mat - np.outer(col, row)) <= SCHMIDT_RANK_TOL:
            size = np.linalg.norm(col)
            return c, col / size, row * size
    return None


def build_ucr_circuit(target, qubits=None, num_qubits: int | None = None) -> Circuit:
    """State-preparation circuit for ``target`` on the given qubit list.

    The wires are scanned for a product cut first (``_product_cut``): at the
    first one, the left factor loads on the wires before it and the right
    factor, by recursion, on the wires after, with no gate between the two,
    so the two loads run side by side.  A target with no cut is one cascade:

    RZ(-phi) then, per level, the uniformly controlled R_y followed by the
    reversed uniformly controlled R_z for that level (the level pairs commute
    with deeper levels, so this matches the y-cascade-then-z-cascade form).
    The two blocks walk the same Gray code in mirror order, so the equal CNOTs
    where they meet cancel (Mottonen et al., quant-ph/0407010); each run of
    CNOTs with no rotation between keeps only the controls it holds an odd
    number of times.  A target that is real up to a global phase
    (``mottonen_angles``) has no RZ but the one for that phase.
    """
    psi, q = _check_state(target)
    qubits, total = _wires(q, qubits, num_qubits)
    cut = _product_cut(psi, q)
    if cut is not None:
        c, left, right = cut
        return Circuit.join(total, [_ucr_cascade(left, qubits[:c], total),
                                    build_ucr_circuit(right, qubits[c:], total)])
    return _ucr_cascade(psi, qubits, total)


def _ucr_cascade(target, qubits: list[int], total: int) -> Circuit:
    """The cascade of ``build_ucr_circuit`` for ``target`` on ``qubits``.

    Every CNOT of a level targets that level's wire, so the CNOTs of a run
    with no rotation between them commute: the run keeps the controls it holds
    an odd number of times, each at its first place."""
    ang = mottonen_angles(target)
    q = ang.num_qubits
    blocks = []
    if abs(ang.global_phase) > ANGLE_EPS:
        blocks.append(([_RZ], [(qubits[0], -1)], [-ang.global_phase]))
    for t in range(q):
        controls, tgt = qubits[:t], qubits[t]
        ry = _ucr_block(GateKind.RY, ang.alpha_y[q - 1 - t], controls, tgt)
        rz = _ucr_block(GateKind.RZ, ang.alpha_z[q - 1 - t], controls, tgt, start_with_cnot=True)
        kinds, wires, angles = (np.concatenate(pair) for pair in zip(ry, rz))
        runs = []  # [start, stop) of each run of two or more CNOTs
        for i in np.flatnonzero((kinds[1:] == _CNOT) & (kinds[:-1] == _CNOT)).tolist():
            if runs and runs[-1][1] == i + 1:
                runs[-1][1] = i + 2
            else:
                runs.append([i, i + 2])
        done = 0
        for start, stop in runs:
            _, first, count = np.unique(wires[start:stop, 0], return_index=True, return_counts=True)
            for rows in (slice(done, start), start + np.sort(first[count % 2 == 1])):
                blocks.append((kinds[rows], wires[rows], angles[rows]))
            done = stop
        blocks.append((kinds[done:], wires[done:], angles[done:]))
    return Circuit.join(total, blocks)


# ---------------------------------------------------------------------------
# Schmidt loader

@dataclass(frozen=True)
class SchmidtForm:
    left_qubits: int
    right_qubits: int
    schmidt_coeffs: np.ndarray
    u_matrix: np.ndarray
    v_matrix: np.ndarray


def _complete_basis(cols: np.ndarray) -> np.ndarray:
    """A unitary whose first columns are the orthonormal ``cols``: the standard
    basis vectors follow in index order, each orthonormalised against the
    columns before it, and a vector with less than 1/(2 dim) of its squared
    norm outside their span is left out (enough always remain)."""
    dim, k = cols.shape
    out = np.zeros((dim, dim), dtype=complex)
    out[:, :k] = cols
    for i in range(dim):
        if k == dim:
            break
        basis = out[:, :k]
        if 1 - np.vdot(basis[i], basis[i]).real < 1 / (2 * dim):
            continue
        v = -basis @ basis[i].conj()
        v[i] += 1
        v -= basis @ (basis.conj().T @ v)
        out[:, k] = v / np.linalg.norm(v)
        k += 1
    return out


def schmidt_decompose(target) -> SchmidtForm:
    """SVD of the target reshaped across the ceil/floor half split.

    Reconstruction: target = (U (x) V) sum_k alpha_k |k>|k>, with U on the
    left (larger) register and V on the right.  Singular values below
    ``SCHMIDT_RANK_TOL`` times the largest count as zero.  U and V keep only
    the singular vectors of the others, each pair's phase fixed by making
    u_k's overlap with a fixed asymmetric vector real and positive, and
    ``_complete_basis`` fills the rest: inputs a rounding error apart give
    nearby U and V, where the SVD alone may flip a pair's sign or complete
    the null space anew.
    """
    psi, q = _check_state(target)
    if q < 2:
        raise ValueError("schmidt_decompose needs at least 2 qubits")
    left = (q + 1) // 2
    right = q // 2
    u, s, vh = np.linalg.svd(psi.reshape(2**left, 2**right))
    rank = int(np.count_nonzero(s > SCHMIDT_RANK_TOL * s[0]))
    s[rank:] = 0.0
    overlap = np.sqrt(np.arange(1.0, 2**left + 1)) @ u[:, :rank]
    size = np.abs(overlap)
    sign = np.ones(rank, dtype=complex)
    sign[size > 0] = overlap[size > 0].conj() / size[size > 0]
    return SchmidtForm(left, right, s, _complete_basis(u[:, :rank] * sign),
                       _complete_basis(vh[:rank].T * sign.conj()))


def build_schmidt_circuit(target, qubits=None, num_qubits: int | None = None) -> Circuit:
    """Schmidt-decomposition loader, gate level: the r nonzero coefficients
    load on the last k = ceil(log2 r) wires of the left register, k ladder
    CNOTs copy them onto the last k of the right, then U (left) and V (right)
    follow, each an isometry from those k wires synthesised by ``_synth_rec``
    unless its first 2^k columns are the identity's.  A one-qubit or rank-1
    ``target`` (k = 0) is one UCR load, which splits a product itself."""
    form = schmidt_decompose(target) if np.size(target) != 2 else None
    k = 0 if form is None else (int(np.count_nonzero(form.schmidt_coeffs)) - 1).bit_length()
    if k == 0:
        return build_ucr_circuit(target, qubits, num_qubits)
    qubits, total = _wires(form.left_qubits + form.right_qubits, qubits, num_qubits)
    left, right = qubits[:form.left_qubits], qubits[form.left_qubits:]
    loader = build_ucr_circuit(form.schmidt_coeffs[:2**k], left[-k:], total)
    ladder = cnot_rows(list(zip(left[-k:], right[-k:])))
    bases = [row for mat, regs in ((form.u_matrix, left), (form.v_matrix, right))
             if np.max(np.abs(mat[:, :2**k] - np.eye(len(mat), 2**k))) > 1e-12
             for row in _synth_rec(mat, regs, len(regs) - k)]
    return Circuit.join(total, [loader, ladder, *bases])


# ---------------------------------------------------------------------------
# Generic unitary synthesis (optimised quantum Shannon decomposition)

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


def _emit_1q(u: np.ndarray, qubit: int, phases: list | None = None) -> list:
    """Exact single-qubit synthesis: at most RZ, RY, RZ plus a PHASE, as one
    row block in a list.

    The global phase is folded into the final RZ/PHASE pair so the emitted
    gates reproduce ``u`` exactly, or appended to ``phases`` if given.
    """
    alpha, beta, gamma, delta = _zyz_angles(u)
    if phases is not None:
        phases.append(alpha)
        alpha = 0.0
    rows = [(code, angle) for code, angle, size in (
        (_RZ, delta, delta), (_RY, gamma, gamma), (_RZ, beta - 2 * alpha, beta - 2 * alpha),
        (_PHASE, 2 * alpha, alpha)) if abs(size) > ANGLE_EPS]
    return [([c for c, _ in rows], [(qubit, -1)] * len(rows), [a for _, a in rows])]


# Two-qubit leaves.  In the magic basis _MAGIC a local gate a (x) b is a real
# SO(4) matrix, and the canonical gate exp(i(a XX + b YY + c ZZ)) is diagonal
# with phases (a - b + c, a + b - c, -a - b - c, -a + b + c).
_MAGIC = np.array([[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]]) / math.sqrt(2)
_YY = np.diag([-1.0, 1.0, 1.0, -1.0])[::-1]  # Y (x) Y
_RZ_HALF_PI = np.diag([cmath.exp(-0.25j * math.pi), cmath.exp(0.25j * math.pi)])  # Rz(pi/2)
# The three ways to pair four eigenphases, as orders that put the pairs at
# positions (0, 2) and (1, 3).
_PAIRINGS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2))
_MIXES = [(math.cos(1 + 2.4 * k), math.sin(1 + 2.4 * k)) for k in range(16)]
_PAIR_TOL = 1e-12
_EIG_TOL = 1e-9


def _real_eigvecs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, d): real orthogonal p and d with m = p diag(d) p^T, for a symmetric
    unitary m.

    Re m and Im m are commuting real symmetric matrices, so a generic real mix
    of the two has their common eigenvectors.  A fixed list of mixes is tried
    until one reproduces m (a mix can merge two of m's eigenvalues); failing
    that, the best one is kept if it reproduces m to ``_EIG_TOL``."""
    best = (math.inf, None, None)
    for x, y in _MIXES:
        p = np.linalg.eigh(x * m.real + y * m.imag)[1]
        d = np.einsum("ij,ik,kj->j", p, m, p)
        best = min(best, (np.max(np.abs((p * d) @ p.T - m)), p, d), key=lambda t: t[0])
        if best[0] < 1e-13:
            break
    if best[0] > _EIG_TOL:
        raise NotUnitary(f"no real eigenbasis reproduces a two-qubit leaf to {_EIG_TOL} "
                         f"(best {best[0]:.1e})")
    return best[1], best[2]


def _local_factors(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with a (x) b = k, for a 4x4 tensor product of 2x2 unitaries."""
    blocks = k.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)  # blocks[i, j] = a[i, j] b
    i, j = np.unravel_index(np.argmax(np.abs(blocks).sum(axis=(2, 3))), (2, 2))
    b = blocks[i, j] / np.sqrt(np.linalg.det(blocks[i, j]))
    return np.einsum("ijkl,kl->ij", blocks, b.conj()) / 2, b


def _canonical(u: np.ndarray):
    """u = e^{i phase} (a1 (x) a2) exp(i(a XX + b YY + c ZZ)) (b1 (x) b2), as
    (phase, a1, a2, (a, b, c), b1, b2), computed in the magic basis.

    M = U^T U, with U the magic-basis form of u / det(u)^(1/4), is p D p^T, and
    the canonical phases are square roots of D.  When u takes two CNOTs, D's
    phases pair up as +-2 theta; the eigenvectors are then ordered so that b
    is exactly 0."""
    phase = float(np.angle(np.linalg.det(u))) / 4
    up = _MAGIC.conj().T @ u @ _MAGIC * cmath.exp(-1j * phase)
    p, d = _real_eigvecs(up.T @ up)
    theta = np.angle(d) / 2
    gaps = [max(abs(math.sin(theta[i] + theta[k])), abs(math.sin(theta[j] + theta[l])))
            for i, j, k, l in _PAIRINGS]
    if min(gaps) < _PAIR_TOL:
        order = _PAIRINGS[int(np.argmin(gaps))]
        p, theta = p[:, order], theta[list(order)]
        lam = np.array([theta[0], theta[1], -theta[0], -theta[1]])
    else:
        lam = np.append(theta[:3], -theta[:3].sum())
    if np.linalg.det(p) < 0:  # into SO(4); M's eigenvectors keep a free sign
        p = p * [-1, 1, 1, 1]
    k1 = up @ p * np.exp(-1j * lam)
    coords = ((lam[0] + lam[1]) / 2, (lam[1] + lam[3]) / 2, (lam[0] + lam[3]) / 2)
    return (phase, *_local_factors(_MAGIC @ k1 @ _MAGIC.conj().T), coords,
            *_local_factors(_MAGIC @ p.T @ _MAGIC.conj().T))


def _leaf_rows(u: np.ndarray, wires: list[int], phases: list) -> list:
    """Row blocks of the two-qubit unitary u on ``wires``, up to the global
    phases appended to ``phases``: its canonical form, with the canonical gate
    as 0, 2 or 3 CNOTs (Vatan & Williams for 3)."""
    phase, a1, a2, (a, b, c), b1, b2 = _canonical(u)
    phases.append(phase)
    w0, w1 = wires
    if b != 0:  # Rz(pi/2) on w1, the rows, Rz(-pi/2) on w0: e^{-i pi/4} exp(i(aXX+bYY+cZZ))
        a1, b2 = a1 @ _RZ_HALF_PI.conj() * cmath.exp(0.25j * math.pi), _RZ_HALF_PI @ b2
        rows = [(_CNOT, (w1, w0), math.nan), (_RZ, (w0, -1), math.pi / 2 - 2 * c),
                (_RY, (w1, -1), math.pi / 2 - 2 * a), (_CNOT, (w0, w1), math.nan),
                (_RY, (w1, -1), 2 * b - math.pi / 2), (_CNOT, (w1, w0), math.nan)]
    elif max(abs(a), abs(c)) >= ANGLE_EPS:  # Rz(pi/2), the rows, Rz(-pi/2) on w0: exp(i(aXX+cZZ))
        a1, b1 = a1 @ _RZ_HALF_PI.conj(), _RZ_HALF_PI @ b1
        rows = [(_CNOT, (w0, w1), math.nan), (_RY, (w0, -1), -2 * a),
                (_RZ, (w1, -1), -2 * c), (_CNOT, (w0, w1), math.nan)]
    else:  # a local gate
        return [*_emit_1q(a1 @ b1, w0, phases), *_emit_1q(a2 @ b2, w1, phases)]
    rows = [r for r in rows if r[0] == _CNOT or abs(r[2]) >= ANGLE_EPS]
    return [*_emit_1q(b1, w0, phases), *_emit_1q(b2, w1, phases), tuple(zip(*rows)),
            *_emit_1q(a1, w0, phases), *_emit_1q(a2, w1, phases)]


def _split_diagonal(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(delta, w) with u = diag(delta) w and w a two-CNOT unitary.

    w = diag(1, 1, e^{-i psi}, e^{i psi}) u takes two CNOTs when
    tr(w Y(x)Y w^T Y(x)Y) is real (Shende, Markov & Bullock); that trace is
    e^{i psi} p + e^{-i psi} q, which fixes psi."""
    v = u * complex(np.linalg.det(u)) ** -0.25
    n = v @ _YY @ v.T
    z = -2 * n[0, 3] - (2 * n[1, 2]).conjugate()  # p - conj(q)
    psi = 0.0 if abs(z) < 1e-14 else math.atan2(-z.imag, z.real)
    delta = np.exp(1j * psi * np.array([0, 0, 1, -1]))
    return delta, delta.conj()[:, None] * u


# The quantum Shannon decomposition

def _demultiplex(a: np.ndarray, b: np.ndarray, select: int, rest: list[int], parts: list) -> None:
    """Append the parts of |0><0| (x) a + |1><1| (x) b, ``select`` the select qubit."""
    from scipy.linalg import schur  # deferred: importing fsl must not load scipy.linalg

    evals, l_mat = schur(a @ b.conj().T, output="complex")
    lam = np.diag(evals)
    d = np.exp(0.5j * np.angle(lam))
    r_mat = (d[:, None].conj() * l_mat.conj().T) @ a
    _qsd(r_mat, rest, parts)
    parts.append(_ucr_block(GateKind.RZ, -2.0 * np.angle(d), rest, select))
    _qsd(l_mat, rest, parts)


def _qsd(u: np.ndarray, qubits: list[int], parts: list, zeros: int = 0) -> None:
    """Append the parts of ``u`` on two or more ``qubits`` in time order: row
    blocks for the multiplexors and a 4x4 matrix for each two-qubit leaf.

    The cosine-sine step's multiplexed RY uses CZs (CPHASE(pi)), as Z Ry Z = X
    Ry X; its last CZ, on the first of the other wires, is left out and taken
    into the next demultiplexor's second block, u2 -> u2 Z.

    With the first ``zeros`` qubits known to be |0>, only u's first
    2^(q - zeros) columns need be right, and a select qubit among them
    reduces the right-hand demultiplexor to its first block."""
    if len(qubits) == 2:
        parts.append(u)
        return
    from scipy.linalg import cossin  # deferred: importing fsl must not load scipy.linalg

    half = len(u) // 2
    (u1, u2), theta, (v1h, v2h) = cossin(u, p=half, q=half, separate=True)
    select, rest = qubits[0], qubits[1:]
    if zeros:
        _qsd(v1h, rest, parts, zeros - 1)
    else:
        _demultiplex(v1h, v2h, select, rest, parts)
    kinds, wires, angles = _ucr_block(GateKind.RY, 2.0 * np.asarray(theta), rest, select)
    if len(kinds):
        cz = kinds == _CNOT
        parts.append((np.where(cz, _CPHASE, kinds)[:-1], wires[:-1],
                      np.where(cz, math.pi, angles)[:-1]))
        u2 = u2 * np.repeat([1, -1], half // 2)
    _demultiplex(u1, u2, select, rest, parts)


def _synth_rec(u: np.ndarray, qubits: list[int], zeros: int = 0) -> list:
    """Row blocks of ``u`` on ``qubits`` (its first 2^(q - zeros) columns: see
    ``_qsd``), in order, with one RZ/PHASE pair for all its global phases.

    Every leaf but the last is synthesised up to a diagonal (two CNOTs); the
    diagonal commutes with the multiplexors up to the next leaf, whose controls
    include both leaf wires, and is multiplied into that leaf."""
    if len(qubits) == 1:
        return _emit_1q(u, qubits[0])
    parts, rows, delta, phases = [], [], np.ones(4), []
    _qsd(u, qubits, parts, zeros)
    last = max(i for i, part in enumerate(parts) if isinstance(part, np.ndarray))
    for i, part in enumerate(parts):
        if not isinstance(part, np.ndarray):
            rows.append(part)
            continue
        part = part * delta
        if i < last:
            delta, part = _split_diagonal(part)
        rows += _leaf_rows(part, qubits[-2:], phases)
    # no gate is conditioned, so every phase is global
    return _emit_1q(cmath.exp(1j * sum(phases)) * np.eye(2), qubits[0]) + rows


def synth_unitary(u: np.ndarray, qubits=None, num_qubits: int | None = None) -> Circuit:
    """Decompose a unitary into RZ/RY/PHASE/CNOT/CPHASE gates, exact up to 1e-9.

    The optimised quantum Shannon decomposition (module docstring): a generic
    q-qubit unitary, q >= 2, takes (23/48) 4^q - (3/2) 2^q + 4/3 two-qubit
    gates (3, 20, 100, 444, 1868 for q = 2..6); degenerate inputs such as
    diagonal, controlled or local unitaries take fewer.  The result includes
    the input's global phase.
    """
    u = np.asarray(u, dtype=complex)
    dim = len(u)
    q = int(round(math.log2(dim)))
    if u.shape != (dim, dim) or 2**q != dim:
        raise ValueError(f"matrix shape {u.shape} is not 2^q x 2^q")
    if np.max(np.abs(u.conj().T @ u - np.eye(dim))) >= UNITARITY_TOL:
        raise NotUnitary("synth_unitary input is not unitary")
    qubits, total = _wires(q, qubits, num_qubits)
    return Circuit.join(total, _synth_rec(u, qubits))


def decompose_opaque(c: Circuit) -> Circuit:  # called by acceptance criterion 9 and perfbench
    """``c`` itself: every gate kind is already one- or two-qubit."""
    return c


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
    qubits, total = _wires(q, qubits, num_qubits)
    rows = []
    for s in range(q):
        rows.append((_H, (qubits[s], -1), math.nan))
        rows += [(_CPHASE, (qubits[s + d], qubits[s]), -math.pi / 2**d) for d in range(1, q - s)]
    perm = list(range(total))
    for s in range(q):
        perm[qubits[s]] = qubits[q - 1 - s]
    return Circuit.join(total, [tuple(zip(*rows))], perm)
