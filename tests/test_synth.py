"""Loader synthesis: angle formulas, Gray-code decomposition, Schmidt circuits,
generic unitary synthesis (the optimal quantum Shannon decomposition and its
two-qubit leaves), and the inverse QFT."""
import math
from functools import reduce

import numpy as np
import pytest

from conftest import (dense_circuit_matrix, dense_gate_matrix, gate_key, rand_state,
                      rand_unitary, reference_ucr_block, reference_ucr_cascade)
from fsl import fourier, funcs
from fsl.circuit import CODES, Circuit, GateKind, cnot, gate_counts, h
from fsl.compiler import prepare_spec
from fsl.errors import NonPowerOfTwoLength, NonUnitNorm, NotUnitary
from fsl.frqi import GrayImage, phase_spectra
from fsl.simulator import Statevector, fidelity, run
from fsl.synth import (REAL_TOL, SCHMIDT_RANK_TOL, SchmidtForm, UCRAngles, _cossin,
                       _demultiplex, _eigvecs, _real_eigvecs, _split_diagonal, _synth_rec,
                       _ucr_block, build_inverse_qft,
                       build_schmidt_circuit, build_ucr_circuit, decompose_opaque,
                       gray_code, gray_transform, gray_transform_matrix,
                       mottonen_angles, schmidt_decompose, synth_unitary)


class TestMottonenAngles:
    def test_zero_state_gives_zero_angles(self):
        ang = mottonen_angles(np.eye(8)[0])
        assert all(np.max(np.abs(v)) == 0 for v in ang.alpha_y)
        assert all(np.max(np.abs(v)) == 0 for v in ang.alpha_z)
        assert ang.global_phase == 0

    def test_single_qubit_plus_state(self):
        ang = mottonen_angles(np.array([1, 1]) / math.sqrt(2))
        assert ang.alpha_y[0][0] == pytest.approx(math.pi / 2)

    def test_level_vector_lengths(self):
        ang = mottonen_angles(np.eye(16)[0])
        assert [len(v) for v in ang.alpha_y] == [8, 4, 2, 1]

    def test_rejects_unnormalized_input(self):
        with pytest.raises(NonUnitNorm):
            mottonen_angles(np.array([1.0, 1.0]))

    def test_rejects_nan_input(self):
        with pytest.raises(NonUnitNorm):
            mottonen_angles(np.array([np.nan, np.nan]))

    def test_accepts_a_strided_view(self):
        x = np.zeros(8)
        x[::2] = 0.5
        strided, dense = mottonen_angles(x[::2]), mottonen_angles(np.full(4, 0.5))
        assert [a.tolist() for a in strided.alpha_y] == [a.tolist() for a in dense.alpha_y]

    def test_circuit_from_angles_reproduces_state_exactly(self, rng):
        # exact equality, global phase included, not just fidelity
        target = rand_state(rng, 3)
        out = run(build_ucr_circuit(target)).amplitudes
        assert np.max(np.abs(out - target)) < 1e-10

    def test_zero_mass_blocks_get_zero_angles(self):
        target = np.zeros(8, dtype=complex)
        target[0] = 1 / math.sqrt(2)
        target[1] = 1j / math.sqrt(2)
        ang = mottonen_angles(target)
        assert np.all(ang.alpha_y[0][1:] == 0.0)  # empty pair blocks stay untouched
        out = run(build_ucr_circuit(target)).amplitudes
        assert np.max(np.abs(out - target)) < 1e-12

    def test_small_amplitudes_load_to_full_precision(self):
        # the mirror-extended tanh loader vector of n=19, m=6: entry 126
        # (8.6e-7) pairs with an entry of magnitude 0.43, the small member of
        # a block-mass ratio near 1
        extended = fourier.mirror_extend(funcs.sample(funcs.builtin("tanh"), 19))
        vec = prepare_spec(extended, 6).wrapped_vector()
        vec /= np.linalg.norm(vec)
        assert abs(vec[126]) < 1e-6 < 0.4 < abs(vec[127])
        out = run(build_ucr_circuit(vec)).amplitudes
        assert np.max(np.abs(out - vec)) <= 1e-14
        assert abs(out[126] - vec[126]) <= 1e-9 * abs(vec[126])


class TestGrayTransform:
    def test_length_one_is_identity(self):
        assert gray_transform([1.3]) == pytest.approx([1.3])

    def test_length_two_half_sum_half_difference(self):
        theta = gray_transform([0.8, 0.2])
        assert theta == pytest.approx([0.5, 0.3])

    def test_matches_reference_matrix(self, rng):
        for j in (1, 2, 3, 4):
            alpha = rng.standard_normal(2**j)
            assert np.allclose(gray_transform(alpha), gray_transform_matrix(j) @ alpha,
                               atol=1e-12)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(NonPowerOfTwoLength):
            gray_transform([1.0, 2.0, 3.0])

    def test_matrix_inverse_identity(self):
        # M_j * (2^j * M_j^T) = I
        for j in (1, 2, 3):
            m = gray_transform_matrix(j)
            assert np.allclose(m @ (2**j * m.T), np.eye(2**j), atol=1e-12)

    def test_round_trip_recovers_alpha(self, rng):
        alpha = rng.standard_normal(8)
        theta = gray_transform(alpha)
        back = (2**3 * gray_transform_matrix(3).T) @ theta
        assert np.allclose(back, alpha, atol=1e-12)

    def test_decomposed_block_equals_direct_multiplexor(self, rng):
        # dense-matrix comparison of the CNOT-interleaved form against the
        # uniformly controlled rotation built directly from alpha
        alpha = rng.standard_normal(8)
        block = _ucr_block(GateKind.RY, alpha, controls=[0, 1, 2], target=3)
        got = dense_circuit_matrix(Circuit.join(4, [block]))
        want = np.zeros((16, 16))
        for k in range(8):
            c, s = math.cos(alpha[k] / 2), math.sin(alpha[k] / 2)
            want[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[c, -s], [s, c]]
        assert np.allclose(got, want, atol=1e-12)

    def test_inverted_walk_block_same_operator(self, rng):
        alpha = rng.standard_normal(4)
        normal = dense_circuit_matrix(Circuit.join(3, [
            _ucr_block(GateKind.RZ, alpha, [0, 1], 2)]))
        inverted = dense_circuit_matrix(Circuit.join(3, [
            _ucr_block(GateKind.RZ, alpha, [0, 1], 2, start_with_cnot=True)]))
        assert np.allclose(normal, inverted, atol=1e-12)

    @pytest.mark.parametrize("start_with_cnot", [False, True])
    @pytest.mark.parametrize("axis", [GateKind.RY, GateKind.RZ])
    @pytest.mark.parametrize("j", range(7))
    def test_block_equals_per_gate_gray_formula(self, j, axis, start_with_cnot, rng):
        wires = [int(w) for w in rng.permutation(j + 2)]
        controls, target = wires[:j], wires[j + 1]
        theta = rng.standard_normal(2**j)
        theta[rng.random(2**j) < 0.4] = 0.0  # elided rotations put CNOTs side by side
        alpha = 2**j * gray_transform_matrix(j).T @ theta
        kinds, wires, angles = _ucr_block(axis, alpha, controls, target, start_with_cnot)
        got = Circuit.join(j + 2, [(kinds, wires, angles)])
        want = reference_ucr_block(axis, alpha, controls, target, start_with_cnot)
        assert [gate_key(g) for g in got.gates] == [gate_key(g) for g in want]
        cnot_controls = np.asarray(wires)[np.asarray(kinds) == CODES[GateKind.CNOT], 0]
        assert len(set(cnot_controls.tolist())) == j  # the walk uses all j control wires
        zero = np.zeros(2**j)
        assert Circuit.join(j + 2, [_ucr_block(axis, zero, controls, target,
                                                start_with_cnot)]).gates == ()

    def test_gray_code_sequence(self):
        assert [gray_code(k) for k in range(8)] == [0, 1, 3, 2, 6, 7, 5, 4]
        assert gray_code(np.arange(8)).tolist() == [0, 1, 3, 2, 6, 7, 5, 4]


class TestBuildUcr:
    def test_zero_target_produces_zero_state(self):
        out = run(build_ucr_circuit(np.eye(16)[0]))
        assert out.amplitudes[0] == pytest.approx(1.0)

    def test_plus_state(self):
        target = np.array([1, 1]) / math.sqrt(2)
        assert np.allclose(run(build_ucr_circuit(target)).amplitudes, target)

    def test_hundred_random_five_qubit_states(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            target = rand_state(rng, 5)
            out = run(build_ucr_circuit(target))
            assert fidelity(out, Statevector(5, target)) >= 1 - 1e-10

    @pytest.mark.parametrize("q", [7, 8])
    def test_largest_supported_targets(self, q, rng):
        target = rand_state(rng, q)
        assert fidelity(run(build_ucr_circuit(target)), Statevector(q, target)) >= 1 - 1e-10
        assert fidelity(run(build_schmidt_circuit(target)), Statevector(q, target)) >= 1 - 1e-9

    def test_gate_budget_before_peephole(self, rng):
        q = 5
        c = build_ucr_circuit(rand_state(rng, q))
        counts = gate_counts(c)
        assert counts.by_kind.get("RY", 0) <= 2 ** (q + 1)
        assert counts.by_kind.get("RZ", 0) <= 2 ** (q + 1)
        assert counts.two_qubit <= 2 ** (q + 1)

    def test_real_positive_target_needs_no_z_rotations(self, rng):
        v = np.abs(rand_state(rng, 4))
        v /= np.linalg.norm(v)
        counts = gate_counts(build_ucr_circuit(v))
        assert counts.by_kind.get("RZ", 0) == 0

    def test_custom_qubit_mapping(self, rng):
        target = rand_state(rng, 2)
        c = build_ucr_circuit(target, qubits=[2, 0], num_qubits=3)
        out = run(c).amplitudes.reshape(2, 2, 2)
        # amplitude pattern lives on qubits (2, 0); qubit 1 stays |0>
        got = np.array([[out[b0, 0, b2] for b2 in (0, 1)] for b0 in (0, 1)])
        assert np.max(np.abs(got.T.reshape(-1) - target)) < 1e-12


def _crosses(c: Circuit, cut: int) -> bool:
    """Whether a two-qubit gate of ``c`` has one wire below ``cut`` and one at or above it."""
    pairs = c.wires[c.wires[:, 1] >= 0]
    return bool(np.any((pairs[:, 0] < cut) != (pairs[:, 1] < cut)))


def _factors(rng, sizes, zeros=0.0):
    """Random complex unit vectors on ``sizes`` qubits each, a share ``zeros``
    of whose entries are 0 (never all of them)."""
    out = []
    for size in sizes:
        f = rand_state(rng, size)
        f[rng.random(2**size) < zeros] = 0.0
        f[rng.integers(2**size)] += 0.5
        out.append(f / np.linalg.norm(f))
    return out


def _from_angles(alpha_y, alpha_z) -> np.ndarray:
    """The state the UCR cascade of these level angles prepares, with no
    global phase: each block of norm n and phase p splits into children of
    norms n cos(y/2), n sin(y/2) and phases p -+ z/2, from the top level down."""
    norm, phase = np.ones(1), np.zeros(1)
    for y, z in zip(reversed(alpha_y), reversed(alpha_z)):
        norm = np.stack([norm * np.cos(y / 2), norm * np.sin(y / 2)], axis=1).reshape(-1)
        phase = np.stack([phase - z / 2, phase + z / 2], axis=1).reshape(-1)
    return norm * np.exp(1j * phase)


def _few_angle_vectors(rng, q):
    """Complex and real unit vectors on q qubits whose Gray angles mostly vanish.

    Sparse: each level's rotation angles theta are zero but for a few random
    ones.  Structured: each level's angles alpha depend on two of its control
    wires only, so theta is zero off the four Gray indices of those two.
    Every y-angle but the pair level's (``alpha_y[0]``) lies in (0, pi) and
    every z-angle is small, so ``mottonen_angles`` gets the same angles back."""
    def sparse(size, centre, spread):
        theta = np.zeros(size)
        theta[0] = centre
        theta[rng.integers(size, size=3)] += rng.uniform(-spread, spread, 3)
        return size * gray_transform_matrix(size.bit_length() - 1).T @ theta

    def structured(size, low, high):
        bits = rng.integers(max(size.bit_length() - 1, 1), size=2)
        table = rng.uniform(low, high, (2, 2))
        k = np.arange(size)
        return table[(k >> bits[0]) & 1, (k >> bits[1]) & 1]

    sizes = [2 ** (q - 1 - j) for j in range(q)]
    out = []
    for real in (False, True):  # a real vector's pair level is signed, in (-2 pi, 2 pi)
        ys = [sparse(s, math.pi / 2, 1.5 if real and s == sizes[0] else 0.25) for s in sizes]
        zs = [np.zeros(s) if real else sparse(s, 0.0, 0.1) for s in sizes]
        out.append(_from_angles(ys, zs))
        ys = [structured(s, *(-6.0, 6.0) if real and s == sizes[0] else (0.3, math.pi - 0.3))
              for s in sizes]
        zs = [np.zeros(s) if real else structured(s, -0.2, 0.2) for s in sizes]
        out.append(_from_angles(ys, zs))
    return out


class TestProductAndRealLoads:
    """A product target loads factor by factor with no gate between them; one
    real up to a global phase loads with signed RY angles and at most one RZ;
    each CNOT run keeps a control at most once; all exactly, phase included."""

    @pytest.mark.parametrize("q", range(2, 8))
    def test_products_split_at_every_cut(self, q, rng):
        for cut in range(1, q):
            target = reduce(np.kron, _factors(rng, [cut, q - cut]))
            c = build_ucr_circuit(target)
            assert not _crosses(c, cut)
            assert np.max(np.abs(run(c).amplitudes - target)) < 1e-12

    @pytest.mark.parametrize("sizes", [(1, 1, 1), (2, 1, 3), (3, 3, 2, 1), (1, 2, 1, 2, 1)])
    @pytest.mark.parametrize("zeros", [0.0, 0.4])
    def test_nested_products_load_factor_by_factor(self, sizes, zeros, rng):
        factors = _factors(rng, sizes, zeros)
        target = reduce(np.kron, factors)
        c = build_ucr_circuit(target)
        assert np.max(np.abs(run(c).amplitudes - target)) < 1e-12
        for cut in np.cumsum(sizes)[:-1]:
            assert not _crosses(c, int(cut))
        assert gate_counts(c).two_qubit == sum(gate_counts(build_ucr_circuit(f)).two_qubit
                                               for f in factors)

    def test_basis_and_sparse_factors(self):
        target = reduce(np.kron, [np.eye(4)[2], np.array([0.6, 0.8j]), np.eye(2)[1]])
        c = build_ucr_circuit(target)
        assert gate_counts(c).two_qubit == 0
        assert np.max(np.abs(run(c).amplitudes - target)) < 1e-12

    @pytest.mark.parametrize("q", range(1, 9))
    def test_real_vectors_with_negative_entries(self, q, rng):
        target = rng.standard_normal(2**q)
        target /= np.linalg.norm(target)
        ang = mottonen_angles(target)
        assert ang.global_phase == 0 and all(np.all(z == 0) for z in ang.alpha_z)
        c = build_ucr_circuit(target)
        assert {"RZ", "PHASE"}.isdisjoint(gate_counts(c).by_kind)
        assert np.max(np.abs(run(c).amplitudes - target)) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_real_up_to_a_phase_takes_one_rz(self, seed):
        rng = np.random.default_rng(1900 + seed)
        real, cplx = rng.standard_normal(8), rand_state(rng, 3)
        real /= np.linalg.norm(real)
        alone = gate_counts(build_ucr_circuit(cplx)).by_kind.get("RZ", 0)
        theta = rng.uniform(-math.pi, math.pi)
        for target, limit in ((np.kron(real, cplx), alone + 1), (np.kron(cplx, real), alone + 1),
                              (np.exp(1j * theta) * real, 1)):
            c = build_ucr_circuit(target)
            counts = gate_counts(c)
            assert counts.by_kind.get("RZ", 0) <= limit and "PHASE" not in counts.by_kind
            assert np.max(np.abs(run(c).amplitudes - target)) < 1e-12
        phased = np.exp(1j * theta) * real
        ang = mottonen_angles(phased)
        assert all(np.all(z == 0) for z in ang.alpha_z)
        folded = (theta + math.pi / 2) % math.pi - math.pi / 2  # into [-pi/2, pi/2)
        assert ang.global_phase == pytest.approx(2 * folded, abs=1e-12)
        assert gate_counts(build_ucr_circuit(phased)).two_qubit == \
            gate_counts(build_ucr_circuit(real)).two_qubit

    def test_negative_even_entry_with_zero_partner_takes_ry_two_pi(self):
        c = build_ucr_circuit(np.array([-1.0, 0.0]))
        assert c.kinds.tolist() == [CODES[GateKind.RY]] and c.angles[0] == 2 * math.pi
        assert np.max(np.abs(run(c).amplitudes - [-1.0, 0.0])) < 1e-15
        target = np.array([-0.6, 0.0, 0.48, 0.64])  # not a product
        assert mottonen_angles(target).alpha_y[0].tolist() == [2 * math.pi,
                                                               2 * math.atan2(0.64, 0.48)]
        assert np.max(np.abs(run(build_ucr_circuit(target)).amplitudes - target)) < 1e-12

    def test_negative_zero_pair_gets_angle_zero(self):
        ang = mottonen_angles(np.array([0.0, 0.6, -0.0, -0.0, 0.0, 0.8, 0.0, 0.0]))
        assert ang.alpha_y[0][1] == 0.0

    def test_fft_noise_counts_as_real_and_a_mirror_spectrum_does_not(self):
        sinc2d = prepare_spec(funcs.sample(funcs.builtin("sinc2d"), 10), 3).wrapped_vector()
        assert 0 < np.max(np.abs(sinc2d.imag)) < 1e-16
        assert "RZ" not in gate_counts(build_ucr_circuit(sinc2d)).by_kind
        extended = fourier.mirror_extend(funcs.sample(funcs.builtin("tanh"), 19))
        tanh = prepare_spec(extended, 6).wrapped_vector()
        tanh /= np.linalg.norm(tanh)
        assert np.max(np.abs(tanh.imag)) > 1e-7 > REAL_TOL
        assert gate_counts(build_ucr_circuit(tanh)).by_kind["RZ"] > 0

    def test_inputs_one_ulp_apart_across_the_residual_cut(self, rng):
        # A product on 3 + 3 qubits plus t times a fixed direction: as t grows
        # the pivot residual crosses SCHMIDT_RANK_TOL, and a last-bit change
        # at the crossing switches the load from two factors to one cascade.
        product, tilt = reduce(np.kron, _factors(rng, [3, 3])), rand_state(rng, 6)

        def vector(t):
            vec = product + t * tilt
            return vec / np.linalg.norm(vec)

        def split(vec):
            return not _crosses(build_ucr_circuit(vec), 3)

        lo, hi = 0.1 * SCHMIDT_RANK_TOL, 10 * SCHMIDT_RANK_TOL
        assert split(vector(lo)) and not split(vector(hi))
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if split(vector(mid)) else (lo, mid)
        a, b = (vector(t).view(float) for t in (lo, hi))
        steps = [a]
        for i in np.flatnonzero(a != b):
            while steps[-1][i] != b[i]:
                steps.append(steps[-1].copy())
                steps[-1][i] = np.nextafter(steps[-1][i], b[i])
        steps = [vec.view(complex) for vec in steps]
        splits = [split(vec) for vec in steps]
        cut = next(i for i in range(len(steps) - 1) if splits[i] != splits[i + 1])
        for target in steps[cut:cut + 2]:
            assert np.max(np.abs(run(build_ucr_circuit(target)).amplitudes - target)) < 1e-12

    @pytest.mark.parametrize("q", range(1, 12))
    def test_non_products_are_the_reference_cascade(self, q):
        rng = np.random.default_rng(1800 + q)
        for zeros in (0.0, 0.3):
            target = rand_state(rng, q)
            target[rng.random(2**q) < zeros] = 0.0
            target /= np.linalg.norm(target)
            wires = [int(w) for w in rng.permutation(q + 1)[:q]]
            got = build_ucr_circuit(target, qubits=wires, num_qubits=q + 1)
            assert [gate_key(g) for g in got.gates] == \
                [gate_key(g) for g in reference_ucr_cascade(target, wires, q + 1).gates]

    @pytest.mark.parametrize("q", range(2, 11))
    def test_cnot_runs_hold_each_control_once(self, q):
        # every CNOT of a level targets its wire, so a run of them with no
        # rotation between commutes and needs each control at most once
        rng = np.random.default_rng(1910 + q)
        for target in _few_angle_vectors(rng, q):
            c = build_ucr_circuit(target)
            run_target = None
            for kind, (a, b) in zip(c.kinds.tolist(), c.wires.tolist()):
                if kind != CODES[GateKind.CNOT]:
                    run_target = None
                    continue
                if b != run_target:
                    run_target, controls = b, set()
                assert a not in controls
                controls.add(a)
            state = np.eye(2**q, 1, dtype=complex)[:, 0]
            for g in c.gates:  # the dense-matrix oracle, one gate at a time
                state = dense_gate_matrix(g, q) @ state
            assert np.max(np.abs(state - target)) < 1e-12

    def test_length_not_a_power_of_two_is_rejected(self):
        with pytest.raises(NonPowerOfTwoLength):
            build_ucr_circuit(np.ones(6) / math.sqrt(6))

    def test_schmidt_length_not_a_power_of_two_is_rejected(self):
        with pytest.raises(NonPowerOfTwoLength):
            build_schmidt_circuit(np.ones(6) / math.sqrt(6))


class TestSchmidt:
    def test_product_state_has_rank_one(self, rng):
        a, b = rand_state(rng, 1), rand_state(rng, 1)
        form = schmidt_decompose(np.kron(a, b))
        assert form.schmidt_coeffs[0] == pytest.approx(1.0)
        assert np.max(form.schmidt_coeffs[1:]) < 1e-12

    def test_bell_state_coefficients(self):
        bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
        form = schmidt_decompose(bell)
        assert np.allclose(form.schmidt_coeffs, [1 / math.sqrt(2)] * 2)

    def test_split_convention_left_is_larger(self, rng):
        form = schmidt_decompose(rand_state(rng, 5))
        assert (form.left_qubits, form.right_qubits) == (3, 2)

    def test_coefficients_descending_unit_mass(self, rng):
        form = schmidt_decompose(rand_state(rng, 4))
        assert np.all(np.diff(form.schmidt_coeffs) <= 0)
        assert np.sum(form.schmidt_coeffs**2) == pytest.approx(1.0, abs=1e-10)

    def test_reconstruction_oracle(self, rng):
        target = rand_state(rng, 4)
        form = schmidt_decompose(target)
        rebuilt = np.zeros_like(target)
        for k, coeff in enumerate(form.schmidt_coeffs):
            rebuilt += coeff * np.kron(form.u_matrix[:, k], form.v_matrix[:, k])
        assert np.max(np.abs(rebuilt - target)) < 1e-10

    def test_circuit_reaches_target(self, rng):
        for q in (2, 3, 4, 5, 6):
            target = rand_state(rng, q)
            out = run(build_schmidt_circuit(target))
            assert fidelity(out, Statevector(q, target)) >= 1 - 1e-9

    def test_bell_circuit_structure(self):
        bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
        c = build_schmidt_circuit(bell)
        kinds = [g.kind.value for g in c.gates]
        assert kinds == ["RY", "CNOT"]  # RY(pi/2)-equivalent + ladder; U = V = I elided
        assert c.gates[0].angle == pytest.approx(math.pi / 2)

    def test_product_state_loader_is_trivial(self, rng):
        target = np.kron(rand_state(rng, 1), rand_state(rng, 1))
        c = build_schmidt_circuit(target)
        # rank 1: one UCR load, which splits the product, so nothing entangles
        assert gate_counts(c).two_qubit == 0
        assert np.max(np.abs(run(c).amplitudes - target)) < 1e-12

    def test_inputs_one_ulp_apart_give_nearby_bases(self):
        # A real FRQI loader vector (n=4, m=2) has a zero singular value.  Under
        # a last-bit change the SVD alone may flip a Schmidt pair's sign or
        # complete the null space anew, moving U and V entries by up to 2.
        img = GrayImage(16, np.random.default_rng(0).random((16, 16)))
        vec = phase_spectra(img, 2)
        vec /= np.linalg.norm(vec)
        form = schmidt_decompose(vec)
        assert np.count_nonzero(form.schmidt_coeffs) < len(form.schmidt_coeffs)
        for k in range(len(vec)):
            bumped = vec.copy()
            bumped[k] = complex(np.nextafter(bumped[k].real, 2.0), bumped[k].imag)
            other = schmidt_decompose(bumped)
            assert np.max(np.abs(other.u_matrix - form.u_matrix)) < 1e-12
            assert np.max(np.abs(other.v_matrix - form.v_matrix)) < 1e-12
        for target in (vec, bumped):
            out = run(build_schmidt_circuit(target)).amplitudes
            assert np.max(np.abs(out - target)) < 1e-9

    def test_inputs_one_ulp_apart_across_the_rank_cut(self, rng):
        # A rank-3 vector whose third singular value sits at SCHMIDT_RANK_TOL
        # times the first: a last-bit change moves it across the cut, so the
        # coefficient load switches from 2 wires to 1, and both must load.
        u, v = rand_unitary(rng, 4)[:, :3], rand_unitary(rng, 4)[:, :3]

        def vector(t):
            vec = ((u * [0.8, 0.6, t]) @ v.T).reshape(-1)
            return vec / np.linalg.norm(vec)

        def rank(vec):
            return np.count_nonzero(schmidt_decompose(vec).schmidt_coeffs)

        lo, hi = 0.5 * SCHMIDT_RANK_TOL, 2 * SCHMIDT_RANK_TOL
        assert (rank(vector(lo)), rank(vector(hi))) == (2, 3)
        for _ in range(60):  # to two t whose vectors differ by a few ulps
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if rank(vector(mid)) == 2 else (lo, mid)
        # walk from one to the other a last bit of one real or imaginary part at a time
        a, b = (vector(t).view(float) for t in (lo, hi))
        steps = [a]
        for i in np.flatnonzero(a != b):
            while steps[-1][i] != b[i]:
                steps.append(steps[-1].copy())
                steps[-1][i] = np.nextafter(steps[-1][i], b[i])
        steps = [vec.view(complex) for vec in steps]
        ranks = [rank(vec) for vec in steps]
        cut = next(i for i in range(len(steps) - 1) if ranks[i] != ranks[i + 1])
        assert {ranks[cut], ranks[cut + 1]} == {2, 3}
        for target in steps[cut:cut + 2]:
            out = run(build_schmidt_circuit(target)).amplitudes
            assert np.max(np.abs(out - target)) < 1e-9

    @pytest.mark.parametrize("rank", [1, 2, 3, 5])
    def test_low_rank_vectors_load_exactly(self, rank, rng):
        for q in range(2, 9):
            left, right = (q + 1) // 2, q // 2
            if rank > 2**right:
                continue
            u, v = rand_unitary(rng, 2**left)[:, :rank], rand_unitary(rng, 2**right)[:, :rank]
            s = rng.uniform(0.1, 1.0, rank)
            target = ((u * s) @ v.T).reshape(-1) / np.linalg.norm(s)
            assert np.count_nonzero(schmidt_decompose(target).schmidt_coeffs) == rank
            out = run(build_schmidt_circuit(target)).amplitudes
            assert np.max(np.abs(out - target)) < 1e-12

    def test_pair_phases_are_fixed(self, rng):
        # each kept u_k overlaps the fixed vector (sqrt 1, sqrt 2, ...) with a
        # real positive number, whatever phase the SVD gave the pair
        form = schmidt_decompose(rand_state(rng, 5))
        overlap = np.sqrt(np.arange(1.0, 9.0)) @ form.u_matrix[:, :4]
        assert np.max(np.abs(overlap.imag)) < 1e-12
        assert np.all(overlap.real > 0)

    def test_bases_are_unitary_and_complete_the_singular_vectors(self, rng):
        target = np.kron(rand_state(rng, 3), rand_state(rng, 2))  # rank 1
        form = schmidt_decompose(target)
        for mat in (form.u_matrix, form.v_matrix):
            assert np.max(np.abs(mat.conj().T @ mat - np.eye(len(mat)))) < 1e-12
        assert np.count_nonzero(form.schmidt_coeffs) == 1
        rebuilt = form.schmidt_coeffs[0] * np.kron(form.u_matrix[:, 0], form.v_matrix[:, 0])
        assert np.max(np.abs(rebuilt - target)) < 1e-12

    def test_schmidt_circuit_is_gate_level(self, rng):
        target = rand_state(rng, 5)
        c = build_schmidt_circuit(target)
        assert not c.has_opaque()
        assert fidelity(run(c), Statevector(5, target)) >= 1 - 1e-9

    def test_one_qubit_target_is_a_ucr_load(self, rng):
        # no split to take: schmidt_decompose refuses it, the loader falls back
        target = rand_state(rng, 1)
        with pytest.raises(ValueError, match="at least 2 qubits"):
            schmidt_decompose(target)
        assert build_schmidt_circuit(target, qubits=[2], num_qubits=3) == \
            build_ucr_circuit(target, qubits=[2], num_qubits=3)


class TestSynthUnitary:
    def test_identity_is_empty(self):
        assert synth_unitary(np.eye(8)).gates == ()

    def test_single_qubit_is_three_rotations_and_phase(self, rng):
        u = rand_unitary(rng, 2)
        c = synth_unitary(u)
        rotations = [g for g in c.gates if g.kind in (GateKind.RY, GateKind.RZ)]
        assert len(rotations) <= 3
        assert len(c.gates) <= 4
        assert np.max(np.abs(dense_circuit_matrix(c) - u)) < 1e-12

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
    def test_reconstructs_random_unitaries(self, q, rng):
        # exact including global phase
        u = rand_unitary(rng, 2**q)
        c = synth_unitary(u)
        assert not c.has_opaque()
        assert np.max(np.abs(dense_circuit_matrix(c) - u)) < 1e-9

    def test_gate_count_scales_as_four_to_q(self, rng):
        # regression constant: gates <= 6 * 4^q
        for q in (1, 2, 3, 4):
            c = synth_unitary(rand_unitary(rng, 2**q))
            assert len(c.gates) <= 6 * 4**q

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            synth_unitary(np.ones((2, 2)))

    @pytest.mark.parametrize("shape", [(2, 4), (3, 3)])
    def test_rejects_a_matrix_not_2q_by_2q(self, shape):
        with pytest.raises(ValueError, match="is not 2\\^q x 2\\^q"):
            synth_unitary(np.eye(*shape))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
    def test_isometry_matches_the_leading_columns(self, q, rng):
        # with its first `zeros` qubits in |0>, u's first 2^(q - zeros)
        # columns are exact including global phase, and each known zero
        # saves two-qubit gates
        u = rand_unitary(rng, 2**q)
        counts = []
        for zeros in range(q - 1):
            c = Circuit.join(q, _synth_rec(u, list(range(q)), zeros))
            cols = 2 ** (q - zeros)
            assert np.max(np.abs(dense_circuit_matrix(c)[:, :cols] - u[:, :cols])) < 1e-10
            counts.append(gate_counts(c).two_qubit)
        assert counts[0] == _OPTIMAL_TWO_QUBIT[q]
        assert all(a > b for a, b in zip(counts, counts[1:]))

    def test_decompose_opaque_returns_its_input(self):
        # every gate kind is one- or two-qubit, so there is nothing to decompose
        c = Circuit(4, (h(3), cnot(3, 0)), (1, 0, 2, 3))
        assert decompose_opaque(c) is c and not c.has_opaque()


def _synth_error(u: np.ndarray, c: Circuit) -> float:
    return float(np.max(np.abs(dense_circuit_matrix(c) - u)))


_OPTIMAL_TWO_QUBIT = {2: 3, 3: 20, 4: 100, 5: 444, 6: 1868}  # (23/48) 4^q - (3/2) 2^q + 4/3
_CNOT = np.eye(4)[[0, 1, 3, 2]]
_SWAP = np.eye(4)[[0, 2, 1, 3]]
_ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])


def _controlled(u: np.ndarray) -> np.ndarray:
    return np.block([[np.eye(len(u)), np.zeros_like(u)], [np.zeros_like(u), u]])


def _structured(name: str, q: int, rng) -> np.ndarray:
    """A q-qubit unitary of a kind whose canonical form is degenerate."""
    fill = np.eye(2 ** (q - 2))
    if name == "identity":
        return np.eye(2**q)
    if name == "diagonal":
        return np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 2**q)))
    if name in ("cnot", "swap", "iswap"):
        return np.kron({"cnot": _CNOT, "swap": _SWAP, "iswap": _ISWAP}[name], fill)
    if name == "controlled":
        return _controlled(rand_unitary(rng, 2 ** (q - 1)))
    if name == "local":
        return np.kron(rand_unitary(rng, 2), rand_unitary(rng, 2 ** (q - 1)))
    if name == "schmidt":  # a completed null space: U of an odd-width rank-deficient state
        return schmidt_decompose(np.kron(rand_state(rng, q - 1), rand_state(rng, q))).u_matrix
    raise ValueError(name)


class TestOptimalShannonDecomposition:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
    def test_generic_unitaries_take_the_optimal_cnot_count(self, q, rng):
        assert gate_counts(synth_unitary(rand_unitary(rng, 2**q))).two_qubit \
            == _OPTIMAL_TWO_QUBIT[q]

    def test_cosine_sine_multiplexors_use_cz(self, rng):
        # q=3: one multiplexed RY with its last CZ folded away, 3 CPHASE(pi);
        # 2 x 4 RZ-multiplexor CNOTs and 2 + 2 + 2 + 3 leaf CNOTs
        c = synth_unitary(rand_unitary(rng, 8))
        assert gate_counts(c).by_kind["CPHASE"] == 3
        assert gate_counts(c).by_kind["CNOT"] == 17
        assert {g.angle for g in c.gates if g.kind is GateKind.CPHASE} == {math.pi}

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("name", ["identity", "diagonal", "cnot", "swap", "iswap",
                                      "controlled", "local", "schmidt"])
    def test_structured_inputs_exact_and_never_larger(self, name, q, rng):
        u = _structured(name, q, rng)
        c = synth_unitary(u)
        assert _synth_error(u, c) <= 1e-9
        assert gate_counts(c).two_qubit <= _OPTIMAL_TWO_QUBIT[q]

    def test_identity_and_local_products_need_no_cnot(self, rng):
        assert gate_counts(synth_unitary(np.eye(4))).two_qubit == 0
        assert gate_counts(synth_unitary(_structured("local", 2, rng))).two_qubit == 0

    @pytest.mark.parametrize("name", ["random", "identity", "diagonal", "cnot", "swap", "iswap",
                                      "controlled", "local"])
    def test_leaf_full_and_up_to_a_diagonal(self, name, rng):
        u = rand_unitary(rng, 4) if name == "random" else _structured(name, 2, rng)
        full = Circuit.join(2, _synth_rec(u, [0, 1]))  # one leaf and its phase
        assert gate_counts(full).two_qubit <= 3
        assert _synth_error(u, full) <= 1e-12
        delta, w = _split_diagonal(u)
        assert np.allclose(np.abs(delta), 1.0, rtol=0, atol=1e-15)
        assert np.max(np.abs(delta[:, None] * w - u)) <= 1e-15
        split = Circuit.join(2, _synth_rec(w, [0, 1]))
        assert gate_counts(split).two_qubit <= 2
        assert _synth_error(w, split) <= 1e-12

    @pytest.mark.parametrize("q", [2, 3])
    def test_nearly_unitary_input_still_exact(self, q, rng):
        # unitary to ~1e-11, inside synth_unitary's 1e-10 acceptance
        u = rand_unitary(rng, 2**q)
        u = u + 1e-11 * (rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape))
        assert _synth_error(u, synth_unitary(u)) <= 1e-9

    def test_leaf_eigenbasis_rejects_a_non_unitary_block(self, rng):
        # Re m and Im m of a random complex symmetric m do not commute, so no
        # mix of them reproduces m
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(NotUnitary, match="real eigenbasis"):
            _real_eigvecs(m + m.T)

    def test_leaf_on_reversed_wires(self, rng):
        u = rand_unitary(rng, 4)
        c = Circuit.join(3, _synth_rec(u, [2, 0]))
        # u's first qubit is wire 2 and its second wire 0; wire 1 is idle
        want = np.einsum("cadb,ef->aecbfd", u.reshape(2, 2, 2, 2), np.eye(2)).reshape(8, 8)
        assert np.max(np.abs(dense_circuit_matrix(c) - want)) < 1e-12


def _cs_block(theta: np.ndarray, rng) -> np.ndarray:
    """(A (+) B) [[C, -S], [S, C]] (D (+) E) for random unitaries A, B, D, E."""
    c, s = np.diag(np.cos(theta)), np.diag(np.sin(theta))
    half = len(theta)
    outer, inner = ([rand_unitary(rng, half) for _ in range(2)] for _ in range(2))
    zero = np.zeros((half, half))
    return (np.block([[outer[0], zero], [zero, outer[1]]]) @ np.block([[c, -s], [s, c]])
            @ np.block([[inner[0], zero], [zero, inner[1]]]))


def _cs_input(name: str, dim: int, rng) -> np.ndarray:
    """A dim x dim unitary: random, a degenerate ``_structured`` kind, or a
    cosine-sine block whose angles are all pi/2, repeat, or lie 1e-9 apart."""
    half = dim // 2
    if name == "random":
        return rand_unitary(rng, dim)
    if name == "half_pi":
        return _cs_block(np.full(half, np.pi / 2), rng)
    if name == "repeated":
        return _cs_block(np.repeat([0.0, 0.7], half // 2), rng)
    if name == "close":
        return _cs_block(0.7 + 1e-9 * np.arange(half) - 0.7 * (np.arange(half) == 0), rng)
    return _structured(name, dim.bit_length() - 1, rng)


def _unitary_error(m: np.ndarray) -> float:
    return float(np.max(np.abs(m.conj().T @ m - np.eye(len(m)))))


def _parts_matrix(parts: list, q: int) -> np.ndarray:
    """The operator of ``_qsd``'s parts on wires 0..q-1, a leaf on the last two."""
    out = np.eye(2**q, dtype=complex)
    for part in parts:
        if isinstance(part, np.ndarray):
            step = np.kron(np.eye(2 ** (q - 2)), part)
        else:
            step = dense_circuit_matrix(Circuit.join(q, [part]))
        out = step @ out
    return out


def _with_eigenphases(phases: np.ndarray, rng) -> np.ndarray:
    v = rand_unitary(rng, len(phases))
    return (v * np.exp(1j * phases)) @ v.conj().T


_EIGENPHASES = {  # name -> eigenphases of a b^H for a demultiplexor of size n
    "random": lambda n, rng: rng.uniform(-np.pi, np.pi, n),
    "repeated": lambda n, rng: np.repeat([0.4, -2.0], n // 2),
    "one": lambda n, rng: np.zeros(n),
    "close": lambda n, rng: 0.4 + 1e-9 * np.arange(n),
    "close_and_opposite": lambda n, rng: np.tile([0.4, 0.4 + 1e-9, -np.pi, np.pi - 1e-9], n // 4),
    # mirrored about the first mix's angle (1 rad): that mix merges them
    "mirrored": lambda n, rng: 1.0 + np.tile([0.5, -0.5], n // 2) * np.repeat([1, 2], n // 2),
}


class TestCosineSineAndDemultiplexor:
    @pytest.mark.parametrize("dim", [4, 8, 16, 32, 64])
    @pytest.mark.parametrize("name", ["random", "identity", "half_pi", "cnot", "swap", "iswap",
                                      "schmidt", "repeated", "close"])
    def test_cosine_sine_factors_rebuild_the_input(self, name, dim, rng):
        u = _cs_input(name, dim, rng)
        u1, u2, theta, v1h, v2h = _cossin(u)
        assert np.all((theta >= 0) & (theta <= np.pi / 2))
        for factor in (u1, u2, v1h, v2h):
            assert _unitary_error(factor) <= 1e-13
        c, s = np.diag(np.cos(theta)), np.diag(np.sin(theta))
        rebuilt = np.block([[u1 @ c @ v1h, -u1 @ s @ v2h], [u2 @ s @ v1h, u2 @ c @ v2h]])
        assert np.max(np.abs(rebuilt - u)) <= 1e-13

    def test_identity_splits_into_identities(self):
        u1, u2, theta, v1h, v2h = _cossin(np.eye(16, dtype=complex))
        assert not np.any(theta)
        for factor in (u1, u2, v1h, v2h):
            assert np.array_equal(factor, np.eye(8))

    @pytest.mark.parametrize("dim", [4, 8, 16, 32])
    @pytest.mark.parametrize("name", sorted(_EIGENPHASES))
    def test_demultiplexor_eigenbasis_rebuilds_a_b_h(self, name, dim, rng):
        m = _with_eigenphases(_EIGENPHASES[name](dim, rng), rng)
        p, d = _eigvecs(m, (m + m.conj().T) / 2, (m - m.conj().T) / 2j, "basis")
        assert _unitary_error(p) <= 1e-13
        assert np.max(np.abs((p * d) @ p.conj().T - m)) <= 1e-13

    @pytest.mark.parametrize("dim", [4, 8, 16])
    @pytest.mark.parametrize("name", sorted(_EIGENPHASES))
    def test_demultiplexor_parts_rebuild_both_blocks(self, name, dim, rng):
        q = dim.bit_length()
        a = rand_unitary(rng, dim)
        b = _with_eigenphases(_EIGENPHASES[name](dim, rng), rng).conj().T @ a
        parts = []
        _demultiplex(a, b, 0, list(range(1, q)), parts)
        want = np.block([[a, np.zeros_like(a)], [np.zeros_like(a), b]])
        assert np.max(np.abs(_parts_matrix(parts, q) - want)) <= 1e-13

    def test_non_unitary_demultiplexor_raises(self, rng):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        with pytest.raises(NotUnitary, match=r"no eigenbasis reproduces a demultiplexor's "
                                             r"a b\^H to 1e-09 \(best .*\)"):
            _demultiplex(a, rand_unitary(rng, 8), 0, [1, 2, 3], [])


class TestInverseQft:
    def test_no_qubit_rejected(self):
        with pytest.raises(ValueError, match="at least one qubit"):
            build_inverse_qft(0)

    def test_single_qubit_is_one_hadamard(self):
        c = build_inverse_qft(1)
        assert [g.kind.value for g in c.gates] == ["H"]

    def test_zero_state_goes_uniform(self):
        out = run(build_inverse_qft(4))
        assert np.allclose(out.amplitudes, np.full(16, 0.25))

    @pytest.mark.parametrize("p", [0, 1, 7, 19, 31])
    def test_kernel_on_basis_states(self, p):
        q = 5
        start = np.zeros(32, dtype=complex)
        start[p] = 1.0
        out = run(build_inverse_qft(q), Statevector(q, start)).amplitudes
        k = np.arange(32)
        want = np.exp(-2j * np.pi * p * k / 32) / math.sqrt(32)
        assert np.max(np.abs(out - want)) < 1e-12

    def test_gate_tally(self):
        counts = gate_counts(build_inverse_qft(6))
        assert counts.by_kind["H"] == 6
        assert counts.by_kind["CPHASE"] == 15


_U4 = rand_unitary(np.random.default_rng(0), 4)
_WIRE_BUILDERS = {  # name -> (wires the input needs, build on a qubit list)
    "ucr": (3, lambda w: build_ucr_circuit(np.eye(8)[5], qubits=w)),
    "schmidt": (3, lambda w: build_schmidt_circuit(np.full(8, 8 ** -0.5), qubits=w)),
    "synth_unitary": (2, lambda w: synth_unitary(_U4, qubits=w)),
    "inverse_qft": (3, lambda w: build_inverse_qft(3, qubits=w)),
}


@pytest.mark.parametrize("extra", [-1, 1], ids=["one-short", "one-long"])
@pytest.mark.parametrize("name", sorted(_WIRE_BUILDERS))
def test_builder_rejects_wrong_wire_count(name, extra):
    q, build = _WIRE_BUILDERS[name]
    with pytest.raises(ValueError, match=f"need {q} qubits, got {q + extra}"):
        build(list(range(q + extra)))
