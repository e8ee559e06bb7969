"""Loader synthesis: angle formulas, Gray-code decomposition, Schmidt circuits,
generic unitary synthesis, and the inverse QFT."""
import math

import numpy as np
import pytest

from conftest import dense_circuit_matrix, rand_state, rand_unitary
from fsl.circuit import Circuit, GateKind, gate_counts, invert, compose
from fsl.errors import NonPowerOfTwoLength, NonUnitNorm, NotUnitary
from fsl.simulator import Statevector, fidelity, run
from fsl.synth import (SchmidtForm, UCRAngles, _ucr_block, build_inverse_qft,
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
        gates = _ucr_block(GateKind.RY, alpha, controls=[0, 1, 2], target=3)
        got = dense_circuit_matrix(Circuit(4, tuple(gates)))
        want = np.zeros((16, 16))
        for k in range(8):
            c, s = math.cos(alpha[k] / 2), math.sin(alpha[k] / 2)
            want[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[c, -s], [s, c]]
        assert np.allclose(got, want, atol=1e-12)

    def test_inverted_walk_block_same_operator(self, rng):
        alpha = rng.standard_normal(4)
        normal = dense_circuit_matrix(Circuit(3, tuple(
            _ucr_block(GateKind.RZ, alpha, [0, 1], 2))))
        inverted = dense_circuit_matrix(Circuit(3, tuple(
            _ucr_block(GateKind.RZ, alpha, [0, 1], 2, start_with_cnot=True))))
        assert np.allclose(normal, inverted, atol=1e-12)

    def test_gray_code_sequence(self):
        assert [gray_code(k) for k in range(8)] == [0, 1, 3, 2, 6, 7, 5, 4]


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
        # A loads |0>, so only the ladder CNOT and the local bases remain
        assert [g.kind.value for g in c.gates][:1] == ["CNOT"]

    def test_decomposed_schmidt_circuit_still_exact(self, rng):
        target = rand_state(rng, 5)
        c = decompose_opaque(build_schmidt_circuit(target))
        assert not c.has_opaque()
        assert fidelity(run(c), Statevector(5, target)) >= 1 - 1e-9


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

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_reconstructs_random_unitaries(self, q, rng):
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


class TestInverseQft:
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

    def test_composed_with_inverse_is_identity(self, rng):
        c = build_inverse_qft(5)
        start = Statevector(5, rand_state(rng, 5))
        out = run(compose(c, invert(c)), start)
        assert fidelity(out, start) >= 1 - 1e-10

    def test_gate_tally(self):
        counts = gate_counts(build_inverse_qft(6))
        assert counts.by_kind["H"] == 6
        assert counts.by_kind["CPHASE"] == 15
