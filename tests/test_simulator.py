"""Statevector engine against an independent dense-matrix oracle."""
import itertools
import math

import numpy as np
import pytest

from conftest import dense_circuit_matrix, dense_gate_matrix, rand_state, random_circuit
from fsl.circuit import (Circuit, Gate, GateKind, cnot, compose, h, invert, ry, swap,
                         unitary)
from fsl.errors import CapacityExceeded, DimensionMismatch, NotADistribution
from fsl.simulator import (ShotHistogram, Statevector, classical_fidelity,
                           dump_statevector, fidelity, histogram_to_csv,
                           load_statevector, reduced_density_matrix,
                           reduced_population, run, sample)


class TestRun:
    def test_empty_circuit_is_identity(self, rng):
        start = Statevector(3, rand_state(rng, 3))
        assert np.array_equal(run(Circuit(3), start).amplitudes, start.amplitudes)

    def test_hadamard_on_zero(self):
        out = run(Circuit(1, (h(0),)))
        assert np.allclose(out.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_big_endian_convention(self):
        # qubit 0 is the most significant index bit: CNOT(0, 1) maps |10> to |11>
        out = run(Circuit(2, (cnot(0, 1),)),
                  Statevector(2, np.array([0, 0, 1, 0], dtype=complex)))
        assert np.allclose(out.amplitudes, [0, 0, 0, 1])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_matrix_oracle(self, seed):
        rng = np.random.default_rng(seed)
        c = random_circuit(rng, 4, 10, include_opaque=True, random_perm=(seed % 2 == 0))
        start = rand_state(rng, 4)
        want = dense_circuit_matrix(c) @ start
        got = run(c, Statevector(4, start)).amplitudes
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("kind", [GateKind.H, GateKind.X, GateKind.RY, GateKind.RZ,
                                      GateKind.PHASE])
    def test_one_qubit_kind_on_every_wire(self, kind, rng):
        start = rand_state(rng, 4)
        for q in range(4):
            angle = None if kind in (GateKind.H, GateKind.X) else float(rng.uniform(-7, 7))
            g = Gate(kind, (q,), angle)
            got = run(Circuit(4, (g,)), Statevector(4, start)).amplitudes
            assert np.max(np.abs(got - dense_gate_matrix(g, 4) @ start)) < 1e-14

    @pytest.mark.parametrize("kind", [GateKind.CNOT, GateKind.CPHASE, GateKind.SWAP])
    def test_two_qubit_kind_on_every_ordered_pair(self, kind, rng):
        start = rand_state(rng, 4)
        for pair in itertools.permutations(range(4), 2):
            angle = float(rng.uniform(-7, 7)) if kind is GateKind.CPHASE else None
            g = Gate(kind, pair, angle)
            got = run(Circuit(4, (g,)), Statevector(4, start)).amplitudes
            assert np.max(np.abs(got - dense_gate_matrix(g, 4) @ start)) < 1e-14

    def test_norm_drift_raises_value_error(self, rng):
        grow = unitary((1 + 4e-11) * np.eye(2), (1,))
        with pytest.raises(ValueError, match="not normalized"):
            run(Circuit(3, (grow,) * 10), Statevector(3, rand_state(rng, 3)))

    def test_norm_preserved(self, rng):
        c = random_circuit(rng, 5, 200)
        out = run(c, Statevector(5, rand_state(rng, 5)))
        assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1) < 1e-10

    def test_run_then_inverse_is_identity(self, rng):
        for _ in range(5):
            c = random_circuit(rng, 4, 30, include_opaque=True, random_perm=True)
            start = Statevector(4, rand_state(rng, 4))
            out = run(compose(c, invert(c)), start)
            assert fidelity(out, start) >= 1 - 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            run(Circuit(2), Statevector.zero(3))

    def test_capacity_cap(self):
        with pytest.raises(CapacityExceeded):
            run(Circuit(5, (h(0),)), max_qubits=4)

    def test_swap_elision_equivalent_to_swaps(self, rng):
        base = random_circuit(rng, 4, 15)
        perm = (3, 2, 1, 0)
        elided = Circuit(4, base.gates, perm)
        explicit = Circuit(4, base.gates + (swap(0, 3), swap(1, 2)))
        s = Statevector(4, rand_state(rng, 4))
        assert np.allclose(run(elided, s).amplitudes, run(explicit, s).amplitudes)


class TestFidelity:
    def test_self_fidelity_is_one(self, rng):
        s = Statevector(3, rand_state(rng, 3))
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_states(self):
        a = Statevector(2, np.array([1, 0, 0, 0], dtype=complex))
        b = Statevector(2, np.array([0, 0, 1, 0], dtype=complex))
        assert fidelity(a, b) == 0.0

    def test_global_phase_insensitive(self, rng):
        v = rand_state(rng, 3)
        assert fidelity(Statevector(3, v), Statevector(3, v * np.exp(0.7j))) == pytest.approx(1.0)

    def test_symmetric(self, rng):
        a = Statevector(3, rand_state(rng, 3))
        b = Statevector(3, rand_state(rng, 3))
        assert fidelity(a, b) == fidelity(b, a)

    def test_matches_inner_product_oracle(self, rng):
        va, vb = rand_state(rng, 4), rand_state(rng, 4)
        want = abs(sum(va[i].conjugate() * vb[i] for i in range(16))) ** 2
        assert fidelity(Statevector(4, va), Statevector(4, vb)) == pytest.approx(want, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity(Statevector.zero(2), Statevector.zero(3))


class TestClassicalFidelity:
    def test_identical_distributions(self):
        p = np.array([0.25, 0.75])
        assert classical_fidelity(p, p) == pytest.approx(1.0)

    def test_disjoint_supports(self):
        assert classical_fidelity([1.0, 0.0], [0.0, 1.0]) == 0.0

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_uniform_vs_point_mass(self, k):
        dim = 2**k
        uniform = np.full(dim, 1 / dim)
        point = np.zeros(dim)
        point[0] = 1.0
        assert classical_fidelity(uniform, point) == pytest.approx(1 / dim)

    def test_permutation_invariant(self, rng):
        p = rng.random(8)
        p /= p.sum()
        q = rng.random(8)
        q /= q.sum()
        order = rng.permutation(8)
        assert classical_fidelity(p[order], q[order]) == pytest.approx(classical_fidelity(p, q))

    def test_rejects_non_distributions(self):
        with pytest.raises(NotADistribution):
            classical_fidelity([0.5, 0.4], [0.5, 0.5])
        with pytest.raises(NotADistribution):
            classical_fidelity([1.1, -0.1], [0.5, 0.5])


class TestSample:
    def test_basis_state_hits_single_outcome(self):
        s = Statevector(3, np.eye(8, dtype=complex)[5])
        hist = sample(s, 1000, seed=1)
        assert hist.counts == {5: 1000}

    def test_seed_determinism(self, rng):
        s = Statevector(4, rand_state(rng, 4))
        assert sample(s, 2000, seed=42).counts == sample(s, 2000, seed=42).counts

    def test_counts_sum_to_shots(self, rng):
        s = Statevector(4, rand_state(rng, 4))
        hist = sample(s, 1234, seed=3)
        assert hist.shots == 1234
        assert sum(hist.counts.values()) == 1234

    def test_histogram_converges_in_total_variation(self, rng):
        s = Statevector(6, rand_state(rng, 6))
        hist = sample(s, 100_000, seed=9)
        probs = np.abs(s.amplitudes) ** 2
        tv = 0.5 * np.sum(np.abs(hist.probabilities(64) - probs))
        assert tv <= 0.02

    def test_invalid_shots(self, rng):
        with pytest.raises(ValueError):
            sample(Statevector.zero(1), 0, seed=0)

    def test_histogram_requires_consistent_total(self):
        with pytest.raises(ValueError):
            ShotHistogram({0: 3}, shots=4)


class TestReducedStates:
    def test_population_of_product_state(self):
        s = run(Circuit(2, (h(1),)))  # |0> (x) |+>
        assert reduced_population(s, 0, 0) == pytest.approx(1.0)
        assert reduced_population(s, 1, 1) == pytest.approx(0.5)

    def test_reduced_density_matrix_of_bell_pair(self):
        s = run(Circuit(2, (h(0), cnot(0, 1))))
        rho = reduced_density_matrix(s, (0,))
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)


class TestOnDiskFormats:
    def test_statevector_binary_round_trip(self, rng, tmp_path):
        s = Statevector(5, rand_state(rng, 5))
        path = tmp_path / "state.c16"
        dump_statevector(s, path)
        back = load_statevector(path)
        assert back.num_qubits == 5
        assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-15

    def test_histogram_csv_layout(self):
        text = histogram_to_csv(ShotHistogram({3: 5, 1: 2}, 7))
        assert text == "index,count\n1,2\n3,5\n"
