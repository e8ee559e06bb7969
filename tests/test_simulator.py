"""Statevector engine against an independent dense-matrix oracle."""
import functools
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import dense_circuit_matrix, dense_gate_matrix, rand_state, random_circuit
from fsl import funcs, simulator
from fsl.circuit import (CODES, Circuit, Gate, GateKind, cnot, compose, cphase, h, invert, ry,
                         swap, unitary)
from fsl.compiler import FSLPlan, compile_nonperiodic, compile_spec, prepare_spec
from fsl.errors import CapacityExceeded, DimensionMismatch, NonUnitNorm, NotADistribution
from fsl.frqi import GrayImage, compile_frqi
from fsl.simulator import (ShotHistogram, Statevector, classical_fidelity,
                           dump_statevector, fidelity, histogram_to_csv,
                           load_statevector, reduced_density_matrix,
                           reduced_population, run, sample)
from fsl.synth import build_inverse_qft
from test_cli_bytes import RECORDED_NUMPY


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


def _sparse_circuit(rng, n, num_gates):
    """A random circuit, opaque gates included, on a random subset of at least two
    of the ``n`` wires, with a random output permutation other than the identity."""
    wires = tuple(int(w) for w in rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
    sub = random_circuit(rng, len(wires), num_gates, include_opaque=True)
    perm = tuple(int(v) for v in rng.permutation(n))
    if perm == tuple(range(n)):
        perm = perm[::-1]
    return Circuit(n, tuple(g.remap(wires) for g in sub.gates), perm)


def _loader_call_sizes(monkeypatch, c, loader_wires):
    """Amplitude counts that ``_apply_gate`` or the fused ``_h_phase`` receive for
    the loader gates of ``c`` (the leading gates that act on ``loader_wires``
    only), one count for every gate a call covers."""
    sizes = []
    apply_gate, h_phase = simulator._apply_gate, simulator._h_phase

    def spy(psi, g, qs, k):
        sizes.append(psi.size)
        apply_gate(psi, g, qs, k)

    def fused_spy(psi, qs, angles, k):
        sizes.extend([psi.size] * len(qs))  # the H and each of its CPHASE gates
        h_phase(psi, qs, angles, k)

    monkeypatch.setattr(simulator, "_apply_gate", spy)
    monkeypatch.setattr(simulator, "_h_phase", fused_spy)
    run(c)
    count = next(i for i, g in enumerate(c.gates) if not set(g.qubits) <= set(loader_wires))
    assert count > 0 and len(sizes) == len(c.gates)
    assert sizes[-1] == 2**c.num_qubits
    return sizes[:count]


class TestLazyWires:
    """``run`` activates a wire at its first gate; that must not change any amplitude."""

    @pytest.mark.parametrize("seed", range(12))
    def test_sparse_wires_match_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        c = _sparse_circuit(rng, 3 + seed % 4, 12)
        want = dense_circuit_matrix(c)[:, 0]
        assert np.max(np.abs(run(c).amplitudes - want)) < 1e-12

    @pytest.mark.parametrize("seed", range(12))
    def test_sparse_wires_from_initial_state_match_dense_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 3 + seed % 4
        c = _sparse_circuit(rng, n, 12)
        start = rand_state(rng, n)
        want = dense_circuit_matrix(c) @ start
        assert np.max(np.abs(run(c, Statevector(n, start)).amplitudes - want)) < 1e-12

    @pytest.mark.parametrize("seed", range(40))
    def test_lazy_run_is_byte_identical_to_explicit_zero_start(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = 2 + seed % 7
        if seed % 2:
            c = _sparse_circuit(rng, n, int(rng.integers(1, 30)))
        else:
            c = random_circuit(rng, n, int(rng.integers(1, 30)), include_opaque=True,
                               random_perm=seed % 4 == 0)
        assert np.array_equal(run(c).amplitudes, run(c, Statevector.zero(n)).amplitudes)

    def test_fsl_loader_runs_on_m_plus_1_wires(self, monkeypatch):
        n, m = 16, 4
        spec = prepare_spec(funcs.sample(funcs.builtin("sinc"), n), m)
        c, _ = compile_spec(spec, FSLPlan(n=n, m=m))
        sizes = _loader_call_sizes(monkeypatch, c, range(n - m - 1, n))
        assert max(sizes) <= 2 ** (m + 1)

    def test_frqi_loader_runs_on_its_2m_plus_3_wires(self, monkeypatch):
        n, m = 6, 2
        img = GrayImage(2**n, np.random.default_rng(3).random((2**n, 2**n)))
        c, _ = compile_frqi(img, m)
        loader = [0, *range(n - m, n + 1), *range(2 * n - m, 2 * n + 1)]
        sizes = _loader_call_sizes(monkeypatch, c, loader)
        assert max(sizes) <= 2 ** (2 * (m + 1) + 1)


def _planted_run_circuit(rng, n, num_runs):
    """Random gates, opaque ones included, with ``num_runs`` planted "H(w) then
    CPHASE gates that touch w" runs: partners on either side of w, either gate
    order, sometimes repeated, and the circuit's wires activating in random order
    so that some partners are not yet active when their run starts."""
    gates = []
    for _ in range(num_runs):
        gates += random_circuit(rng, n, int(rng.integers(0, 4)), include_opaque=True).gates
        w = int(rng.integers(n))
        gates.append(h(w))
        for _ in range(int(rng.integers(0, 2 * n))):
            p = int(rng.choice([q for q in range(n) if q != w]))
            pair = (p, w) if rng.integers(2) else (w, p)
            gates.append(cphase(float(rng.uniform(-2 * math.pi, 2 * math.pi)), *pair))
    wires = tuple(int(v) for v in rng.permutation(n))
    perm = tuple(int(v) for v in rng.permutation(n)) if rng.integers(2) else None
    return Circuit(n, tuple(g.remap(wires) for g in gates), perm)


def _fft_on_register(amps, n, qubits):
    """``amps`` with the unitary DFT applied to the register on ``qubits``
    (``qubits[0]`` its most significant bit), the other wires untouched."""
    q = len(qubits)
    moved = np.moveaxis(amps.reshape([2] * n), qubits, range(q))
    out = np.fft.fft(moved.reshape(2**q, -1), axis=0, norm="ortho").reshape(moved.shape)
    return np.moveaxis(out, range(q), qubits).reshape(-1)


class TestFusedHPhase:
    """``run`` applies an H and the CPHASE gates after it that touch its wire as one step."""

    @pytest.mark.parametrize("q", range(1, 15))
    def test_inverse_qft_on_embedded_register_matches_fft(self, q):
        rng = np.random.default_rng(300 + q)
        n = q + 3
        qubits = [int(v) for v in rng.permutation(n)[:q]]  # non-contiguous, any order
        start = rand_state(rng, n)
        got = run(build_inverse_qft(q, num_qubits=n, qubits=qubits), Statevector(n, start))
        assert np.max(np.abs(got.amplitudes - _fft_on_register(start, n, qubits))) < 1e-12

    @pytest.mark.parametrize("q", range(1, 15))
    def test_inverse_qft_after_lazy_prefix_matches_fft(self, q):
        rng = np.random.default_rng(400 + q)
        n = q + 3
        qubits = [int(v) for v in rng.permutation(n)[:q]]
        touched = tuple(int(v) for v in rng.permutation(n)[:3])  # the rest start inactive
        sub = random_circuit(rng, 3, 20, include_opaque=True)
        prefix = Circuit(n, tuple(g.remap(touched) for g in sub.gates))
        iqft = build_inverse_qft(q, num_qubits=n, qubits=qubits)
        want = _fft_on_register(run(prefix).amplitudes, n, qubits)
        got = run(compose(prefix, iqft)).amplitudes
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("seed", range(21))
    def test_planted_runs_match_dense_oracle(self, seed):
        rng = np.random.default_rng(500 + seed)
        n = 2 + seed % 7
        c = _planted_run_circuit(rng, n, 4)
        want = dense_circuit_matrix(c)[:, 0]
        assert np.max(np.abs(run(c).amplitudes - want)) < 1e-12

    @pytest.mark.parametrize("seed", range(21))
    def test_planted_runs_from_initial_state_match_dense_oracle(self, seed):
        rng = np.random.default_rng(600 + seed)
        n = 2 + seed % 7
        c = _planted_run_circuit(rng, n, 4)
        start = rand_state(rng, n)
        want = dense_circuit_matrix(c) @ start
        assert np.max(np.abs(run(c, Statevector(n, start)).amplitudes - want)) < 1e-12

    @pytest.mark.parametrize("seed", range(48))
    def test_planted_runs_lazy_is_byte_identical_to_explicit_zero_start(self, seed):
        rng = np.random.default_rng(700 + seed)
        n = 2 + seed % 12
        c = _planted_run_circuit(rng, n, int(rng.integers(1, 6)))
        assert np.array_equal(run(c).amplitudes, run(c, Statevector.zero(n)).amplitudes)


@functools.cache
def _fsl_load(name: str) -> Circuit:
    """A periodic, mirror, 2-D or FRQI load wide enough that ``run`` rotates its bits."""
    if name == "piecewise-n16":
        spec = prepare_spec(funcs.sample(funcs.builtin("piecewise"), 16), 5)
        return compile_spec(spec, FSLPlan(n=16, m=5))[0]
    if name == "tanh-mirror-n15":
        return compile_nonperiodic(funcs.sample(funcs.builtin("tanh"), 15), 4, "disentangle")[0]
    if name == "sinc2d-n8":
        spec = prepare_spec(funcs.sample(funcs.builtin("sinc2d"), 8), 3)
        return compile_spec(spec, FSLPlan(n=8, m=3, dims=2))[0]
    pixels = ((np.arange(1024) * 37 + 11) % 256).reshape(32, 32) / 255
    return compile_frqi(GrayImage(32, pixels), 2)[0]


# SHA-256 of run(load).amplitudes.tobytes(), recorded before run rotated any bits.
STATE_DIGESTS = {
    "piecewise-n16": "ce0050f2b9e6cbf97249e8a760996d0d0c1cbee529bc6568af5c230a40a76039",
    "tanh-mirror-n15": "8ed1f0b27b5d30374bb32624f45571ee5aab2a056149a090b93f6429607976d3",
    "sinc2d-n8": "769bd73e233144369ea3f93efad911380dd5211b19382702176587d3d66c4c92",
    "frqi-n5": "47093cd1899eecc3a3260c5a842c6228c3419469dcd8a7e8a1d4aff0c7e82f04",
}


def _h_steps(c: Circuit, monkeypatch) -> list[tuple[int, int, bool]]:
    """(target bit, active bits, has CPHASE partners) of each H step ``run(c)`` takes."""
    steps, h_phase = [], simulator._h_phase

    def spy(psi, qs, angles, k):
        steps.append((k - 1 - qs[0], k, len(qs) > 1))
        h_phase(psi, qs, angles, k)

    monkeypatch.setattr(simulator, "_h_phase", spy)
    run(c)
    return steps


class TestRotatedBits:
    """Before a fused step (an H with CPHASE partners) on a low bit, ``run`` rotates the
    active bits; amplitudes keep every bit they had without it."""

    @pytest.mark.parametrize("name", sorted(STATE_DIGESTS))
    def test_every_fused_step_targets_a_high_bit(self, name, monkeypatch):
        c = _fsl_load(name)
        steps = [(bit, k) for bit, k, fused in _h_steps(c, monkeypatch) if fused]
        assert steps and all(k == c.num_qubits for _, k in steps)  # every wire is active
        assert all(bit >= k // 2 for bit, k in steps)

    def test_a_lone_h_on_a_low_bit_is_not_rotated(self, monkeypatch):
        c = Circuit(4, (h(0), h(1), h(2), h(3), h(0)))  # wire 0 joined first: bit 0 of 4
        assert _h_steps(c, monkeypatch)[-1] == (0, 4, False)

    @pytest.mark.skipif(np.__version__ != RECORDED_NUMPY,
                        reason=f"digests were recorded under numpy {RECORDED_NUMPY}")
    @pytest.mark.parametrize("name", sorted(STATE_DIGESTS))
    def test_final_state_matches_recorded_digest(self, name):
        got = hashlib.sha256(run(_fsl_load(name)).amplitudes.tobytes()).hexdigest()
        assert got == STATE_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(STATE_DIGESTS))
    def test_chained_at_the_iqft_is_byte_identical_to_one_run(self, name):
        c = _fsl_load(name)
        split = int(np.argmax(c.kinds == CODES[GateKind.H]))  # the first iQFT stage
        head = Circuit.join(c.num_qubits, [c.take(slice(0, split))])
        tail = c.take(slice(split, None))
        chained = run(tail, initial=run(head))
        assert chained.amplitudes.tobytes() == run(c).amplitudes.tobytes()

    @pytest.mark.parametrize("name", ["piecewise-n16", "sinc2d-n8", "tanh-mirror-n15"])
    def test_peak_memory_stays_near_two_state_buffers(self, name):
        c = _fsl_load(name)
        run(c)
        tracemalloc.start()
        try:
            run(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 16 * 2**c.num_qubits


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
        with pytest.raises(NotADistribution):
            classical_fidelity([np.nan, np.nan], [0.5, 0.5])


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

    @pytest.mark.parametrize("fill", [0.0, np.nan, np.inf])
    def test_unnormalizable_amplitudes_are_rejected(self, fill, tmp_path):
        np.full(8, fill, dtype="<c16").tofile(tmp_path / "state.c16")
        with pytest.raises(NonUnitNorm, match="cannot normalize"):
            load_statevector(tmp_path / "state.c16")
        with pytest.raises(NonUnitNorm, match="cannot normalize"):
            Statevector.from_amplitudes(np.full(8, fill))

    def test_nan_amplitudes_fail_the_norm_check(self):
        with pytest.raises(ValueError, match="not normalized"):
            Statevector(2, np.full(4, np.nan))

    @pytest.mark.parametrize("size", [0, 3, 15, 16 * 2**4 + 3, 16 * 2**4 - 1])
    def test_partial_amplitude_files_are_rejected(self, size, rng, tmp_path):
        path = tmp_path / "state.c16"
        path.write_bytes(rand_state(rng, 5).astype("<c16").tobytes()[:size])
        with pytest.raises(DimensionMismatch, match=f"holds {size} bytes"):
            load_statevector(path)

    def test_empty_amplitude_list_is_not_a_power_of_two(self):
        with pytest.raises(DimensionMismatch, match="amplitude count 0 is not a power of two"):
            Statevector.from_amplitudes([])

    def test_histogram_csv_layout(self):
        text = histogram_to_csv(ShotHistogram({3: 5, 1: 2}, 7))
        assert text == "index,count\n1,2\n3,5\n"
