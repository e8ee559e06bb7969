"""Statevector engine against an independent dense-matrix oracle."""
import functools
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (dense_circuit_matrix, dense_gate_matrix, rand_state, rand_unitary,
                      random_circuit, zero_state)
from fsl import funcs, simulator
from fsl.circuit import (CODES, Circuit, Gate, GateKind, cnot, compose, cphase, h,
                         phase, ry, rz, swap, x)
from fsl.compiler import FSLPlan, compile_nonperiodic, compile_spec, prepare_spec
from fsl.errors import CapacityExceeded, DimensionMismatch, NonUnitNorm, NotADistribution
from fsl.frqi import GrayImage, compile_frqi
from fsl.simulator import (ShotHistogram, Statevector, classical_fidelity,
                           dump_statevector, fidelity, histogram_to_csv,
                           load_statevector, reduced_population, run, sample)
from fsl.synth import build_inverse_qft, synth_unitary
from test_cli_bytes import RECORDED_NUMPY, print_literal
from test_fourier import UNNORMED_FILLS


# id -> (seed, the circuit drawn first from that seed's generator): 10 random
# gates, 25 or 30 random gates and a permutation, and an inverse QFT
_ORACLE_CASES = {
    **{str(seed): (seed, lambda rng, perm=seed % 2 == 0: random_circuit(
        rng, 4, 10, random_perm=perm)) for seed in range(6)},
    **{f"{num_gates}-gates-{seed}": (seed, lambda rng, k=num_gates: random_circuit(
        rng, 4, k, random_perm=True))
       for num_gates, seeds in [(25, range(3)), (30, range(5))] for seed in seeds},
    "inverse-qft-5": (0, lambda rng: build_inverse_qft(5)),
}


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

    @pytest.mark.parametrize("case", list(_ORACLE_CASES))
    def test_matches_dense_matrix_oracle(self, case):
        seed, build = _ORACLE_CASES[case]
        rng = np.random.default_rng(seed)
        c = build(rng)
        start = rand_state(rng, c.num_qubits)
        want = dense_circuit_matrix(c) @ start
        got = run(c, Statevector(c.num_qubits, start)).amplitudes
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

    @pytest.mark.parametrize("wires", [(3,), (4, 1), (2, 0, 4), (1, 4, 0, 3)])
    def test_synthesised_unitary_matches_its_matrix(self, wires, rng):
        # a dense unitary on non-adjacent, unordered wires, as its QSD gates,
        # acts on a random start like the matrix applied to those axes
        n, q = 5, len(wires)
        u = rand_unitary(rng, 2**q)
        start = rand_state(rng, n)
        psi = np.moveaxis(start.reshape((2,) * n), wires, range(q)).reshape(2**q, -1)
        want = np.moveaxis((u @ psi).reshape((2,) * n), range(q), wires).reshape(-1)
        got = run(synth_unitary(u, wires, num_qubits=n), Statevector(n, start)).amplitudes
        assert np.max(np.abs(got - want)) < 1e-10

    def test_norm_drift_raises_value_error(self, rng, monkeypatch):
        # each H step scales by a 1/sqrt(2) grown by 4e-11: run's result must fail the norm check
        monkeypatch.setattr(simulator, "_SQRT_HALF", (1 + 4e-11) / math.sqrt(2))
        with pytest.raises(ValueError, match="not normalized"):
            run(Circuit(3, (h(1),) * 10), Statevector(3, rand_state(rng, 3)))

    def test_norm_preserved(self, rng):
        c = random_circuit(rng, 5, 200)
        out = run(c, Statevector(5, rand_state(rng, 5)))
        assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            run(Circuit(2), zero_state(3))

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


def _sparse_circuit(rng, n, num_gates, gates=()):
    """A random circuit, or ``gates`` (on wires 0, 1, ...),
    on a random subset of at least two of the ``n`` wires, with a random output
    permutation other than the identity."""
    least = max([2] + [q + 1 for g in gates for q in g.qubits])
    wires = tuple(int(w) for w in rng.choice(n, size=int(rng.integers(least, n + 1)),
                                             replace=False))
    gates = gates or random_circuit(rng, len(wires), num_gates).gates
    perm = tuple(int(v) for v in rng.permutation(n))
    if perm == tuple(range(n)):
        perm = perm[::-1]
    return Circuit(n, tuple(g.remap(wires) for g in gates), perm)


# Each copies wire 0, after an RY puts it in superposition, onto fresh wires with
# CNOTs, then uses a copy or its source in one role that ``run`` treats apart.
_COPY_CASES = {name: (ry(0.7, 0),) + gates for name, gates in {
    "copy-of-copy-chain": (cnot(0, 1), cnot(1, 2), cnot(2, 3), h(3), cphase(0.3, 2, 1)),
    "cnot-from-fresh-control": (cnot(1, 2), ry(0.4, 2), cnot(1, 3), h(1), cnot(0, 1)),
    "rz-and-phase-on-copy": (cnot(0, 1), rz(0.8, 1), phase(-1.1, 1), h(1)),
    "cphase-copy-source": (cnot(0, 1), cnot(0, 2), cphase(0.9, 1, 0), cphase(-0.4, 0, 2),
                           cphase(0.5, 1, 2), h(2)),
    "fused-h-partners-two-copies-and-source": (cnot(0, 1), cnot(0, 2), h(3), cphase(0.6, 1, 3),
                                               cphase(-0.7, 3, 2), cphase(1.3, 0, 3), h(1)),
    "ry-on-source": (cnot(0, 1), cnot(0, 2), ry(1.2, 0), cphase(0.2, 1, 2)),
    "x-on-source": (cnot(0, 1), cnot(1, 2), x(0), h(2)),
    "swap-on-source": (cnot(0, 1), cnot(0, 2), swap(0, 3), h(1), cnot(3, 2)),
    "unitary-on-source": (cnot(0, 1), cnot(0, 2), *synth_unitary(
        rand_unitary(np.random.default_rng(7), 4), (3, 0), num_qubits=4).gates, h(2)),
    "copies-pending-at-end": (cnot(0, 1), cnot(1, 2), cnot(0, 3), rz(0.5, 2)),
}.items()}


def _lazy_case(case, base):
    """The rng (seeded ``base`` + ``case``) and gates of a ``TestLazyWires`` case:
    random for a seed, ``_COPY_CASES[case]`` for a name."""
    if case in _COPY_CASES:
        seed = base + 1000 + list(_COPY_CASES).index(case)
        return np.random.default_rng(seed), _COPY_CASES[case]
    return np.random.default_rng(base + case), ()


def _kernel_calls(monkeypatch, c) -> list[tuple[bool, int, tuple[int, ...], int]]:
    """(is ``_h_phase``, amplitudes received, axes, k) of each kernel call ``run(c)`` makes."""
    calls = []
    apply_gate, h_phase = simulator._apply_gate, simulator._h_phase

    def spy(psi, g, qs, k):
        calls.append((False, psi.size, qs, k))
        apply_gate(psi, g, qs, k)

    def fused_spy(psi, qs, angles, k):
        calls.append((True, psi.size, qs, k))
        h_phase(psi, qs, angles, k)

    monkeypatch.setattr(simulator, "_apply_gate", spy)
    monkeypatch.setattr(simulator, "_h_phase", fused_spy)
    run(c)
    return calls


def _loader_call_sizes(monkeypatch, c, loader_wires, fanout):
    """Amplitude counts that ``_apply_gate`` or the fused ``_h_phase`` receive for
    the loader gates of ``c`` (the leading gates that act on ``loader_wires``
    only), one count for every gate a call covers.  Each of the ``fanout`` CNOTs
    onto a fresh wire only records a copy, so no kernel call covers it."""
    calls = _kernel_calls(monkeypatch, c)  # a fused call covers its H and each CPHASE
    sizes = [size for fused, size, qs, _ in calls for _ in range(len(qs) if fused else 1)]
    count = next(i for i, g in enumerate(c.gates) if not set(g.qubits) <= set(loader_wires))
    assert count > 0 and len(sizes) == len(c.gates) - fanout
    assert sizes[-1] == 2**c.num_qubits
    return sizes[:count]


SLAB_N = 17  # 2^16-amplitude halves: several slabs each


class TestSlabSwap:
    """X, CNOT and SWAP exchange two views of the state slab by slab, and must
    move exactly the amplitudes a plain exchange moves."""

    @pytest.mark.parametrize("n,qubits,bits", [
        *[(SLAB_N, (q,), ((0,), (1,))) for q in (0, 1, 8, 15, 16)],
        *[(SLAB_N, (a, b), ((1, 0), (1, 1)))
          for a, b in ((0, 1), (0, 16), (16, 0), (7, 9), (15, 16))],
        (SLAB_N, (3, 12), ((0, 1), (1, 0))),
        *[(3, (q,), ((0,), (1,))) for q in (0, 2)],  # below one slab
        (3, (0, 2), ((1, 0), (1, 1))),
    ])
    def test_matches_a_plain_exchange(self, n, qubits, bits, rng):
        psi = rand_state(rng, n)
        want = psi.copy()
        a, b = (simulator._at(want, qubits, bit) for bit in bits)
        a[...], b[...] = b.copy(), a.copy()
        simulator._swap(*(simulator._at(psi, qubits, bit) for bit in bits))
        assert np.array_equal(psi, want)

    def test_slabs_tile_the_view(self):
        psi = np.arange(2**SLAB_N, dtype=complex)
        view = simulator._at(psi, (4, 11), (1, 0))
        slabs = list(simulator._slabs(view))
        assert max(s.size for s in slabs) <= simulator._SLAB < view.size
        assert np.array_equal(np.sort(np.concatenate([s.reshape(-1) for s in slabs]).real),
                              np.sort(view.reshape(-1).real))


class TestLazyWires:
    """``run`` activates a wire at the first gate that mixes it, and a CNOT onto a fresh
    wire only records a copy; that must not change any amplitude."""

    @pytest.mark.parametrize("case", [*range(12), *_COPY_CASES])
    def test_sparse_wires_match_dense_oracle(self, case):
        rng, gates = _lazy_case(case, 0)
        c = _sparse_circuit(rng, 6 if gates else 3 + case % 4, 12, gates)
        want = dense_circuit_matrix(c)[:, 0]
        assert np.max(np.abs(run(c).amplitudes - want)) < 1e-12

    @pytest.mark.parametrize("case", [*range(12), *_COPY_CASES])
    def test_sparse_wires_from_initial_state_match_dense_oracle(self, case):
        rng, gates = _lazy_case(case, 100)
        n = 6 if gates else 3 + case % 4
        c = _sparse_circuit(rng, n, 12, gates)
        start = rand_state(rng, n)
        want = dense_circuit_matrix(c) @ start
        assert np.max(np.abs(run(c, Statevector(n, start)).amplitudes - want)) < 1e-12

    @pytest.mark.parametrize("case", [*range(40), *_COPY_CASES])
    def test_lazy_run_is_byte_identical_to_explicit_zero_start(self, case):
        rng, gates = _lazy_case(case, 200)
        n = 7 if gates else 2 + case % 7
        if gates or case % 2:
            c = _sparse_circuit(rng, n, int(rng.integers(1, 30)), gates)
        else:
            c = random_circuit(rng, n, int(rng.integers(1, 30)), random_perm=case % 4 == 0)
        assert np.array_equal(run(c).amplitudes, run(c, zero_state(n)).amplitudes)

    def test_fsl_loader_runs_on_m_plus_1_wires(self, monkeypatch):
        n, m = 16, 4
        spec = prepare_spec(funcs.sample(funcs.builtin("sinc"), n), m)
        c, _ = compile_spec(spec, FSLPlan(n=n, m=m))
        sizes = _loader_call_sizes(monkeypatch, c, range(n - m - 1, n), n - m - 1)
        assert max(sizes) <= 2 ** (m + 1)

    def test_frqi_loader_runs_on_its_2m_plus_3_wires(self, monkeypatch):
        n, m = 6, 2
        c = _fsl_load("frqi-n6")
        loader = [0, *range(n - m, n + 1), *range(2 * n - m, 2 * n + 1)]
        sizes = _loader_call_sizes(monkeypatch, c, loader, 2 * (n - m - 1))
        assert max(sizes) <= 2 ** (2 * (m + 1) + 1)

    @pytest.mark.parametrize("name, dims, n, total", [("piecewise-n16-m4", 1, 16, 393472),
                                                      ("sinc2d-n8", 2, 8, 339456),
                                                      ("frqi-n6", 2, 6, 34560)])
    def test_fused_steps_receive_a_pinned_amplitude_total(self, name, dims, n, total,
                                                          monkeypatch):
        """The iQFT stages on fan-out copies run on growing prefixes, so the fused steps
        see at most half of D (n - 1) 2^N, every fused step at full width."""
        c = _fsl_load(name)
        calls = _kernel_calls(monkeypatch, c)
        got = sum(size for fused, size, qs, _ in calls if fused and len(qs) > 1)
        assert got == total
        assert 2 * got <= dims * (n - 1) * 2**c.num_qubits


def _planted_run_circuit(rng, n, num_runs, fanout=False):
    """Random gates with ``num_runs`` planted "H(w) then
    CPHASE gates that touch w" runs: partners on either side of w, either gate
    order, sometimes repeated, and the circuit's wires activating in random order
    so that some partners are not yet active when their run starts.  A ``fanout``
    first copies one wire, put in superposition, onto all others with CNOTs, each
    from a random wire that already holds it, so that partners may be copies."""
    gates = []
    if fanout:
        gates = [ry(float(rng.uniform(0.3, 2.8)), 0)]
        gates += [cnot(int(rng.integers(t)), t) for t in range(1, n)]
    for _ in range(num_runs):
        gates += random_circuit(rng, n, int(rng.integers(0, 4))).gates
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
        sub = random_circuit(rng, 3, 20)
        prefix = Circuit(n, tuple(g.remap(touched) for g in sub.gates))
        iqft = build_inverse_qft(q, num_qubits=n, qubits=qubits)
        want = _fft_on_register(run(prefix).amplitudes, n, qubits)
        got = run(compose(prefix, iqft)).amplitudes
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("seed", range(28))  # 21 and up plant a fan-out
    def test_planted_runs_match_dense_oracle(self, seed):
        rng = np.random.default_rng(500 + seed)
        n = 2 + seed % 7
        c = _planted_run_circuit(rng, n, 4, fanout=seed >= 21)
        want = dense_circuit_matrix(c)[:, 0]
        assert np.max(np.abs(run(c).amplitudes - want)) < 1e-12

    @pytest.mark.parametrize("seed", range(28))  # 21 and up plant a fan-out
    def test_planted_runs_from_initial_state_match_dense_oracle(self, seed):
        rng = np.random.default_rng(600 + seed)
        n = 2 + seed % 7
        c = _planted_run_circuit(rng, n, 4, fanout=seed >= 21)
        start = rand_state(rng, n)
        want = dense_circuit_matrix(c) @ start
        assert np.max(np.abs(run(c, Statevector(n, start)).amplitudes - want)) < 1e-12

    @pytest.mark.parametrize("seed", range(64))  # 48 and up plant a fan-out
    def test_planted_runs_lazy_is_byte_identical_to_explicit_zero_start(self, seed):
        rng = np.random.default_rng(700 + seed)
        n = 2 + seed % 12
        c = _planted_run_circuit(rng, n, int(rng.integers(1, 6)), fanout=seed >= 48)
        assert np.array_equal(run(c).amplitudes, run(c, zero_state(n)).amplitudes)


@functools.cache
def _fsl_load(name: str) -> Circuit:
    """A periodic, mirror, 2-D or FRQI load wide enough that ``run`` rotates its bits."""
    if name.startswith("piecewise-n16"):
        m = 4 if name.endswith("-m4") else 5
        spec = prepare_spec(funcs.sample(funcs.builtin("piecewise"), 16), m)
        return compile_spec(spec, FSLPlan(n=16, m=m))[0]
    if name == "tanh-mirror-n15":
        return compile_nonperiodic(funcs.sample(funcs.builtin("tanh"), 15), 4, "disentangle")[0]
    if name == "sinc2d-n8":
        spec = prepare_spec(funcs.sample(funcs.builtin("sinc2d"), 8), 3)
        return compile_spec(spec, FSLPlan(n=8, m=3, dims=2))[0]
    if name == "frqi-n6":
        return compile_frqi(GrayImage(64, np.random.default_rng(3).random((64, 64))), 2)[0]
    pixels = ((np.arange(1024) * 37 + 11) % 256).reshape(32, 32) / 255
    return compile_frqi(GrayImage(32, pixels), 2)[0]


# SHA-256 of run(load).amplitudes.tobytes(); the simulator from before run rotated
# any bits gives the same bytes for these circuits.
STATE_DIGESTS = {
    "frqi-n5": "186c47982c252b84a44c7f59f674d5d23897a50d4df9fd71045b399c71abc5c2",
    "piecewise-n16": "ae5e4fc7b0ad74e85937af9089fc7f14d0c7c8ac671e5f878b2b3b0a3e60e70e",
    "sinc2d-n8": "af21577148dafe681d09fc1ce1c026b4d91a80c92c30bb9419964ea6b45789a0",
    "tanh-mirror-n15": "2472a2308d0c151ebafcf9381d855e4bbcbca6e3fbc54802b282f6539669bf60",
}


def _state_digest(name: str) -> str:
    return hashlib.sha256(run(_fsl_load(name)).amplitudes.tobytes()).hexdigest()


# (lead wires, registers, register width, m) of each load in STATE_DIGESTS
_LOAD_SHAPES = {"piecewise-n16": (0, 1, 16, 5), "tanh-mirror-n15": (0, 1, 16, 4),
                "sinc2d-n8": (0, 2, 8, 3), "frqi-n5": (1, 2, 5, 2)}


def _h_steps(c: Circuit, monkeypatch) -> list[tuple[int, int, bool]]:
    """(target bit, prefix bits, has CPHASE partners) of each H step ``run(c)`` takes."""
    return [(k - 1 - qs[0], k, len(qs) > 1)
            for fused, _, qs, k in _kernel_calls(monkeypatch, c) if fused]


class TestRotatedBits:
    """Before a fused step (an H with CPHASE partners) on a low bit, ``run`` rotates the
    active bits; amplitudes keep every bit they had without it."""

    @pytest.mark.parametrize("name", sorted(STATE_DIGESTS))
    def test_every_fused_step_targets_a_high_bit(self, name, monkeypatch):
        c, (lead, dims, n, m) = _fsl_load(name), _LOAD_SHAPES[name]
        steps = [(bit, k) for bit, k, fused in _h_steps(c, monkeypatch) if fused]
        active = lead + dims * (m + 1)  # the loader's wires
        for d in range(dims):  # each register's n - 1 fused steps: its n - m - 1 copies first
            ks = [k for _, k in steps[d * (n - 1):(d + 1) * (n - 1)]]
            # a copy stage joins its copy, so each runs one bit wider than the one before,
            # above the floor of two bits over its m + 2 axes (the copy, the sign, m data)
            assert ks[:n - m - 1] == [max(active + j + 1, m + 4) for j in range(n - m - 1)]
            active += n - m - 1
            assert ks[n - m - 1:] == [active] * m  # the data stages: every wire joined so far
        assert len(steps) == dims * (n - 1) and active == c.num_qubits
        assert all(bit >= k // 2 for bit, k in steps)

    def test_a_lone_h_on_a_low_bit_is_not_rotated(self, monkeypatch):
        c = Circuit(4, (h(0), h(1), h(2), h(3), h(0)))  # wire 0 joined first: bit 0 of 4
        assert _h_steps(c, monkeypatch)[-1] == (0, 4, False)

    @pytest.mark.skipif(np.__version__ != RECORDED_NUMPY,
                        reason=f"digests were recorded under numpy {RECORDED_NUMPY}")
    @pytest.mark.parametrize("name", sorted(STATE_DIGESTS))
    def test_final_state_matches_recorded_digest(self, name):
        assert _state_digest(name) == STATE_DIGESTS[name]

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

    def test_run_restores_numpy_buffer_size(self):
        # run caps numpy's operand buffers while it steps, and only then
        before = np.getbufsize()
        run(_fsl_load("sinc2d-n8"))
        assert np.getbufsize() == before


def _cnot_run_circuit(rng, n, control, targets):
    """Random gates on every wire, then CNOTs from ``control`` onto ``targets`` in
    order, then random gates again."""
    head, tail = (random_circuit(rng, n, 12).gates for _ in range(2))
    return Circuit(n, head + tuple(cnot(control, t) for t in targets) + tail)


def _flip_calls(monkeypatch, c, initial=None) -> list[tuple[int, ...]]:
    """The axes of each ``_flip`` call ``run(c, initial)`` makes."""
    calls, flip = [], simulator._flip
    monkeypatch.setattr(simulator, "_flip",
                        lambda psi, qs, k: calls.append(qs) or flip(psi, qs, k))
    run(c, initial)
    return calls


class TestFusedCnotRuns:
    """A run of CNOTs from one active control onto distinct active targets is one
    flip of the control's 1-half over the target axes, and moves every amplitude
    where the CNOTs one by one move it."""

    @pytest.mark.parametrize("seed", range(12))
    def test_run_matches_dense_oracle_and_one_cnot_at_a_time(self, seed, monkeypatch):
        rng = np.random.default_rng(900 + seed)
        n = 3 + seed % 6
        control, *targets = (int(v) for v in rng.permutation(n)[:int(rng.integers(3, n + 1))])
        c = _cnot_run_circuit(rng, n, control, targets)
        start = rand_state(rng, n)
        got = run(c, Statevector(n, start)).amplitudes
        assert np.max(np.abs(got - dense_circuit_matrix(c) @ start)) < 1e-12
        state = Statevector(n, start)  # each CNOT alone: no run to fuse
        for g in c.gates:
            state = run(Circuit(n, (g,)), state)
        assert got.tobytes() == state.amplitudes.tobytes()
        flips = _flip_calls(monkeypatch, c, Statevector(n, start))  # random gates may add runs
        assert len(targets) + 1 in map(len, flips)

    def test_mirror_tail_is_one_flip_over_every_data_wire(self, monkeypatch):
        c = _fsl_load("tanh-mirror-n15")
        tail = [g for g in c.gates[-c.num_qubits:] if g.kind is GateKind.CNOT]
        assert len(tail) == c.num_qubits - 1
        [qs] = _flip_calls(monkeypatch, c)
        assert len(qs) == c.num_qubits

    @pytest.mark.parametrize("gates, widths", [
        ((cnot(0, 1), cnot(0, 2), cnot(0, 3)), [4]),
        ((cnot(0, 1), cnot(0, 1), cnot(0, 2)), [3]),  # a repeated target ends a run
        ((cnot(0, 1), cnot(2, 3), cnot(0, 2)), []),  # another control ends a run
        ((cnot(0, 1), cnot(0, 4), cnot(0, 2)), []),  # a fresh target is a copy
        ((cnot(0, 4), cnot(0, 1), cnot(0, 2)), [3]),
        ((cnot(0, 1), cnot(0, 2), cnot(1, 3), cnot(1, 2)), [3, 3]),
    ])
    def test_runs_split_where_a_gate_leaves_them(self, gates, widths, monkeypatch):
        prep = (h(0), h(1), h(2), h(3))  # wire 4 stays fresh
        c = Circuit(5, prep + gates)
        assert [len(qs) for qs in _flip_calls(monkeypatch, c)] == widths
        assert np.max(np.abs(run(c).amplitudes - dense_circuit_matrix(c)[:, 0])) < 1e-12

    def test_target_with_pending_copies_materialises_them_first(self):
        gates = (ry(0.7, 0), h(1), ry(0.4, 2), cnot(2, 3), cnot(0, 1), cnot(0, 2), h(3),
                 cphase(0.3, 3, 1))
        c = Circuit(4, gates)
        assert np.max(np.abs(run(c).amplitudes - dense_circuit_matrix(c)[:, 0])) < 1e-12
        assert np.array_equal(run(c).amplitudes, run(c, zero_state(4)).amplitudes)


class TestStatevectorValidation:
    @pytest.mark.parametrize("shape", [(4,), (16,), (2, 4)])
    def test_amplitudes_of_another_shape_rejected(self, shape):
        with pytest.raises(DimensionMismatch, match="expected 8 amplitudes"):
            Statevector(3, np.full(shape, 1 / math.sqrt(np.prod(shape))))

    @pytest.mark.parametrize("fill", UNNORMED_FILLS)
    def test_infinite_or_overflowing_amplitudes_fail_the_norm_check(self, fill):
        with pytest.raises(ValueError, match="not normalized"):
            Statevector(2, np.full(4, fill))

    @pytest.mark.parametrize("off, ok", [(2e-10, False), (-2e-10, False), (5e-11, True)])
    def test_squared_norm_is_checked_to_one_in_1e10(self, off, ok):
        amps = np.full(2**10, 2**-5 * math.sqrt(1 + off), dtype=complex)
        if ok:
            Statevector(10, amps)
        else:
            with pytest.raises(ValueError, match="not normalized"):
                Statevector(10, amps)

    def test_a_capacity_edge_state_passes_the_norm_check(self):
        g = funcs.sample(funcs.builtin("piecewise"), 22)
        assert Statevector(22, g.samples).amplitudes.dtype == np.float64

    def test_real_amplitudes_are_adopted_without_a_copy(self):
        g = funcs.sample(funcs.builtin("sinc2d"), 10)
        tracemalloc.start()
        try:
            s = Statevector(20, g.samples.reshape(-1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert s.amplitudes.dtype == np.float64

    def test_run_hands_over_its_own_buffer(self):
        tracemalloc.start()
        try:
            s = run(Circuit(16, ()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * s.amplitudes.nbytes  # a copy would double it


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
            fidelity(zero_state(2), zero_state(3))


class TestClassicalFidelity:
    def test_identical_distributions(self):
        p = np.array([0.25, 0.75])
        assert classical_fidelity(p, p) == pytest.approx(1.0)

    def test_disjoint_supports(self):
        assert classical_fidelity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_distributions_of_another_shape_rejected(self):
        with pytest.raises(DimensionMismatch):
            classical_fidelity([0.5, 0.5], [0.25, 0.25, 0.5])

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
            sample(zero_state(1), 0, seed=0)

    def test_histogram_requires_consistent_total(self):
        with pytest.raises(ValueError):
            ShotHistogram({0: 3}, shots=4)

    def test_memory_does_not_grow_with_the_shot_count(self, rng):
        # the counts are drawn directly, so 10^12 shots need no per-shot buffer
        s = Statevector(16, rand_state(rng, 16))
        tracemalloc.start()
        try:
            hist = sample(s, 10**12, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hist.shots == 10**12 and sum(hist.counts.values()) == 10**12
        assert peak < 64 * 2**16 * 8
        p = np.abs(s.amplitudes) ** 2
        assert 0.5 * np.sum(np.abs(hist.probabilities(2**16) - p)) < 1e-4


class TestActionTable:
    def test_every_kind_has_exactly_one_action(self):
        # swapped, phased, or one of the two kinds ``_apply_gate`` and the
        # fused iQFT step handle on their own
        actions = [*simulator._SWAPS, *simulator._PHASES, GateKind.H, GateKind.RY]
        assert sorted(actions) == sorted(GateKind)

    def test_diagonal_roles_are_the_phased_kinds(self):
        assert simulator._DIAGONAL == {CODES[kind] for kind in simulator._PHASES}


class TestReducedStates:
    def test_population_of_product_state(self):
        s = run(Circuit(2, (h(1),)))  # |0> (x) |+>
        assert reduced_population(s, 0, 0) == pytest.approx(1.0)
        assert reduced_population(s, 1, 1) == pytest.approx(0.5)


class TestOnDiskFormats:
    def test_statevector_binary_round_trip(self, rng, tmp_path):
        s = Statevector(5, rand_state(rng, 5))
        path = tmp_path / "state.c16"
        dump_statevector(s, path)
        back = load_statevector(path, 5)
        assert back.num_qubits == 5
        assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-15

    @pytest.mark.parametrize("fill", [0.0, np.nan, np.inf])
    def test_unnormalizable_amplitudes_are_rejected(self, fill, tmp_path):
        np.full(8, fill, dtype="<c16").tofile(tmp_path / "state.c16")
        with pytest.raises(NonUnitNorm, match="cannot normalize"):
            load_statevector(tmp_path / "state.c16", 3)

    def test_nan_amplitudes_fail_the_norm_check(self):
        with pytest.raises(ValueError, match="not normalized"):
            Statevector(2, np.full(4, np.nan))

    @pytest.mark.parametrize("size", [0, 3, 15, 16 * 2**4 + 3, 16 * 2**4 - 1])
    def test_partial_amplitude_files_are_rejected(self, size, rng, tmp_path):
        path = tmp_path / "state.c16"
        path.write_bytes(rand_state(rng, 5).astype("<c16").tobytes()[:size])
        with pytest.raises(DimensionMismatch, match=f"holds {size} bytes"):
            load_statevector(path, 4)

    def test_histogram_csv_layout(self):
        text = histogram_to_csv(ShotHistogram({3: 5, 1: 2}, 7))
        assert text == "index,count\n1,2\n3,5\n"


if __name__ == "__main__":
    print_literal("STATE_DIGESTS", {name: _state_digest(name) for name in STATE_DIGESTS})
