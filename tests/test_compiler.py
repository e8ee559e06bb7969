"""End-to-end compilation against the direct-evaluation target oracle."""
import hashlib
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import gate_key, reduced_density_matrix, reference_assembly, reference_fanout_pairs
from fsl import fourier, funcs
from fsl.circuit import Circuit, GateKind, cnot, depth, gate_counts, h, phase
from fsl.compiler import (CompileReport, FSLPlan, Loader, NonperiodicVariant, _fanout_pairs,
                          compile_nonperiodic, compile_spec, prepare_spec, target_state)
from fsl.errors import CapacityExceeded, DimensionMismatch
from fsl.fourier import (GridFunction, dft_coefficients, exact_infidelity,
                         lanczos_filter, mirror_extend, truncate)
from fsl.frqi import GrayImage, compile_frqi, phase_spectra
from fsl.simulator import Statevector, fidelity, reduced_population, run
from test_cli_bytes import RECORDED_NUMPY, print_literal


def random_grid(rng, n, dims=1):
    s = rng.standard_normal((2**n,) * dims) + 1j * rng.standard_normal((2**n,) * dims)
    return GridFunction.from_samples(s)


def spec_with_single_mode(n, m, *k):
    full = np.zeros((2**n,) * len(k), dtype=complex)
    full[k] = 1.0
    return truncate(full, m)


class TestTargetState:
    def test_dc_only_is_uniform(self):
        spec = spec_with_single_mode(4, 2, 0)
        t = target_state(spec, 4)
        assert np.allclose(t.amplitudes, np.full(16, 0.25))

    def test_matches_direct_series_evaluation(self, rng):
        n, m = 5, 3
        spec = truncate(dft_coefficients(random_grid(rng, n)), m)
        got = target_state(spec, n).amplitudes
        # direct loop over the window, kernel evaluated term by term
        want = np.zeros(2**n, dtype=complex)
        for ell in range(2**n):
            for k in range(-7, 8):
                want[ell] += spec.coeffs[k + 7] * np.exp(-2j * np.pi * k * ell / 2**n)
        want /= np.linalg.norm(want)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_2d_plane_wave_in_one_axis(self):
        spec = spec_with_single_mode(3, 1, 1, 0)
        t = target_state(spec, 3).amplitudes.reshape(8, 8)
        k = np.arange(8)
        kernel = np.exp(-2j * np.pi * k / 8) / math.sqrt(8)
        want = np.outer(kernel, np.full(8, 1 / math.sqrt(8)))
        assert np.max(np.abs(t - want)) < 1e-12

    def test_higher_resolution_than_source(self, rng):
        spec = truncate(dft_coefficients(random_grid(rng, 5)), 2)
        t = target_state(spec, 9)  # interpolate the same series on a finer grid
        assert t.num_qubits == 9

    @pytest.mark.parametrize("dims, n, m", [(1, 7, 4), (2, 4, 2), (3, 3, 1)])
    @pytest.mark.parametrize("filter_a", [None, 0.5])
    def test_real_grid_takes_irfftn_and_equals_reconstruct(self, rng, monkeypatch,
                                                           dims, n, m, filter_a):
        spec = prepare_spec(GridFunction.from_samples(rng.standard_normal((2**n,) * dims)),
                            m, filter_a)
        want = fourier.reconstruct(spec.embed(2**n)).reshape(-1)
        monkeypatch.setattr(fourier, "reconstruct", lambda _: pytest.fail("reconstruct ran"))
        got = target_state(spec, n).amplitudes
        assert np.max(np.abs(got - want / np.linalg.norm(want))) < 1e-15

    def test_complex_window_is_reconstructed_as_before(self, rng):
        n = 6
        spec = truncate(dft_coefficients(random_grid(rng, n)), 3)
        want = fourier.reconstruct(spec.embed(2**n)).reshape(-1)
        assert np.array_equal(target_state(spec, n).amplitudes, want / np.linalg.norm(want))

    @pytest.mark.parametrize("n", [2, 1])
    def test_grid_too_coarse_for_the_window_is_rejected(self, n):
        spec = spec_with_single_mode(4, 2, 1)
        with pytest.raises(ValueError, match=f"need m < n, got m=2, n={n}"):
            target_state(spec, n)


class TestFSLPlan:
    @pytest.mark.parametrize("dims", [0, -1])
    def test_no_register_rejected(self, dims):
        with pytest.raises(ValueError, match="dims must be >= 1"):
            FSLPlan(n=4, m=1, dims=dims)


class TestCompile1d:
    def test_dc_spec_gives_plus_states(self):
        spec = spec_with_single_mode(6, 2, 0)
        circ, _ = compile_spec(spec, FSLPlan(n=6, m=2))
        out = run(circ)
        assert np.allclose(out.amplitudes, np.full(64, 1 / 8))

    def test_single_mode_kernel_amplitudes(self):
        spec = spec_with_single_mode(3, 1, 1)
        circ, _ = compile_spec(spec, FSLPlan(n=3, m=1))
        out = run(circ).amplitudes
        k = np.arange(8)
        assert np.max(np.abs(out - np.exp(-2j * np.pi * k / 8) / math.sqrt(8))) < 1e-12

    @pytest.mark.parametrize("loader", [Loader.UCR, Loader.SCHMIDT])
    def test_random_specs_hit_target(self, loader, rng):
        for _ in range(10):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(m + 1, 10))
            spec = truncate(dft_coefficients(random_grid(rng, n)), m)
            circ, report = compile_spec(spec, FSLPlan(n=n, m=m, loader=loader))
            assert fidelity(run(circ), target_state(spec, n)) >= 1 - 1e-9
            assert not circ.has_opaque() and report.gate_counts.opaque == 0

    def test_report_infidelity_matches_fourier_module(self, rng):
        g = random_grid(rng, 8)
        full = dft_coefficients(g)
        spec = truncate(full, 3)
        _, report = compile_spec(spec, FSLPlan(n=8, m=3), source=g)
        assert report.exact_infidelity == pytest.approx(exact_infidelity(full, 3), abs=1e-12)
        assert report.analytic_bound is not None
        assert report.exact_infidelity <= report.analytic_bound

    def test_fanout_cnot_count_and_tree_depth(self, rng):
        n, m = 9, 2
        spec = truncate(dft_coefficients(random_grid(rng, n)), m)
        circ, _ = compile_spec(spec, FSLPlan(n=n, m=m))
        fanout = [g for g in circ.gates
                  if g.kind is GateKind.CNOT and g.qubits[1] <= n - m - 2]
        assert len(fanout) == n - m - 1
        from fsl.circuit import Circuit
        assert depth(Circuit(n, tuple(fanout))) == math.ceil(math.log2(n - m))

    @pytest.mark.parametrize("copies", range(65))
    def test_closed_form_fanout_is_the_queue_built_tree(self, copies):
        wires = [100 + 3 * k for k in range(copies + 1)]  # any distinct wires, sign wire first
        pairs = _fanout_pairs(wires)
        assert pairs == reference_fanout_pairs(wires[0], wires[1:])
        fanout = Circuit(max(wires) + 1, tuple(cnot(*p) for p in pairs))
        assert depth(fanout) == math.ceil(math.log2(copies + 1))  # ceil(log2(n - m))

    def test_filtered_spec_compiles_to_filtered_target(self, rng):
        g = funcs.sample(funcs.builtin("piecewise"), 7)
        spec = lanczos_filter(truncate(dft_coefficients(g), 3), 1.0)
        circ, _ = compile_spec(spec, FSLPlan(n=7, m=3))
        assert fidelity(run(circ), target_state(spec, 7)) >= 1 - 1e-9

    def test_prepare_spec_pipeline(self, rng):
        g = random_grid(rng, 6)
        spec = prepare_spec(g, 3, filter_a=0.5)
        assert spec.m == 3 and spec.dims == 1

    def test_m_equals_n_minus_one_edge(self, rng):
        # loader spans the whole register; no fan-out wires remain
        spec = truncate(dft_coefficients(random_grid(rng, 4)), 3)
        circ, _ = compile_spec(spec, FSLPlan(n=4, m=3))
        assert fidelity(run(circ), target_state(spec, 4)) >= 1 - 1e-9

    def test_capacity_guard(self, rng):
        spec = truncate(dft_coefficients(random_grid(rng, 6)), 2)
        with pytest.raises(CapacityExceeded):
            compile_spec(spec, FSLPlan(n=6, m=2, max_qubits=5))

    def test_dimension_checks(self, rng):
        spec = truncate(dft_coefficients(random_grid(rng, 4, dims=2)), 2)
        with pytest.raises(DimensionMismatch):
            compile_spec(spec, FSLPlan(n=4, m=2))
        with pytest.raises(DimensionMismatch):
            compile_spec(truncate(dft_coefficients(random_grid(rng, 4)), 2),
                         FSLPlan(n=4, m=2, dims=2))


class TestCompileNd:
    def test_dc_only_uniform_superposition(self):
        spec = spec_with_single_mode(3, 1, 0, 0)
        circ, _ = compile_spec(spec, FSLPlan(n=3, m=1, dims=2))
        assert np.allclose(run(circ).amplitudes, np.full(64, 1 / 8))

    def test_separable_modes_give_product_kernels(self):
        spec = spec_with_single_mode(3, 1, 1, 1)
        circ, _ = compile_spec(spec, FSLPlan(n=3, m=1, dims=2))
        k = np.arange(8)
        kern = np.exp(-2j * np.pi * k / 8) / math.sqrt(8)
        assert np.max(np.abs(run(circ).amplitudes - np.kron(kern, kern))) < 1e-12

    @pytest.mark.parametrize("loader", [Loader.UCR, Loader.SCHMIDT])
    def test_random_2d_specs(self, loader, rng):
        for _ in range(5):
            m = int(rng.integers(1, 3))
            n = int(rng.integers(m + 1, 6))
            spec = truncate(dft_coefficients(random_grid(rng, n, dims=2)), m)
            circ, report = compile_spec(spec, FSLPlan(n=n, m=m, dims=2, loader=loader))
            assert fidelity(run(circ), target_state(spec, n)) >= 1 - 1e-9
            assert report.analytic_bound is None

    def test_three_dimensional_load(self, rng):
        spec = truncate(dft_coefficients(random_grid(rng, 3, dims=3)), 1)
        circ, _ = compile_spec(spec, FSLPlan(n=3, m=1, dims=3))
        assert fidelity(run(circ), target_state(spec, 3)) >= 1 - 1e-9

    def test_2d_single_qubit_count_bound(self, rng):
        n, m, dims = 5, 2, 2
        spec = truncate(dft_coefficients(random_grid(rng, n, dims=dims)), m)
        _, report = compile_spec(spec, FSLPlan(n=n, m=m, dims=dims))
        assert report.gate_counts.single_qubit <= dims * n + 2 ** (dims * (m + 1) + 1) - 1

    def test_fanout_cnots_per_dimension(self, rng):
        n, m, dims = 5, 2, 2
        spec = truncate(dft_coefficients(random_grid(rng, n, dims=dims)), m)
        circ, _ = compile_spec(spec, FSLPlan(n=n, m=m, dims=dims))
        for d in range(dims):
            lo, hi = d * n, d * n + (n - m - 1)
            fanout = [g for g in circ.gates if g.kind is GateKind.CNOT
                      and lo <= g.qubits[1] < hi]
            assert len(fanout) == n - m - 1


class TestCompileNonperiodic:
    def test_already_periodic_function_loses_nothing(self):
        # The reflection sits half a sample past the last grid point, so the
        # lossless case is a function symmetric about that midpoint; the
        # half-shifted cosine is exactly grid-mirror-symmetric.
        n, m = 6, 4
        x = (np.arange(2**n) + 0.5) / 2**n
        g = GridFunction.from_samples(2.0 + np.cos(2 * np.pi * x))
        circ, _ = compile_nonperiodic(g, m, NonperiodicVariant.DISENTANGLE)
        out = run(circ)
        direct, _ = compile_spec(prepare_spec(g, m), FSLPlan(n=n, m=m))
        block0 = out.amplitudes.reshape(2, -1)[0]
        got = block0 / np.linalg.norm(block0)
        want = run(direct).amplitudes
        assert abs(np.vdot(got, want)) ** 2 >= 1 - 1e-9

    def test_generic_periodic_function_loses_almost_nothing(self):
        n, m = 6, 4
        x = np.arange(2**n) / 2**n
        g = GridFunction.from_samples(2.0 + np.cos(2 * np.pi * x))
        circ, _ = compile_nonperiodic(g, m, NonperiodicVariant.DISENTANGLE)
        block0 = run(circ).amplitudes.reshape(2, -1)[0]
        got = block0 / np.linalg.norm(block0)
        assert abs(np.vdot(got, g.samples)) ** 2 >= 1 - 1e-6

    def test_sqrt_ramp_disentangles_ancilla(self):
        n, m = 6, 4
        x = np.arange(2**n) / 2**n
        g = GridFunction.from_samples(np.sqrt(2 * x + 0.05))
        circ, report = compile_nonperiodic(g, m, "disentangle")
        out = run(circ)
        assert reduced_population(out, 0, 0) >= 1 - 1e-10
        block0 = out.amplitudes.reshape(2, -1)[0]
        fid = abs(np.vdot(g.samples, block0 / np.linalg.norm(block0))) ** 2
        assert 1 - fid == pytest.approx(report.exact_infidelity, abs=1e-9)

    def test_ancilla_reduced_state_trace_distance(self):
        g = funcs.sample(funcs.builtin("lognormal"), 7)
        circ, _ = compile_nonperiodic(g, 4, "disentangle")
        rho = reduced_density_matrix(run(circ), (0,))
        gap = np.linalg.eigvalsh(rho - np.diag([1.0, 0.0]))
        assert 0.5 * np.sum(np.abs(gap)) < 1e-10

    def test_measure_variant_ships_postprocessing_rule(self):
        g = funcs.sample(funcs.builtin("tanh"), 5)
        circ, report = compile_nonperiodic(g, 3, NonperiodicVariant.MEASURE)
        assert report.post_processing["measure_qubit"] == 0
        assert report.post_processing["data_qubits"] == list(range(1, 6))
        # before any measurement the state is the mirror-extension load, so the
        # ancilla is balanced between both branches
        out = run(circ)
        assert reduced_population(out, 0, 0) == pytest.approx(0.5, abs=1e-9)

    def test_measure_variant_branches_both_encode_f(self):
        g = funcs.sample(funcs.builtin("lorentzian"), 5)
        circ, _ = compile_nonperiodic(g, 3, "measure")
        out = run(circ).amplitudes.reshape(2, -1)
        b0 = out[0] / np.linalg.norm(out[0])
        b1 = out[1][::-1] / np.linalg.norm(out[1])  # X^n relabeling reverses indices
        assert abs(np.vdot(b0, b1)) ** 2 >= 1 - 1e-12

    def test_filter_a_filters_the_extension_window(self):
        g = funcs.sample(funcs.builtin("tanh"), 5)
        circ, _ = compile_nonperiodic(g, 2, "measure", filter_a=0.5)
        want = target_state(prepare_spec(mirror_extend(g), 2, filter_a=0.5), 6)
        assert fidelity(run(circ), want) >= 1 - 1e-9

    def test_report_infidelity_equals_mirror_truncation(self):
        g = funcs.sample(funcs.builtin("tanh"), 7)
        _, report = compile_nonperiodic(g, 4, "disentangle")
        full = dft_coefficients(mirror_extend(g))
        assert report.exact_infidelity == pytest.approx(exact_infidelity(full, 4), abs=1e-12)

    def test_rejects_multidimensional_input(self, rng):
        g = random_grid(rng, 3, dims=2)
        with pytest.raises(DimensionMismatch):
            compile_nonperiodic(g, 1, "disentangle")

    def test_capacity_checked_before_the_grid_is_extended(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fourier, "mirror_extend", lambda g: calls.append(g))
        g = funcs.sample(funcs.builtin("tanh"), 6)
        with pytest.raises(CapacityExceeded, match="7 qubits"):
            compile_nonperiodic(g, 3, "disentangle", FSLPlan(n=6, m=3, max_qubits=6))
        assert calls == []


class TestMirrorLoadIsASpecLoad:
    """``compile_nonperiodic`` is ``compile_spec`` with a variant on the mirror
    extension's window, circuit and report alike."""

    @pytest.mark.parametrize("variant", list(NonperiodicVariant))
    @pytest.mark.parametrize("filter_a", [None, 0.5])
    @pytest.mark.parametrize("m", range(1, 6))
    def test_grid_level_form_equals_the_spec_load(self, variant, filter_a, m):
        g = funcs.sample(funcs.builtin("tanh"), 8)
        ext = mirror_extend(g)
        circ, report = compile_spec(prepare_spec(ext, m, filter_a), FSLPlan(n=9, m=m), ext,
                                    variant)
        want_circ, want_report = compile_nonperiodic(g, m, variant, filter_a=filter_a)
        assert circ == want_circ
        assert report.to_dict(include_timing=False) == want_report.to_dict(include_timing=False)

    def test_variant_is_coerced_from_its_value(self):
        ext = mirror_extend(funcs.sample(funcs.builtin("tanh"), 5))
        spec = prepare_spec(ext, 2)
        by_value = compile_spec(spec, FSLPlan(n=6, m=2), ext, "measure")
        by_member = compile_spec(spec, FSLPlan(n=6, m=2), ext, NonperiodicVariant.MEASURE)
        assert by_value[0] == by_member[0]
        assert by_value[1].post_processing == by_member[1].post_processing
        with pytest.raises(ValueError):
            compile_spec(spec, FSLPlan(n=6, m=2), ext, "mirror")

    @pytest.mark.parametrize("variant", [None, *NonperiodicVariant])
    def test_spec_truncated_at_another_m_is_rejected(self, variant):
        ext = mirror_extend(funcs.sample(funcs.builtin("tanh"), 5))
        with pytest.raises(ValueError, match="truncated at m=2, plan says m=3"):
            compile_spec(prepare_spec(ext, 2), FSLPlan(n=6, m=3), ext, variant)

    @pytest.mark.parametrize("variant", [None, *NonperiodicVariant])
    def test_source_that_is_not_the_plans_grid_is_rejected(self, variant):
        g = funcs.sample(funcs.builtin("tanh"), 8)
        ext = mirror_extend(g)
        spec = prepare_spec(ext, 3)
        want = compile_spec(spec, FSLPlan(n=9, m=3), ext, variant)[1].analytic_bound
        assert want == pytest.approx(fourier.infidelity_bound(ext, 3))
        with pytest.raises(DimensionMismatch, match="source grid has n=8, D=1; plan has n=9"):
            compile_spec(spec, FSLPlan(n=9, m=3), g, variant)  # g's bound is not ext's

    def test_source_of_another_dimension_is_rejected(self, rng):
        spec = truncate(dft_coefficients(random_grid(rng, 4)), 1)
        with pytest.raises(DimensionMismatch, match="D=2; plan has n=4, D=1"):
            compile_spec(spec, FSLPlan(n=4, m=1), random_grid(rng, 4, dims=2))

    def test_variant_needs_one_register(self, rng):
        spec = truncate(dft_coefficients(random_grid(rng, 3, dims=2)), 1)
        with pytest.raises(DimensionMismatch):
            compile_spec(spec, FSLPlan(n=3, m=1, dims=2), variant="disentangle")


class TestResourceShape:
    def test_loader_occupies_low_wires_only_before_fanout(self, rng):
        n, m = 7, 2
        spec = truncate(dft_coefficients(random_grid(rng, n)), m)
        circ, _ = compile_spec(spec, FSLPlan(n=n, m=m))
        first_fanout = next(i for i, g in enumerate(circ.gates)
                            if g.kind is GateKind.CNOT and g.qubits[1] <= n - m - 2)
        for g in circ.gates[:first_fanout]:
            assert all(q >= n - m - 1 for q in g.qubits)

    def test_zero_angle_rotations_are_elided(self):
        spec = spec_with_single_mode(5, 2, 0)  # real nonnegative loader target
        circ, report = compile_spec(spec, FSLPlan(n=5, m=2))
        assert report.gate_counts.by_kind.get("RZ", 0) == 0

    def test_depth_reported_matches_metric(self, rng):
        spec = truncate(dft_coefficients(random_grid(rng, 6)), 2)
        circ, report = compile_spec(spec, FSLPlan(n=6, m=2))
        assert report.depth == depth(circ)
        counts = report.gate_counts
        assert counts.single_qubit + counts.two_qubit + counts.opaque == len(circ.gates)


# Every catalogue function's UCR compile at n=10 (1-D) or n=6 (2-D), m=3.
# Six loader vectors are real or a product at some cut, and their circuits
# changed when the loader learnt to split products and to load real vectors
# with no RZ: (1q, 2q, depth) before and after.  reflected_put's vector is
# real and positive and no product, so it had no RZ to lose: only the last
# bits of its level-0 angles changed.
CHANGED = {
    "complex_cosines": ((41, 73, 65), (26, 59, 40)),
    "lorentzian": ((33, 73, 59), (25, 65, 48)),
    "reflected_put": ((25, 65, 48), (25, 65, 48)),
    "sinc": ((33, 73, 61), (25, 65, 48)),
    "sinc2d": ((473, 528, 955), (42, 62, 39)),
    "spiky": ((37, 73, 62), (13, 53, 26)),
}
# The other eight are neither, and their gates, counts and depth stay as they
# were; the SHA-256 of the kind, wire and angle columns pins them, angles as the
# pairwise recursion of ``mottonen_angles`` gives them.  Since a real grid's
# window is exactly Hermitian, gaussian2d has four RZs fewer (523/528/1004 ->
# 519/528/1001): their angles are exactly 0, and the emitter drops them.
UNCHANGED = {
    "bimodal_gaussian": "2186087dae22bbd388ffce840cb4e9904bc5123425428b4086ac33b923514871",
    "constant": "43b9ee22cc9879b8d84362c2b5c4d4f28c0122ab062c89eff0ff93e61f699f95",
    "gaussian2d": "64ee2fd95838fed79011e679788162a9fe421c1ae614b839e4b35d7c88a0d284",
    "lognormal": "4c6ac63c80ccf330c0a5c2a578f3a1d79e0ab4ab1c3828fade7fc6e75432918d",
    "piecewise": "566d7afbede3108fd8cfa76938cf25ad2f030d590d1ba281ecc82b466bc503f5",
    "qho_excited": "f64777672053869efeda09b977cfa7c65a77404df6adb3c2afd3e605433c057d",
    "tanh": "60b85f661d888ec4b4bf21a9a2c5ca4728119be4a2b18d84fc9a256c985638ca",
    "xpowx": "0e3dd19d886b7c90c8ee6460fd048344234af72e9c0152336b67e4becc684682",
}


def _catalogue_compile(name):
    fdef = funcs.builtin(name)
    n = 10 if fdef.dims == 1 else 6
    plan = FSLPlan(n=n, m=3, dims=fdef.dims)
    spec = prepare_spec(funcs.sample(fdef, n), 3)
    return compile_spec(spec, plan) + (spec, plan)


def _catalogue_digest(name) -> str:
    circ = _catalogue_compile(name)[0]
    return hashlib.sha256(b"".join(col.tobytes()
                                   for col in (circ.kinds, circ.wires, circ.angles))).hexdigest()


class TestSeparableAndRealLoads:
    """The UCR loader splits a product loader vector into factors on their own
    wires and loads a real one with no RZ cascade; nothing else changes."""

    def test_catalogue_is_split_between_changed_and_unchanged(self):
        assert sorted([*CHANGED, *UNCHANGED]) == sorted(funcs.CATALOG_NAMES)

    def test_sinc2d_loader_has_no_gate_between_the_registers(self):
        circ, report, spec, plan = _catalogue_compile("sinc2d")
        assert fidelity(run(circ), target_state(spec, plan.n)) > 1 - 1e-12
        pairs = circ.wires[circ.wires[:, 1] >= 0]
        assert len(pairs) == report.gate_counts.two_qubit > 0
        assert np.all(pairs // plan.n == pairs[:, :1] // plan.n)

    @pytest.mark.parametrize("name", funcs.CATALOG_NAMES)
    def test_within_the_paper_resource_formulas(self, name):
        _, report, _, plan = _catalogue_compile(name)
        n, m, q = plan.n, plan.m, plan.dims * (plan.m + 1)
        counts = report.gate_counts
        assert counts.single_qubit <= plan.dims * n + 2 ** (q + 1) - 1
        assert counts.two_qubit <= plan.dims * n * (n + 1) // 2 + 2 ** (q + 1) - 3 * q - 2
        assert report.depth <= 2 * (n - 2) + math.ceil(math.log2(n - m)) + 2 ** (q + 2) - 2 * q

    @pytest.mark.parametrize("name", sorted(CHANGED))
    def test_real_or_product_vectors_shrink(self, name):
        circ, report, spec, plan = _catalogue_compile(name)
        before, after = CHANGED[name]
        got = (report.gate_counts.single_qubit, report.gate_counts.two_qubit, report.depth)
        assert got == after and all(g <= b for g, b in zip(got, before))
        assert name == "reflected_put" or sum(got[:2]) < sum(before[:2])
        assert fidelity(run(circ), target_state(spec, plan.n)) > 1 - 1e-12

    @pytest.mark.skipif(np.__version__ != RECORDED_NUMPY,
                        reason=f"digests were recorded under numpy {RECORDED_NUMPY}")
    @pytest.mark.parametrize("name", sorted(UNCHANGED))
    def test_other_circuits_are_unchanged(self, name):
        assert _catalogue_digest(name) == UNCHANGED[name]


def test_exactly_hermitian_window_drops_zero_angle_rz():
    """piecewise n=20, m=14: the 15-wire loader vector is dense and not real,
    so its phase cascade has 2^15 RZ angles.  The window is exactly Hermitian,
    which makes two of them exactly 0, and the emitter drops those."""
    spec = prepare_spec(funcs.sample(funcs.builtin("piecewise"), 20), 14)
    report = compile_spec(spec, FSLPlan(n=20, m=14))[1]
    assert report.gate_counts.by_kind["RZ"] == 32766


class TestAssembleEqualsReference:
    """Every load path gives the reference assembly gate for gate, and its
    report describes that circuit."""

    @staticmethod
    def check(circ, report, want):
        assert [gate_key(g) for g in circ.gates] == [gate_key(g) for g in want.gates]
        assert (circ.num_qubits, circ.output_permutation) == \
            (want.num_qubits, want.output_permutation)
        assert report.depth == depth(want)
        assert report.gate_counts == gate_counts(want)
        assert not (circ.has_opaque() or report.gate_counts.opaque)

    @pytest.mark.parametrize("n, m, loader", [(3, 0, Loader.UCR), (5, 2, Loader.UCR),
                                              (7, 4, Loader.UCR), (3, 0, Loader.SCHMIDT),
                                              (5, 2, Loader.SCHMIDT), (7, 4, Loader.SCHMIDT)])
    def test_periodic(self, n, m, loader, rng):
        plan = FSLPlan(n=n, m=m, loader=loader)
        spec = prepare_spec(random_grid(rng, n), m)
        self.check(*compile_spec(spec, plan), reference_assembly(spec.wrapped_vector(), plan))

    @pytest.mark.parametrize("loader", list(Loader))
    @pytest.mark.parametrize("name, n, m", [("tanh", 6, 3), ("piecewise", 7, 2),
                                            ("xpowx", 5, 1)])
    def test_mirror(self, name, n, m, loader):
        g = funcs.sample(funcs.builtin(name), n)
        plan = FSLPlan(n=n, m=m, loader=loader)
        got = compile_nonperiodic(g, m, NonperiodicVariant.DISENTANGLE, plan)
        vec = prepare_spec(mirror_extend(g), m).wrapped_vector()
        tail = tuple(cnot(0, t) for t in range(1, n + 1)) + (h(0),)
        self.check(*got, reference_assembly(vec, replace(plan, n=n + 1), tail=tail))

    @pytest.mark.parametrize("loader", list(Loader))
    @pytest.mark.parametrize("dims, n, m", [(2, 4, 1), (2, 5, 2), (3, 3, 1)])
    def test_multidimensional(self, dims, n, m, loader, rng):
        plan = FSLPlan(n=n, m=m, dims=dims, loader=loader)
        spec = prepare_spec(random_grid(rng, n, dims=dims), m)
        self.check(*compile_spec(spec, plan), reference_assembly(spec.wrapped_vector(), plan))

    @pytest.mark.parametrize("loader", list(Loader))
    @pytest.mark.parametrize("side, m", [(4, 1), (8, 2), (16, 2)])
    def test_frqi(self, side, m, loader, rng):
        img = GrayImage(side, rng.random((side, side)))
        plan = FSLPlan(n=img.n, m=m, dims=2, loader=loader)
        want = reference_assembly(phase_spectra(img, m), plan, lead=1,
                                  tail=(h(0), phase(math.pi / 2, 0)))
        self.check(*compile_frqi(img, m, plan), want)


def hand_written_to_dict(report: CompileReport, include_timing: bool = True) -> dict:
    """``CompileReport.to_dict`` as it was once written out field by field: the
    reference that the dict derived from the dataclass fields must equal."""
    d = {
        "depth": report.depth,
        "gate_counts": {
            "single_qubit": report.gate_counts.single_qubit,
            "two_qubit": report.gate_counts.two_qubit,
            "opaque": report.gate_counts.opaque,
            "by_kind": dict(sorted(report.gate_counts.by_kind.items())),
        },
        "exact_infidelity": report.exact_infidelity,
        "analytic_bound": report.analytic_bound,
        "contains_opaque": False,
    }
    if report.post_processing is not None:
        d["post_processing"] = report.post_processing
    if include_timing:
        d["compile_wall_time_s"] = report.compile_wall_time
    return d


class TestReportDict:
    @staticmethod
    def reports(rng):
        grid = random_grid(rng, 6)
        img = GrayImage(8, rng.random((8, 8)))
        tanh = funcs.sample(funcs.builtin("tanh"), 6)
        schmidt = compile_spec(prepare_spec(grid, 2), FSLPlan(n=6, m=2, loader=Loader.SCHMIDT))[1]
        return {
            "periodic": compile_spec(prepare_spec(grid, 2), FSLPlan(n=6, m=2), source=grid)[1],
            "mirror-measure": compile_nonperiodic(tanh, 3, NonperiodicVariant.MEASURE)[1],
            "schmidt": schmidt,
            "frqi": compile_frqi(img, 1)[1],
        }

    @pytest.mark.parametrize("include_timing", [True, False])
    def test_equals_the_hand_written_dict_on_every_load_path(self, include_timing, rng):
        reports = self.reports(rng)
        assert reports["mirror-measure"].post_processing is not None
        for path, report in reports.items():
            assert report.to_dict(include_timing) == hand_written_to_dict(report, include_timing), path

    def test_opaque_fields_read_zero_and_false(self, rng):
        assert "contains_opaque" not in {f.name for f in fields(CompileReport)}
        for path, report in self.reports(rng).items():
            d = report.to_dict()
            assert d["contains_opaque"] is False and d["gate_counts"]["opaque"] == 0, path


if __name__ == "__main__":
    print_literal("UNCHANGED", {name: _catalogue_digest(name) for name in UNCHANGED})
