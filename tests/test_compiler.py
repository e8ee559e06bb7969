"""End-to-end compilation against the direct-evaluation target oracle."""
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import gate_key, rand_state, reference_assembly, reference_fanout_pairs
from fsl import funcs
from fsl.circuit import Circuit, GateCounts, GateKind, cnot, depth, gate_counts, h, phase
from fsl.compiler import (CompileReport, FSLPlan, Loader, NonperiodicVariant, _fanout_pairs,
                          compile_nonperiodic, compile_spec, prepare_spec, target_state)
from fsl.errors import CapacityExceeded, DimensionMismatch
from fsl.fourier import (GridFunction, dft_coefficients, exact_infidelity,
                         lanczos_filter, mirror_extend, truncate)
from fsl.frqi import GrayImage, compile_frqi, phase_spectra
from fsl.simulator import Statevector, fidelity, reduced_population, run


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
                want[ell] += spec.coefficient(k) * np.exp(-2j * np.pi * k * ell / 2**n)
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
            assert report.contains_opaque == (loader is Loader.SCHMIDT)

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
        from fsl.simulator import reduced_density_matrix
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
        assert report.gate_counts.total == len(circ.gates)


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
        assert report.contains_opaque == want.has_opaque()

    @pytest.mark.parametrize("n, m, loader", [(3, 0, Loader.UCR), (5, 2, Loader.UCR),
                                              (7, 4, Loader.UCR), (5, 2, Loader.SCHMIDT),
                                              (7, 4, Loader.SCHMIDT)])  # Schmidt needs m >= 1
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
        "contains_opaque": report.contains_opaque,
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
        return {
            "periodic": compile_spec(prepare_spec(grid, 2), FSLPlan(n=6, m=2), source=grid)[1],
            "mirror-measure": compile_nonperiodic(tanh, 3, NonperiodicVariant.MEASURE)[1],
            "schmidt": compile_spec(prepare_spec(grid, 2),
                                    FSLPlan(n=6, m=2, loader=Loader.SCHMIDT))[1],
            "frqi": compile_frqi(img, 1)[1],
        }

    @pytest.mark.parametrize("include_timing", [True, False])
    def test_equals_the_hand_written_dict_on_every_load_path(self, include_timing, rng):
        reports = self.reports(rng)
        assert reports["mirror-measure"].post_processing is not None
        assert reports["schmidt"].contains_opaque and not reports["periodic"].contains_opaque
        for path, report in reports.items():
            assert report.to_dict(include_timing) == hand_written_to_dict(report, include_timing), path

    def test_opaque_flag_follows_the_counts(self, rng):
        assert "contains_opaque" not in {f.name for f in fields(CompileReport)}
        report = self.reports(rng)["schmidt"]
        decomposed = replace(report, gate_counts=GateCounts(3, 2, 0, {"RY": 3, "CNOT": 2}))
        assert report.contains_opaque and not decomposed.contains_opaque
        assert decomposed.to_dict()["contains_opaque"] is False
