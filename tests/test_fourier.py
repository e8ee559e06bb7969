"""Spectral analysis: DFT conventions, truncation, filtering, mirror extension,
and the exact/bounded truncation-error accounting."""
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fsl import fourier, funcs
from fsl.compiler import prepare_spec, target_state
from fsl.errors import (DegenerateWindow, DimensionMismatch, EmptyWindow,
                        InsufficientPoints, NonUnitNorm)
from fsl.fourier import (FourierSpec, GridFunction, _forward_difference, decay_slope,
                         dft_coefficients, exact_infidelity, infidelity_bound,
                         lanczos_filter, mirror_extend, reconstruct, truncate,
                         window_mass)
from fsl.simulator import Statevector, fidelity


def brute_force_dft(samples):
    """Direct double-loop evaluation of the positive-kernel coefficient sum."""
    size = len(samples)
    out = np.zeros(size, dtype=complex)
    for k in range(size):
        for ell in range(size):
            out[k] += samples[ell] * np.exp(2j * np.pi * k * ell / size)
    return out / math.sqrt(size)


def grid_from(rng, n, dims=1):
    s = rng.standard_normal((2**n,) * dims) + 1j * rng.standard_normal((2**n,) * dims)
    return GridFunction.from_samples(s)


class TestDftCoefficients:
    def test_constant_samples_are_pure_dc(self):
        g = GridFunction.from_samples(np.full(8, 1.0))
        c = dft_coefficients(g)
        assert c[0] == pytest.approx(1.0)
        assert np.max(np.abs(c[1:])) < 1e-14

    def test_single_negative_kernel_mode_lands_at_k_one(self):
        n = 4
        ell = np.arange(2**n)
        g = GridFunction.from_samples(np.exp(-2j * np.pi * ell / 2**n))
        c = dft_coefficients(g)
        assert c[1] == pytest.approx(1.0)
        assert np.sum(np.abs(c)**2) - abs(c[1])**2 < 1e-13

    def test_matches_brute_force_oracle(self, rng):
        g = grid_from(rng, 3)
        assert np.max(np.abs(dft_coefficients(g) - brute_force_dft(g.samples))) < 1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_parseval(self, seed):
        g = grid_from(np.random.default_rng(seed), 5)
        assert abs(np.sum(np.abs(dft_coefficients(g))**2) - 1.0) < 1e-10

    def test_reconstruction_inverts(self, rng):
        g = grid_from(rng, 6)
        back = reconstruct(dft_coefficients(g))
        assert np.max(np.abs(back - g.samples)) < 1e-10


class TestRealGrids:
    """A real grid keeps float64 samples and takes its spectrum with rfftn; the
    spectrum is the complex transform's, and exactly Hermitian."""

    @pytest.mark.parametrize("dims", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_spectrum_matches_the_complex_transform(self, rng, dims, n):
        g = GridFunction.from_samples(rng.standard_normal((2**n,) * dims))
        assert g.samples.dtype == np.float64
        want = np.fft.ifftn(g.samples.astype(complex)) * 2.0 ** (dims * n / 2)
        assert np.max(np.abs(dft_coefficients(g) - want)) < 1e-15

    @pytest.mark.parametrize("dims, n", [(1, 6), (2, 4), (3, 3)])
    def test_every_window_is_exactly_hermitian(self, rng, dims, n):
        full = dft_coefficients(GridFunction.from_samples(rng.standard_normal((2**n,) * dims)))
        for m in range(n):
            c = truncate(full, m).coeffs
            assert np.array_equal(c, np.conj(c[(slice(None, None, -1),) * dims])), m

    def test_complex_grid_takes_the_complex_transform(self, rng):
        g = grid_from(rng, 4, dims=2)
        assert g.samples.dtype == np.complex128
        assert np.array_equal(dft_coefficients(g), np.fft.ifftn(g.samples) * 2.0**4)


def _assert_same_window(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # signed zeros too


class TestSpectrumWindow:
    """``spectrum`` keeps one transform, a real grid's ``rfftn`` half, and its
    ``window`` reader gives every centred window of the full spectrum bit for bit."""

    @pytest.mark.parametrize("dims, n", [(1, 1), (1, 2), (1, 9), (2, 1), (2, 2), (2, 5),
                                         (3, 1), (3, 3)])
    def test_real_grid_windows_equal_the_full_spectrum_windows(self, rng, dims, n):
        g = GridFunction.from_samples(rng.standard_normal((2**n,) * dims))
        spec = fourier.spectrum(g)
        assert spec.half and spec.coeffs.shape == (2**n,) * (dims - 1) + (2 ** (n - 1) + 1,)
        full = dft_coefficients(g)
        for m in range(n):
            _assert_same_window(spec.window(m), fourier._centred_window(full, m))

    @pytest.mark.parametrize("dims, n", [(1, 6), (2, 4), (3, 2)])
    def test_complex_grid_keeps_the_full_spectrum(self, rng, dims, n):
        g = grid_from(rng, n, dims=dims)
        spec = fourier.spectrum(g)
        assert not spec.half and spec.full() is spec.coeffs
        full = dft_coefficients(g)
        for m in range(n):
            _assert_same_window(spec.window(m), fourier._centred_window(full, m))

    @pytest.mark.parametrize("name, n", [("tanh", 8), ("lognormal", 7), ("complex_cosines", 6)])
    def test_mirror_extension_windows_equal_the_full_spectrum_windows(self, name, n):
        ext = mirror_extend(funcs.sample(funcs.builtin(name), n))
        spec, full = fourier.spectrum(ext), dft_coefficients(ext)
        for m in range(ext.n):
            _assert_same_window(spec.window(m), fourier._centred_window(full, m))

    @pytest.mark.parametrize("dims, n", [(1, 7), (2, 4)])
    @pytest.mark.parametrize("filter_a", [None, 0.5, 2.0])
    def test_filtered_truncation_equals_the_full_spectrum_one(self, rng, dims, n, filter_a):
        g = GridFunction.from_samples(rng.standard_normal((2**n,) * dims))
        spec, full = fourier.spectrum(g), dft_coefficients(g)
        for m in range(n):
            got, want = truncate(spec, m, filter_a), truncate(full, m, filter_a)
            _assert_same_window(got.coeffs, want.coeffs)
            assert got.norm_constant == want.norm_constant
            assert exact_infidelity(spec, m) == exact_infidelity(full, m)

    def test_window_still_needs_m_below_n(self, rng):
        spec = fourier.spectrum(GridFunction.from_samples(rng.standard_normal(8)))
        with pytest.raises(ValueError, match="need m < n"):
            spec.window(3)


class TestTruncate:
    def test_band_limited_input_is_unchanged(self, rng):
        full = np.zeros(32, dtype=complex)
        full[[0, 1, 2, -1, -2]] = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        full /= np.linalg.norm(full)
        spec = truncate(full, 2)
        assert spec.norm_constant == pytest.approx(1.0)
        assert spec.coeffs[1 + 3] == pytest.approx(full[1], abs=1e-14)
        assert spec.coeffs[-2 + 3] == pytest.approx(full[-2], abs=1e-14)

    def test_pure_high_mode_empties_the_window(self):
        full = np.zeros(32, dtype=complex)
        full[2**3] = 1.0  # k = 2^m sits just outside the window
        with pytest.raises(EmptyWindow):
            truncate(full, 3)

    def test_norm_constant_matches_direct_window_sum(self, rng):
        g = grid_from(rng, 6)
        full = dft_coefficients(g)
        spec = truncate(full, 3)
        direct = sum(abs(full[k])**2 for k in range(-7, 8))
        assert spec.norm_constant == pytest.approx(direct, abs=1e-12)

    def test_window_shape_and_renormalization(self, rng):
        spec = truncate(dft_coefficients(grid_from(rng, 5)), 2)
        assert spec.coeffs.shape == (7,)
        assert np.sum(np.abs(spec.coeffs)**2) == pytest.approx(1.0, abs=1e-12)

    def test_requires_m_below_n(self, rng):
        with pytest.raises(ValueError):
            truncate(dft_coefficients(grid_from(rng, 3)), 3)

    def test_wrapped_vector_layout(self, rng):
        spec = truncate(dft_coefficients(grid_from(rng, 5)), 2)
        vec = spec.wrapped_vector()
        assert len(vec) == 8
        assert vec[4] == 0  # the 2^m slot stays empty
        assert vec[1] == spec.coeffs[1 + 3]
        assert vec[7] == spec.coeffs[-1 + 3]
        assert vec[5] == spec.coeffs[-3 + 3]

    def test_wrapped_vector_2d(self, rng):
        g = grid_from(rng, 3, dims=2)
        spec = truncate(dft_coefficients(g), 1)
        vec = spec.wrapped_vector().reshape(4, 4)
        assert vec[1, 3] == spec.coeffs[1 + 1, -1 + 1]
        assert np.all(vec[2, :] == 0) and np.all(vec[:, 2] == 0)

    @pytest.mark.parametrize("n,m", [(3, 1), (4, 2), (5, 2)])
    def test_embed_2d_places_k_at_k_mod_side(self, rng, n, m):
        spec = truncate(dft_coefficients(grid_from(rng, n, dims=2)), m)
        full = spec.embed(2**n)
        M, size = spec.max_frequency, 2**n
        assert full.shape == (size, size)
        for p in range(-M, M + 1):
            for q in range(-M, M + 1):
                assert full[p % size, q % size] == spec.coeffs[p + M, q + M]
        assert np.sum(np.abs(full) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestLanczosFilter:
    def test_dc_coefficient_unchanged_before_renormalization(self, rng):
        spec = truncate(dft_coefficients(grid_from(rng, 6)), 3)
        filtered = lanczos_filter(spec, 1.0)
        # k=0 keeps its value up to the common renormalization factor
        ratio = filtered.coeffs[7] / spec.coeffs[7]
        others = filtered.coeffs / np.where(np.abs(spec.coeffs) > 0, spec.coeffs, 1.0)
        assert abs(ratio) >= np.max(np.abs(others)) - 1e-12

    @pytest.mark.parametrize("a", [-1.0, np.nan])
    def test_negative_or_nan_exponent_rejected(self, a, rng):
        spec = truncate(dft_coefficients(grid_from(rng, 6)), 3)
        with pytest.raises(ValueError, match="nonnegative"):
            lanczos_filter(spec, a)

    def test_zero_exponent_is_identity(self, rng):
        spec = truncate(dft_coefficients(grid_from(rng, 6)), 3)
        filtered = lanczos_filter(spec, 0.0)
        assert np.max(np.abs(filtered.coeffs - spec.coeffs)) < 1e-14

    def test_m0_window_is_left_as_it_is(self):
        spec = FourierSpec(1, 0, np.array([1.0]), 0.5)
        assert lanczos_filter(spec, 3.0) is spec

    def test_filter_that_removes_all_mass_raises(self):
        # sinc(+-pi)^100 underflows to 0, and the window holds no k = 0 mass
        spec = FourierSpec(1, 1, np.array([1.0, 0.0, 1.0]) / math.sqrt(2), 1.0)
        with pytest.raises(EmptyWindow, match="removed all"):
            lanczos_filter(spec, 100.0)

    def test_suppresses_gibbs_overshoot_at_a_jump(self):
        n, m = 12, 8
        edge = 2**n // 2
        samples = np.where(np.arange(2**n) < edge, 0.9, 0.3)
        g = GridFunction.from_samples(samples)
        spec = truncate(dft_coefficients(g), m)
        hi, lo = np.max(np.abs(g.samples)), np.min(np.abs(g.samples))

        def max_overshoot(s):
            # excursion beyond the two step levels, near the jump
            recon = target_state(s, n).amplitudes.real
            window = recon[edge - 8: edge + 8]
            return max(np.max(window) - hi, lo - np.min(window))

        assert max_overshoot(spec) > 0  # the raw series does ring
        assert max_overshoot(lanczos_filter(spec, 1.0)) < max_overshoot(spec)


class TestMirrorExtend:
    def test_two_point_example(self):
        g = GridFunction.from_samples(np.array([0.6, 0.8]))
        ext = mirror_extend(g)
        want = np.array([0.6, 0.8, 0.8, 0.6]) / math.sqrt(2)
        assert np.allclose(ext.samples, want)

    def test_symmetric_input_repeats(self):
        g = GridFunction.from_samples(np.array([1.0, 2.0, 2.0, 1.0]))
        ext = mirror_extend(g)
        assert np.allclose(ext.samples[:4] * math.sqrt(2), g.samples)
        assert np.allclose(ext.samples[4:] * math.sqrt(2), g.samples)

    def test_tanh_against_index_arithmetic_oracle(self):
        n = 19
        g = funcs.sample(funcs.builtin("tanh"), n)
        ext = mirror_extend(g)
        size = 2**n
        idx = np.arange(2 * size)
        src = np.where(idx < size, idx, 2 * size - 1 - idx)
        want = g.samples[src] / math.sqrt(2)
        assert np.max(np.abs(ext.samples - want)) < 1e-15

    def test_mirror_symmetry_exact(self, rng):
        ext = mirror_extend(grid_from(rng, 5))
        assert np.array_equal(ext.samples, ext.samples[::-1])

    def test_one_dimensional_only(self, rng):
        with pytest.raises(DimensionMismatch):
            mirror_extend(grid_from(rng, 3, dims=2))


class TestExactInfidelity:
    def test_band_limited_input_is_exact(self, rng):
        full = np.zeros(64, dtype=complex)
        full[[0, 1, -1]] = [0.8, 0.4j, 0.2]
        full /= np.linalg.norm(full)
        assert exact_infidelity(full, 3) < 1e-14

    def test_pure_outside_mode_loses_everything(self):
        full = np.zeros(64, dtype=complex)
        full[2**3] = 1.0
        assert exact_infidelity(full, 3) == pytest.approx(1.0)

    def test_equals_one_minus_norm_constant(self, rng):
        full = dft_coefficients(grid_from(rng, 7))
        for m in (2, 4, 6):
            assert exact_infidelity(full, m) == pytest.approx(
                1.0 - truncate(full, m).norm_constant, abs=1e-12)

    def test_non_increasing_in_m(self, rng):
        full = dft_coefficients(grid_from(rng, 8))
        eps = [exact_infidelity(full, m) for m in range(1, 8)]
        assert all(a >= b - 1e-15 for a, b in zip(eps, eps[1:]))

    def test_agrees_with_end_to_end_simulation_oracle(self):
        # x^x at full scale: spectral tail equals 1 - fidelity of the
        # reconstructed truncated state against the exact sample vector
        n, m = 20, 6
        g = funcs.sample(funcs.builtin("xpowx"), n)
        full = dft_coefficients(g)
        eps = exact_infidelity(full, m)
        state = target_state(truncate(full, m), n)
        exact = Statevector(n, g.samples)
        assert eps == pytest.approx(1.0 - fidelity(state, exact), abs=1e-10)
        assert eps < 1e-6  # the n=20, m=6 headline target

    def test_2d_window_mass(self, rng):
        full = dft_coefficients(grid_from(rng, 4, dims=2))
        direct = sum(abs(full[p, q])**2 for p in range(-3, 4) for q in range(-3, 4))
        assert window_mass(full, 2) == pytest.approx(direct, abs=1e-12)


class TestInfidelityBound:
    def test_m_not_below_n_and_negative_order_rejected(self):
        g = GridFunction.from_samples(np.ones(16))
        with pytest.raises(ValueError, match="need m < n"):
            infidelity_bound(g, 4)
        with pytest.raises(ValueError, match="nonnegative"):
            infidelity_bound(g, 2, p=-1)

    def test_constant_function_bound_is_zero(self):
        g = GridFunction.from_samples(np.ones(64))
        assert infidelity_bound(g, 3) == 0.0
        assert exact_infidelity(dft_coefficients(g), 3) == 0.0

    def test_single_mode_bound_valid(self):
        n = 6
        ell = np.arange(2**n)
        g = GridFunction.from_samples(np.exp(-2j * np.pi * ell / 2**n))
        assert exact_infidelity(dft_coefficients(g), 1) < 1e-14
        assert infidelity_bound(g, 1) >= 0.0

    def test_lorentzian_bounded_for_all_m(self):
        g = funcs.sample(funcs.builtin("lorentzian"), 16)
        full = dft_coefficients(g)
        for m in range(3, 9):
            assert exact_infidelity(full, m) <= infidelity_bound(g, m)

    def test_higher_order_bounds_hold_for_smooth_function(self):
        g = funcs.sample(funcs.builtin("lorentzian"), 14)
        full = dft_coefficients(g)
        for p in (1, 2):
            for m in (4, 6, 8):
                assert exact_infidelity(full, m) <= infidelity_bound(g, m, p=p)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("p", range(5))
    def test_closed_form_matches_quadrature(self, p):
        # reference: the tail integral of 1/sin^(2p+2) by numerical quadrature
        for name in ("lorentzian", "sinc", "bimodal_gaussian", "tanh", "piecewise"):
            for n in (8, 12):
                g = funcs.sample(funcs.builtin(name), n)
                l1 = float(np.sum(np.abs(_forward_difference(g.samples, p + 1))))
                for m in (1, 3, n - 2):
                    u0 = math.pi * 2**m / 2**n
                    integral, _ = quad(lambda u: math.sin(u) ** (-(2 * p + 2)), u0, math.pi / 2)
                    want = l1**2 * integral / (2 ** (2 * p + 1) * math.pi)
                    assert infidelity_bound(g, m, p=p) == pytest.approx(want, rel=1e-7, abs=0)

    @pytest.mark.parametrize("p", range(3))
    def test_difference_norm_taken_once_per_grid_and_order(self, p, monkeypatch):
        # a sweep asks for the bound at every m; the values keep every bit of
        # the formula that takes the forward difference anew each time
        g = funcs.sample(funcs.builtin("piecewise"), 12)
        want = []
        for m in range(1, 11):
            l1 = float(np.sum(np.abs(_forward_difference(g.samples, p + 1))))
            cot = 1.0 / math.tan(math.pi * 2**m / 2**g.n)
            integral = sum(math.comb(p, j) * cot ** (2 * j + 1) / (2 * j + 1)
                           for j in range(p + 1))
            want.append(l1**2 * integral / (2 ** (2 * p + 1) * math.pi))
        calls = []
        monkeypatch.setattr(fourier, "_forward_difference",
                            lambda s, order: calls.append(order) or _forward_difference(s, order))
        assert [infidelity_bound(g, m, p) for m in range(1, 11)] == want
        assert calls == [p + 1]

    def test_degenerate_window_raises(self):
        g = GridFunction.from_samples(np.ones(16))
        with pytest.raises(DegenerateWindow):
            infidelity_bound(g, 3)

    def test_one_dimensional_only(self, rng):
        with pytest.raises(DimensionMismatch):
            infidelity_bound(grid_from(rng, 3, dims=2), 1)


class TestDecaySlope:
    def test_geometric_spectrum_against_analytic_tail(self):
        n = 12
        size = 2**n
        k = np.fft.fftfreq(size, d=1 / size).astype(int)
        full = (2.0 ** (-np.abs(k))).astype(complex)
        full /= np.linalg.norm(full)
        g = GridFunction.from_samples(reconstruct(full))
        ms = range(1, 5)  # beyond m=4 the tail drops below float resolution of 1-x
        # analytic geometric tails give the expected least-squares slope
        power = np.abs(full)**2
        eps = [sum(power[kk] for kk in range(2**m, size - 2**m + 1)) for m in ms]
        want = np.polyfit(list(ms), [-math.log2(e) for e in eps], 1)[0]
        assert decay_slope(g, ms) == pytest.approx(want, abs=1e-4)

    def test_piecewise_slope_near_one(self):
        g = funcs.sample(funcs.builtin("piecewise"), 16)
        assert decay_slope(g, range(2, 9)) == pytest.approx(1.0, abs=0.3)

    def test_xpowx_slope_near_three(self):
        g = funcs.sample(funcs.builtin("xpowx"), 20)
        assert decay_slope(g, range(2, 9)) == pytest.approx(3.0, abs=0.5)

    def test_saturated_points_are_excluded(self):
        full = np.zeros(256, dtype=complex)
        full[[0, 1, -1]] = [0.9, 0.3, 0.3]
        full /= np.linalg.norm(full)
        g = GridFunction.from_samples(reconstruct(full))
        with pytest.raises(InsufficientPoints):
            decay_slope(g, range(2, 8))  # everything saturates at ~0


# Fills whose squared norm is NaN, infinite or overflows a float
UNNORMED_FILLS = [np.inf, 1e300, 1e300 + 1e300j, complex(0, np.nan)]


class TestGridFunctionValidation:
    @pytest.mark.parametrize("dims, shape", [(1, (8,)), (2, (4, 8)), (2, (4,))])
    def test_shape_enforced(self, dims, shape):
        with pytest.raises(DimensionMismatch):
            GridFunction(dims, 2, np.full(shape, 1 / math.sqrt(np.prod(shape))))

    def test_nan_samples_fail_the_norm_check(self):
        with pytest.raises(NonUnitNorm):
            GridFunction(1, 2, np.full(4, np.nan))

    @pytest.mark.parametrize("fill", UNNORMED_FILLS)
    def test_infinite_or_overflowing_samples_fail_the_norm_check(self, fill):
        with pytest.raises(NonUnitNorm, match="grid samples are not unit-norm"):
            GridFunction(1, 2, np.full(4, fill))

    def test_every_grid_passes_the_constructor_check(self):
        # ``spectrum`` relies on this check: ``replace`` runs it, and the samples are read-only
        g = GridFunction.from_samples(np.ones(4))
        for samples in (g.samples * 2, g.samples * np.nan):
            with pytest.raises(NonUnitNorm, match="grid samples are not unit-norm"):
                dataclasses.replace(g, samples=samples)
        with pytest.raises(ValueError, match="read-only"):
            g.samples[0] = 1.0

    @pytest.mark.parametrize("fill, why", [(0.0, "all-zero"), (1e300, "overflows")])
    def test_from_samples_rejects_a_norm_it_cannot_divide_by(self, fill, why):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and says so without a numpy warning
            with pytest.raises(NonUnitNorm, match=why):
                GridFunction.from_samples(np.full(4, fill))

    def test_a_sum_that_overflows_only_across_chunks_fails_the_norm_check(self):
        # each chunk of squares sums to about 1e308; their total overflows
        value = math.sqrt(1e308 / fourier._SUM_CHUNK)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonUnitNorm, match="grid samples are not unit-norm"):
                GridFunction(1, 17, np.full(2**17, value))

    @given(st.integers(0, 2**31 - 1), st.integers(0, 14), st.sampled_from([1, 2]),
           st.booleans(), st.floats(-150, 150))
    @settings(max_examples=60, deadline=None)
    def test_from_samples_passes_its_own_constructor(self, seed, bits, dims, complex_, scale):
        rng = np.random.default_rng(seed)
        n = bits // dims
        s = rng.standard_normal((2**n,) * dims)
        if complex_:
            s = s + 1j * rng.standard_normal(s.shape)
        g = GridFunction.from_samples(s * 10.0**scale)  # runs the constructor's check
        assert g.samples.shape == s.shape and g.samples.dtype == s.dtype


class TestFourierSpecValidation:
    def test_unit_norm_enforced(self):
        with pytest.raises(NonUnitNorm):
            FourierSpec(1, 1, np.array([1.0, 1.0, 1.0]), 1.0)

    def test_nan_coefficients_fail_the_norm_check(self):
        with pytest.raises(NonUnitNorm):
            FourierSpec(1, 1, np.full(3, np.nan), 1.0)

    @pytest.mark.parametrize("fill", UNNORMED_FILLS)
    def test_infinite_or_overflowing_coefficients_fail_the_norm_check(self, fill):
        with pytest.raises(NonUnitNorm, match="windowed coefficients are not unit-norm"):
            FourierSpec(1, 1, np.full(3, fill), 1.0)

    def test_window_shape_enforced(self):
        with pytest.raises(DimensionMismatch):
            FourierSpec(1, 2, np.array([1.0]), 1.0)

    @pytest.mark.parametrize("dims", [1, 2])
    def test_embed_rejects_a_side_too_small_for_the_window(self, dims):
        spec = FourierSpec(dims, 2, np.full((7,) * dims, 7 ** (-dims / 2)), 1.0)
        assert spec.embed(8).shape == (8,) * dims
        for side in (4, 2):  # on 4 points k = 3 and k = -1 would share index 3
            with pytest.raises(ValueError, match="need m < n, got m=2"):
                spec.embed(side)
