"""FRQI image loading: target construction, phase spectra, compiles, and PGM IO."""
import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import reduced_density_matrix, write_pgm
from fsl import fourier, frqi
from fsl.compiler import FSLPlan, Loader
from fsl.errors import CapacityExceeded, InvalidImage
from fsl.fourier import GridFunction
from fsl.frqi import (GrayImage, compile_frqi, frqi_target, frqi_truncated_target,
                      phase_spectra, read_pgm, window_capture)
from fsl.simulator import fidelity, run


def random_image(rng, n):
    return GrayImage(2**n, rng.random((2**n, 2**n)))


def smooth_image(n, amplitude=0.18):
    """Brightness built from a couple of low harmonics; the corresponding
    phase function is band-limited to numerical precision."""
    x = np.arange(2**n) / 2**n
    field = 0.5 + amplitude * np.cos(2 * np.pi * x)[:, None] \
        + 0.6 * amplitude * np.sin(2 * np.pi * x)[None, :]
    return GrayImage(2**n, field)


class TestFrqiTarget:
    def test_black_image(self):
        img = GrayImage(4, np.zeros((4, 4)))
        t = frqi_target(img)
        want = np.concatenate([np.full(16, 0.25), np.zeros(16)])
        assert np.allclose(t.amplitudes, want)

    def test_white_image(self):
        img = GrayImage(4, np.ones((4, 4)))
        t = frqi_target(img)
        want = np.concatenate([np.zeros(16), np.full(16, 0.25)])
        assert np.max(np.abs(t.amplitudes - want)) < 1e-15

    def test_random_image_construction_oracle(self, rng):
        img = random_image(rng, 2)
        t = frqi_target(img).amplitudes
        assert abs(np.sum(np.abs(t) ** 2) - 1.0) < 1e-12
        for j in range(4):
            for k in range(4):
                pos = 4 * j + k
                angle = np.pi * img.brightness[j, k] / 2
                assert t[pos] == pytest.approx(math.cos(angle) / 4)
                assert t[16 + pos] == pytest.approx(math.sin(angle) / 4)

    @pytest.mark.parametrize("target", [frqi_target, lambda img: frqi_truncated_target(img, 1)],
                             ids=["exact", "truncated"])
    def test_targets_hold_real_amplitudes(self, rng, target):
        assert target(random_image(rng, 3)).amplitudes.dtype == np.float64

    def test_brightness_clamped(self):
        img = GrayImage(2, np.array([[2.0, -1.0], [0.5, 0.25]]))
        assert img.brightness[0, 0] == 1.0
        assert img.brightness[0, 1] == 0.0


class TestPhaseSpectra:
    def test_constant_image_is_pure_dc(self):
        img = GrayImage(8, np.full((8, 8), 0.4))
        vec = phase_spectra(img, 1).reshape(2, 4, 4)
        assert abs(vec[0, 0, 0]) == pytest.approx(1 / math.sqrt(2))
        assert abs(vec[1, 0, 0]) == pytest.approx(1 / math.sqrt(2))
        assert vec[1, 0, 0] == pytest.approx(np.conj(vec[0, 0, 0]))
        mass = np.sum(np.abs(vec) ** 2)
        assert mass == pytest.approx(1.0)

    def test_conjugation_symmetry_against_direct_dft(self, rng):
        for n, m in [(2, 1), (3, 1), (3, 2), (4, 2)]:
            img = random_image(rng, n)
            g_minus = np.exp(0.5j * np.pi * img.brightness) / img.side
            c_minus_direct = fourier.dft_coefficients(fourier.GridFunction(2, n, g_minus))
            want = fourier.truncate(c_minus_direct, m).wrapped_vector() / math.sqrt(2)
            got = phase_spectra(img, m).reshape(2, -1)[1]
            assert np.max(np.abs(got - want)) < 1e-14, (n, m)

    def test_plus_branch_matches_brute_force_2d_dft(self, rng):
        img = random_image(rng, 3)  # 8x8
        m = 2
        vec = phase_spectra(img, m).reshape(2, 8, 8)
        g_plus = np.exp(-0.5j * np.pi * img.brightness) / img.side
        size = img.side
        norm = 0.0
        brute = {}
        for p in range(-3, 4):
            for q in range(-3, 4):
                acc = 0.0
                for j in range(size):
                    for k in range(size):
                        acc += g_plus[j, k] * np.exp(2j * np.pi * (p * j + q * k) / size)
                brute[(p, q)] = acc / size
                norm += abs(acc / size) ** 2
        scale = math.sqrt(2 * norm)
        for (p, q), want in brute.items():
            got = vec[0, p % 8, q % 8] if abs(p) != 4 and abs(q) != 4 else None
            assert got == pytest.approx(want / scale, abs=1e-12), (p, q)

    def test_window_capture_is_direct_window_mass(self, rng):
        img = random_image(rng, 4)
        g_plus = np.exp(-0.5j * np.pi * img.brightness) / img.side
        full = fourier.dft_coefficients(fourier.GridFunction(2, 4, g_plus))
        for m in range(1, 4):
            assert window_capture(img, m) == pytest.approx(fourier.window_mass(full, m), abs=1e-14)

    def test_window_capture_monotone(self, rng):
        img = random_image(rng, 4)
        masses = [window_capture(img, m) for m in range(1, 4)]
        assert all(b >= a - 1e-15 for a, b in zip(masses, masses[1:]))


def two_spectrum_target(img, m):
    """The truncated FRQI state built the long way: separate DFTs of g+ and g-,
    each window embedded in the full spectrum and reconstructed, then combined
    in the |+i>, |-i> colour basis."""
    n, size = img.n, img.side
    sel = np.arange(-(2**m - 1), 2**m) % size
    halves = []
    for sign in (-1, 1):
        g = np.exp(sign * 0.5j * np.pi * img.brightness) / size
        full = fourier.dft_coefficients(fourier.GridFunction(2, n, g))
        kept = np.zeros_like(full)
        kept[np.ix_(sel, sel)] = full[np.ix_(sel, sel)]
        halves.append(fourier.reconstruct(kept).reshape(-1))
    gp, gm = halves
    amps = np.concatenate([(gp + gm) / 2.0, 0.5j * (gp - gm)])
    return amps / np.linalg.norm(amps)


class TestComplexPhaseGrid:
    def test_spectrum_and_target_take_the_complex_transforms(self):
        """g+ is complex, so its window is the complex grid's spectrum, which
        agrees with ifftn's to rounding, and its target is ``reconstruct``'s,
        bit for bit."""
        pixels = ((np.arange(1024) * 37 + 11) % 256).reshape(32, 32) / 255
        img, m = GrayImage(32, pixels), 2
        g_plus = np.exp(-0.5j * np.pi * img.brightness) / img.side
        spec = fourier.truncate(fourier.spectrum(GridFunction._adopt(g_plus.copy()), m), m)
        assert np.array_equal(frqi._phase_spec(img, m).coeffs, spec.coeffs)
        full = fourier.truncate(np.fft.ifftn(g_plus) * img.side, m)  # 2^(Dn/2) = side
        assert np.max(np.abs(spec.coeffs - full.coeffs)) < 1e-15
        t = fourier.reconstruct(spec.embed(img.side)).reshape(-1)
        t /= math.sqrt(fourier._sum_of_squares(t))
        want = np.concatenate([t.real, -t.imag])
        assert np.array_equal(frqi_truncated_target(img, m).amplitudes,
                              want / math.sqrt(fourier._sum_of_squares(want)))


class TestTruncatedTarget:
    @pytest.mark.parametrize("n,m", [(1, 0), (2, 1), (3, 1), (3, 2), (4, 3), (5, 2)])
    def test_matches_two_spectrum_construction(self, rng, n, m):
        for _ in range(3):
            img = random_image(rng, n)
            got = frqi_truncated_target(img, m).amplitudes
            assert np.max(np.abs(got - two_spectrum_target(img, m))) < 1e-14


class TestCompileFrqi:
    @pytest.mark.parametrize("loader", [Loader.UCR, Loader.SCHMIDT])
    def test_matches_truncated_target_exactly(self, loader, rng):
        img = random_image(rng, 2)
        circ, report = compile_frqi(img, 1, FSLPlan(n=2, m=1, loader=loader))
        out = run(circ)
        assert fidelity(out, frqi_truncated_target(img, 1)) >= 1 - 1e-9
        full_fid = fidelity(out, frqi_target(img))
        assert 1 - full_fid == pytest.approx(report.exact_infidelity, abs=1e-9)

    def test_constant_image_loads_exactly(self):
        img = GrayImage(8, np.full((8, 8), 0.73))
        circ, report = compile_frqi(img, 1)
        assert report.exact_infidelity < 1e-12
        assert fidelity(run(circ), frqi_target(img)) >= 1 - 1e-10

    def test_band_limited_brightness_loads_with_tiny_infidelity(self):
        img = smooth_image(4)
        circ, report = compile_frqi(img, 3)
        assert report.exact_infidelity < 1e-8
        assert fidelity(run(circ), frqi_target(img)) >= 1 - 1e-8

    def test_infidelity_non_increasing_in_m(self, rng):
        img = random_image(rng, 4)
        eps = [1 - window_capture(img, m) for m in range(1, 4)]
        assert all(a >= b - 1e-15 for a, b in zip(eps, eps[1:]))

    def test_color_qubit_reduced_state_matches_target(self, rng):
        img = random_image(rng, 2)
        out = run(compile_frqi(img, 1)[0])
        want = frqi_truncated_target(img, 1)
        rho_got = reduced_density_matrix(out, (0,))
        rho_want = reduced_density_matrix(want, (0,))
        gap = np.linalg.eigvalsh(rho_got - rho_want)
        assert 0.5 * np.sum(np.abs(gap)) < 1e-9  # trace distance

    def test_capacity_guard(self, rng):
        img = random_image(rng, 3)
        with pytest.raises(CapacityExceeded):
            compile_frqi(img, 1, FSLPlan(n=3, m=1, max_qubits=5))


class TestGrayImageValidation:
    def test_brightness_of_another_shape_rejected(self):
        with pytest.raises(InvalidImage, match="expected 4x4, got"):
            GrayImage(4, np.zeros((4, 2)))


class TestPgm:
    def test_round_trip(self, rng, tmp_path):
        img = random_image(rng, 3)
        path = tmp_path / "img.pgm"
        write_pgm(path, img.brightness)
        back = read_pgm(path)
        assert back.side == img.side
        assert np.max(np.abs(back.brightness - img.brightness)) <= 0.5 / 255

    def test_header_comments_are_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        payload = bytes(range(16))
        path.write_bytes(b"P5\n# a comment\n4 4\n# another\n255\n" + payload)
        img = read_pgm(path)
        assert img.side == 4
        assert img.brightness[0, 1] == pytest.approx(1 / 255)

    def test_rejects_ascii_pgm(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2\n4 4\n255\n" + b"0 " * 16)
        with pytest.raises(InvalidImage):
            read_pgm(path)

    def test_rejects_non_square(self, tmp_path):
        path = tmp_path / "r.pgm"
        path.write_bytes(b"P5\n4 2\n255\n" + bytes(8))
        with pytest.raises(InvalidImage):
            read_pgm(path)

    def test_rejects_non_power_of_two(self, tmp_path):
        path = tmp_path / "p.pgm"
        path.write_bytes(b"P5\n3 3\n255\n" + bytes(9))
        with pytest.raises(InvalidImage):
            read_pgm(path)

    def test_long_header_whitespace_fails_fast(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P5" + b" " * 10_000 + b"#")
        t0 = time.perf_counter()
        with pytest.raises(InvalidImage):
            read_pgm(path)
        assert time.perf_counter() - t0 < 0.5

    def test_rejects_truncated_pixels(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
        with pytest.raises(InvalidImage):
            read_pgm(path)

    def test_rejects_non_integer_or_zero_sizes(self, tmp_path):
        path = tmp_path / "s.pgm"
        for header in (b"P5\nabc 4\n255\n", b"P5\n0 0\n255\n", b"P5\n4 4\n-255\n"):
            path.write_bytes(header + bytes(16))
            with pytest.raises(InvalidImage):
                read_pgm(path)

    def test_zero_side_image_rejected(self):
        with pytest.raises(InvalidImage):
            GrayImage(0, np.zeros((0, 0)))


_PGM_SEPARATORS = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"# note\n", b"", b"#"])
_PGM_TOKENS = st.one_of(st.sampled_from([b"P5", b"P2", b"0", b"1", b"2", b"4", b"255", b"-4",
                                         b"+4", b"4.0", b"1_6", b"abc", b"\xff"]),
                        st.integers(-3, 300).map(lambda v: str(v).encode()),
                        st.binary(min_size=1, max_size=4))


@st.composite
def _pgm_headers(draw):
    """A magic token and up to four more (sizes and maxval, often malformed)."""
    magic = draw(st.sampled_from([b"P5", b"P5", b"P2", b"P"]))
    tokens = [magic] + [draw(_PGM_TOKENS) for _ in range(draw(st.integers(0, 4)))]
    return b"".join(t + draw(_PGM_SEPARATORS) for t in tokens)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(st.binary(max_size=64), _pgm_headers()), st.binary(max_size=80))
def test_pgm_fuzz_returns_image_or_invalid_image(tmp_path_factory, header, payload):
    """Arbitrary header-like bytes give a GrayImage or raise InvalidImage, quickly."""
    path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
    path.write_bytes(header + payload)
    t0 = time.perf_counter()
    try:
        assert isinstance(read_pgm(path), GrayImage)
    except InvalidImage:
        pass
    assert time.perf_counter() - t0 < 0.5
