"""Builtin catalog parameters, grid sampling, sqrt mode, and expression mode.

``python tests/test_funcs.py`` prints the current tree's ``SAMPLE_DIGESTS``
through ``print_literal`` (see ``tests/test_cli_bytes.py``).
"""
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsl import funcs
from fsl.errors import ExpressionError, NegativeUnderSqrt, NonUnitNorm, UnknownFunction
from fsl.fourier import GridFunction
from test_cli_bytes import RECORDED_NUMPY, print_literal


class TestCatalogParameters:
    def test_bimodal_gaussian_fixed_parameters(self):
        fd = funcs.builtin("bimodal_gaussian")
        assert fd.parameters == {"lam": 0.3, "sigma": 0.1}

    def test_lognormal_fixed_parameters(self):
        assert funcs.builtin("lognormal").parameters == {"q": 0.2, "sigma": 0.5}

    def test_lorentzian_fixed_parameter(self):
        assert funcs.builtin("lorentzian").parameters == {"sigma": 0.1}

    def test_spiky_fixed_parameter(self):
        assert funcs.builtin("spiky").parameters == {"lam": 2.5}

    def test_gaussian2d_fixed_parameters(self):
        p = funcs.builtin("gaussian2d").parameters
        assert p["mu1"] == 0.65 and p["mu2"] == 0.35 and p["lam"] == 0.5
        assert p["sigma11"] == pytest.approx(math.sqrt(1 / 50))
        assert p["sigma12"] == pytest.approx(math.sqrt(1 / 40))
        assert p["sigma21"] == pytest.approx(math.sqrt(1 / 30))
        assert p["sigma22"] == pytest.approx(math.sqrt(1 / 50))

    def test_constant_is_one_before_normalization(self):
        fd = funcs.builtin("constant")
        assert np.all(fd.evaluate(np.linspace(0, 0.9, 7)) == 1.0)

    def test_unknown_name(self):
        with pytest.raises(UnknownFunction):
            funcs.builtin("does_not_exist")

    def test_parameter_override(self):
        fd = funcs.builtin("sinc", {"a": 8})
        assert fd.parameters["a"] == 8.0

    def test_unknown_parameter_rejected(self):
        with pytest.raises(UnknownFunction):
            funcs.builtin("sinc", {"width": 8})


class TestSampling:
    def test_constant_gives_uniform_amplitudes(self):
        g = funcs.sample(funcs.builtin("constant"), 3)
        assert np.allclose(g.samples, np.full(8, 2 ** -1.5))

    def test_cosine_expression_matches_direct_evaluation(self):
        fd = funcs.expression("cos(2*pi*x)")
        g = funcs.sample(fd, 4)
        x = np.arange(16) / 16
        want = np.cos(2 * np.pi * x)
        want = want / np.linalg.norm(want)
        assert np.max(np.abs(g.samples - want)) < 1e-15

    def test_all_builtins_sample_unit_norm(self):
        for name in funcs.CATALOG_NAMES:
            fd = funcs.builtin(name)
            g = funcs.sample(fd, 4 if fd.dims == 1 else 3)
            assert abs(np.sum(np.abs(g.samples) ** 2) - 1.0) < 1e-12, name

    def test_xpowx_limit_at_zero(self):
        fd = funcs.builtin("xpowx")
        vals = fd.evaluate(np.array([0.0, 0.5, 1.0 - 2**-20]))
        assert vals[0] == 1.0
        assert np.all(np.isfinite(vals))

    def test_lognormal_sqrt_mode_squares_back_to_shape(self):
        fd = funcs.builtin("lognormal", sqrt_mode=True)
        g = funcs.sample(fd, 6)
        squared = np.abs(g.samples) ** 2
        shape = funcs.builtin("lognormal").evaluate(np.arange(64) / 64)
        shape = shape / shape.sum()
        mask = shape > 1e-12
        assert np.max(np.abs(squared[mask] / shape[mask] - 1.0)) < 1e-12

    def test_sqrt_mode_rejects_negative_functions(self):
        fd = funcs.builtin("qho_excited", sqrt_mode=True)
        with pytest.raises(NegativeUnderSqrt):
            funcs.sample(fd, 5)

    @pytest.mark.parametrize("expr, error", [("log(x)", ValueError), ("1/x", ValueError),
                                             ("exp(1000*x)", ValueError),
                                             ("exp(700*x)", NonUnitNorm)])
    def test_non_finite_values_raise_without_numpy_warnings(self, expr, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match="not finite|overflows"):
                funcs.sample(funcs.expression(expr), 5)

    def test_sqrt_mode_rejects_complex_functions(self):
        fd = funcs.builtin("complex_cosines", sqrt_mode=True)
        with pytest.raises(NegativeUnderSqrt, match="real-valued"):
            funcs.sample(fd, 4)

    @pytest.mark.parametrize("n", [0, -1])
    def test_grid_of_no_wire_rejected(self, n):
        with pytest.raises(ValueError, match="need n >= 1"):
            funcs.sample(funcs.builtin("constant"), n)

    def test_sqrt_mode_clamps_tiny_negatives(self):
        fd = funcs.expression("cos(2*pi*x) + 1 - 1e-13", sqrt_mode=True)
        g = funcs.sample(fd, 4)
        assert np.all(np.isfinite(g.samples))

    def test_spiky_sqrt_mode_uses_signed_amplitude(self):
        fd = funcs.builtin("spiky", sqrt_mode=True)
        g = funcs.sample(fd, 5)
        assert np.min(g.samples.real) < 0  # signed, not |.|
        probs = np.abs(g.samples) ** 2
        f = funcs.builtin("spiky").evaluate(np.arange(32) / 32)
        assert np.max(np.abs(probs - f / f.sum())) < 1e-14

    @pytest.mark.parametrize("n", [5, 12])
    def test_spiky_grid_is_its_amplitude_squared_bit_for_bit(self, n):
        # spiky squares its signed amplitude; the grid is the one its own formula gave
        x = np.arange(2**n) / 2**n
        values = (np.cos(4 * np.pi * x) + 2.5 * np.cos(20 * np.pi * x)) ** 2
        assert np.array_equal(funcs.builtin("spiky").evaluate(x), values)
        got = funcs.sample(funcs.builtin("spiky"), n).samples
        assert got.tobytes() == GridFunction.from_samples(values).samples.tobytes()

    def test_2d_sampling_orientation(self):
        fd = funcs.expression("x + 10*y", dims=2)
        g = funcs.sample(fd, 2)
        # samples[j, k] corresponds to x = j/4, y = k/4
        raw = np.add.outer(np.arange(4) / 4, 10 * np.arange(4) / 4)
        assert np.allclose(g.samples, raw / np.linalg.norm(raw))

    @pytest.mark.parametrize("fd", [
        *(funcs.builtin(name) for name in funcs.CATALOG_NAMES if name != "complex_cosines"),
        funcs.expression("sin(2*pi*x) + 0.5*x^2 + exp(-x)"),
        funcs.expression("x + 10*y", dims=2),
        funcs.builtin("lognormal", sqrt_mode=True),
        funcs.builtin("spiky", sqrt_mode=True),
    ], ids=lambda fd: fd.name + (" sqrt" if fd.sqrt_mode else ""))
    def test_real_function_samples_float64(self, fd):
        assert funcs.sample(fd, 4 if fd.dims == 1 else 3).samples.dtype == np.float64

    def test_2d_evaluators_see_broadcast_axes(self):
        shapes = []
        fd = funcs.FunctionDef("spy", 2, lambda x, y: shapes.append((x.shape, y.shape)) or x * y)
        funcs.sample(fd, 3)
        assert shapes == [((8, 1), (1, 8))]

    @pytest.mark.parametrize("expr", ["x", "exp(-y) + 1", "2", "sin(x)*cos(y) + 2"])
    def test_2d_samples_equal_a_dense_evaluation(self, expr):
        fd = funcs.expression(expr, dims=2)
        dense = np.meshgrid(np.arange(16) / 16, np.arange(16) / 16, indexing="ij")
        raw = np.broadcast_to(fd.evaluate(*dense), (16, 16))
        got = funcs.sample(fd, 4).samples
        assert got.flags.c_contiguous and got.shape == (16, 16)
        assert np.array_equal(got, raw / np.linalg.norm(raw))

    def test_2d_checks_run_before_broadcasting(self, monkeypatch):
        seen = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda v: seen.append(np.shape(v)) or isfinite(v))
        funcs.sample(funcs.expression("exp(-x)", dims=2), 5)
        assert seen == [(32, 1)]
        with pytest.raises(NegativeUnderSqrt, match="-1"):
            funcs.sample(funcs.expression("y - 1", dims=2, sqrt_mode=True), 5)

    def test_complex_function_samples_complex128(self):
        g = funcs.sample(funcs.builtin("complex_cosines"), 4)
        assert g.samples.dtype == np.complex128

    def test_tanh_default_is_shifted_positive(self):
        vals = funcs.builtin("tanh").evaluate(np.arange(32) / 32)
        assert np.all(vals.real > 0)


# SHA-256 of ``sample``'s bytes: every catalog builtin (1-D at n=16, 2-D at
# n=8) and sqrt mode with a computed square root and with a signed amplitude
SAMPLE_DIGESTS = {
    "bimodal_gaussian-n16": "c4ae9eb050ba3da816dfa0d8549cca710cf83fbfc62fec7250ae7c71989ff9a1",
    "bimodal_gaussian-sqrt-n16": "7ea94e00d88273d68c9f6059b8888c12fd28aac09f2750d0b4e4e49a3bc9c764",
    "complex_cosines-n16": "23653b1d79cc993ff9b357bbcca9992ec575bc14603b7e5caa6d4de2688f79cd",
    "constant-n16": "9d4ade33b4e77e27774a7dc23246a646ee2640a796a540ca14810e688581f668",
    "gaussian2d-n8": "1817115a280dfbd4c5880a7ca6206a9d0a68da04ce5a832c6904cfd49f4d9003",
    "gaussian2d-sqrt-n8": "2bb2ea4fe468c691610afc993fcc0da74dee03f9f92191c7ebbe15ccc9129d76",
    "lognormal-n16": "3383fe2359734eb8dcdba3a0a4a86dcc159e25d2e7124c48a73d0346a59fe37b",
    "lognormal-sqrt-n16": "7d5a6c6ee54ce57232f1d6741269847d763f691908c5dc7ced7855f5109a0241",
    "lorentzian-n16": "d1460a7db47466c1dca177c49ffd224d813d490f5a15e1566df3c0a356a2958b",
    "piecewise-n16": "8dcbc1c7dfb88473f2b883a208ebc93486d3df68791e6818402eb9704be00b31",
    "qho_excited-n16": "2bcf804dbb05f44fe11c923316c6441ff54cf414f945dd2d355b6669cf33ae63",
    "reflected_put-n16": "effb65f489faa2f97718565bf95917b242d691adadcb82706e743c24f95c04a1",
    "sinc-n16": "85d45ef8ffcb75b470884e769c514c256b7391510acae655cca1255bd72fa477",
    "sinc2d-n8": "41b791d8f5cb5ca748ee53fa46dc80a57ee527c0040bfdadcd0e537efbbd14ab",
    "spiky-n16": "7ae03870d49af31554e66d3606ce69cb7ebc52acdeadaf82029c8c635ef1e75b",
    "spiky-sqrt-n16": "18c1fd7f24ad294232c1ac2efc66b1fc38774c2531e7992a691a8b586e1f4cb5",
    "tanh-n16": "cbad7a8315ada1958e4d90147d2cd2949f832de9a41a7b0d2bb7b01aec4e9eb9",
    "xpowx-n16": "18b88c904de44fb1314c3118434b15d2aa7ca3fe183f113bd4b33d6c8f64fd20",
}


def _sample_case(key: str) -> tuple[funcs.FunctionDef, int]:
    """The function and n of a ``SAMPLE_DIGESTS`` key, ``name[-sqrt]-n<n>``."""
    name, _, n = key.rpartition("-n")
    sqrt = name.endswith("-sqrt")
    return funcs.builtin(name.removesuffix("-sqrt"), sqrt_mode=sqrt), int(n)


def _sample_digest(key: str) -> str:
    return hashlib.sha256(funcs.sample(*_sample_case(key)).samples.tobytes()).hexdigest()


def _one_shot(fd: funcs.FunctionDef, n: int) -> np.ndarray:
    """The grid evaluated in one call over the whole (2^n)^D grid and normalized."""
    coords = np.meshgrid(*([np.arange(2**n) / 2**n] * fd.dims), indexing="ij", sparse=True)
    with np.errstate(all="ignore"):
        if fd.sqrt_mode and fd.sqrt_evaluator is not None:
            values = np.asarray(fd.sqrt_evaluator(*coords))
        elif fd.sqrt_mode:
            values = np.sqrt(np.clip(fd.evaluate(*coords), 0.0, None))
        else:
            values = np.asarray(fd.evaluate(*coords))
    grid = np.ascontiguousarray(np.broadcast_to(values, (2**n,) * fd.dims))
    return GridFunction.from_samples(grid).samples


def _late(value, at: float = 0.9):
    """An evaluator that is 1 below ``at`` and ``value`` from there: past the
    first chunk on any grid of four chunks or more."""
    return lambda x: np.where(x < at, 1.0, value)


def _complex_from(at: float = 0.9):
    """x + i [x >= at]: real values, as float64, on a chunk wholly below ``at``."""
    return lambda x: x + 1j * (x >= at) if np.any(x >= at) else x


_CHUNK_BITS = funcs._CHUNK.bit_length() - 1


class TestChunkedSampling:
    """``sample`` evaluates a chunk of the grid at a time into one buffer; every
    sample keeps the bits of one evaluation over the whole grid."""

    @pytest.mark.skipif(np.__version__ != RECORDED_NUMPY,
                        reason=f"digests were recorded under numpy {RECORDED_NUMPY}")
    @pytest.mark.parametrize("key", sorted(SAMPLE_DIGESTS))
    def test_samples_match_recorded_digest(self, key):
        assert _sample_digest(key) == SAMPLE_DIGESTS[key]

    @pytest.mark.parametrize("fd", [
        funcs.builtin("piecewise"), funcs.builtin("sinc"), funcs.builtin("complex_cosines"),
        funcs.builtin("lognormal", sqrt_mode=True), funcs.builtin("spiky", sqrt_mode=True),
        funcs.expression("sin(2*pi*x) + 0.5*x^2 + exp(-x)"),
    ], ids=lambda fd: fd.name + (" sqrt" if fd.sqrt_mode else ""))
    @pytest.mark.parametrize("extra", [-1, 0, 2], ids=["below", "one", "above"])
    def test_one_dimensional_grid_equals_one_shot_evaluation(self, fd, extra):
        n = _CHUNK_BITS + extra  # a grid smaller than, equal to and four times one chunk
        assert funcs.sample(fd, n).samples.tobytes() == _one_shot(fd, n).tobytes()

    @pytest.mark.parametrize("fd", [
        funcs.builtin("sinc2d"), funcs.builtin("gaussian2d", sqrt_mode=True),
        funcs.expression("exp(-y) + 1", dims=2), funcs.expression("2", dims=2),
    ], ids=lambda fd: fd.name + (" sqrt" if fd.sqrt_mode else ""))
    def test_two_dimensional_grid_of_several_rows_per_chunk_equals_one_shot(self, fd):
        n = _CHUNK_BITS // 2 + 2  # a chunk holds 2^(n - 4) rows of 2^n points
        assert 1 < funcs._CHUNK // 2**n < 2**n
        assert funcs.sample(fd, n).samples.tobytes() == _one_shot(fd, n).tobytes()

    def test_a_product_evaluates_each_factor_once_on_its_whole_axis(self):
        fd = funcs.builtin("sinc2d")
        seen = []
        fd.evaluator.factors = tuple(lambda x, f=f: seen.append(x.shape) or f(x)
                                     for f in fd.evaluator.factors)
        n = _CHUNK_BITS // 2 + 2  # several chunks on the chunked path
        assert funcs.sample(fd, n).samples.tobytes() == _one_shot(fd, n).tobytes()
        assert seen == [(2**n,), (2**n,)]

    def test_complex_values_in_a_late_chunk_make_the_grid_complex(self):
        fd = funcs.FunctionDef("late-complex", 1, _complex_from())
        n = _CHUNK_BITS + 2
        assert fd.evaluate(np.arange(funcs._CHUNK) / 2**n).dtype == np.float64  # the first chunk
        got = funcs.sample(fd, n).samples
        assert got.dtype == np.complex128 and got.tobytes() == _one_shot(fd, n).tobytes()

    def test_nan_in_the_last_chunk_fails_the_finiteness_check(self):
        with pytest.raises(ValueError, match="late-nan is not finite on the grid"):
            funcs.sample(funcs.FunctionDef("late-nan", 1, _late(np.nan)), _CHUNK_BITS + 2)

    def test_complex_value_in_the_last_chunk_fails_sqrt_mode(self):
        fd = funcs.FunctionDef("late-complex", 1, _complex_from(), sqrt_mode=True)
        with pytest.raises(NegativeUnderSqrt, match="real-valued"):
            funcs.sample(fd, _CHUNK_BITS + 2)

    def test_sqrt_mode_names_the_minimum_of_the_whole_grid(self):
        # -0.25 in the first chunk, -0.5 in the last: the message gives the global minimum
        fd = funcs.FunctionDef("late-negative", 1, lambda x: np.where(
            x < 0.1, -0.25, np.where(x < 0.9, 1.0, -0.5)), sqrt_mode=True)
        with pytest.raises(NegativeUnderSqrt, match="f reaches -0.5 < -1e-12"):
            funcs.sample(fd, _CHUNK_BITS + 2)

    def test_negative_infinity_fails_sqrt_mode_before_the_finiteness_check(self):
        fd = funcs.FunctionDef("late-minus-inf", 1, _late(-np.inf), sqrt_mode=True)
        with pytest.raises(NegativeUnderSqrt, match="f reaches -inf"):
            funcs.sample(fd, _CHUNK_BITS + 2)

    @pytest.mark.parametrize("name", funcs.CATALOG_NAMES)
    def test_peak_memory_stays_near_one_grid_buffer(self, name):
        fd = funcs.builtin(name)
        n = 18 if fd.dims == 1 else 9  # 2^18 points either way
        funcs.sample(fd, n)
        tracemalloc.start()
        try:
            g = funcs.sample(fd, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * g.samples.nbytes


class TestExpressionMode:
    def test_caret_is_tight_binding_power(self):
        fd = funcs.expression("x^2 * exp(-x)")
        x = np.array([0.25, 0.5])
        assert np.allclose(fd.evaluate(x), x**2 * np.exp(-x))

    def test_sinc_semantics(self):
        fd = funcs.expression("sinc(pi*x)")
        x = np.array([0.5])
        assert fd.evaluate(x)[0] == pytest.approx(math.sin(math.pi * 0.5) / (math.pi * 0.5))

    @pytest.mark.parametrize("expr", ["sin(x, x)", "exp()"])
    def test_calls_take_one_argument(self, expr):
        with pytest.raises(ExpressionError, match="exactly one positional argument"):
            funcs.expression(expr)

    def test_constants(self):
        fd = funcs.expression("e + 0*x")
        assert fd.evaluate(np.array([0.3]))[0] == pytest.approx(math.e)

    def test_rejects_unknown_names(self):
        with pytest.raises(ExpressionError):
            funcs.expression("__import__('os')")
        with pytest.raises(ExpressionError):
            funcs.expression("open(x)")
        with pytest.raises(ExpressionError):
            funcs.expression("y + 1", dims=1)

    def test_rejects_attributes_and_subscripts(self):
        with pytest.raises(ExpressionError):
            funcs.expression("x.real")
        with pytest.raises(ExpressionError):
            funcs.expression("x[0]")

    def test_rejects_malformed_syntax(self):
        with pytest.raises(ExpressionError):
            funcs.expression("x +")

    def test_rejects_bare_function_names_and_bad_operators(self):
        for bad in ("sin + x", "sin(x) + cos", "x @ x", "~x", "x < 1"):
            with pytest.raises(ExpressionError):
                funcs.expression(bad)

    @pytest.mark.parametrize("bad", [
        "x+" + "1" * 400,  # integer literal too large for a float
        "x" + "+x" * 2000,  # too deep for the compiler
        "-" * 1000 + "x",  # too deep for the parser
        "-" * 20000 + "x",  # parser runs out of memory
    ], ids=["huge-literal", "long-sum", "deep-minus", "deeper-minus"])
    def test_pathological_strings_raise_expression_error(self, bad):
        with pytest.raises(ExpressionError):
            funcs.expression(bad)

    def test_two_variable_expression(self):
        fd = funcs.expression("sin(2*pi*x) * cos(2*pi*y)", dims=2)
        assert fd.dims == 2
        out = fd.evaluate(np.array([[0.25]]), np.array([[0.5]]))
        assert out[0, 0] == pytest.approx(-1.0)


_EXPR_ALPHABET = "xy0123456789.e+-*/^() ,sincotaexplgbhrj[]_:'"


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(max_size=60), st.text(alphabet=_EXPR_ALPHABET, max_size=60)),
       st.sampled_from([1, 2]))
def test_expression_fuzz_returns_function_or_expression_error(text, dims):
    try:
        fd = funcs.expression(text, dims=dims)
    except ExpressionError:
        return
    assert isinstance(fd, funcs.FunctionDef)


if __name__ == "__main__":
    print_literal("SAMPLE_DIGESTS", {key: _sample_digest(key) for key in SAMPLE_DIGESTS})
