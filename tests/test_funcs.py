"""Builtin catalog parameters, grid sampling, sqrt mode, and expression mode."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsl import funcs
from fsl.errors import ExpressionError, NegativeUnderSqrt, NonUnitNorm, UnknownFunction
from fsl.fourier import GridFunction


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
