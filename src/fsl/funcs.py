"""Builtin target functions, grid sampling, and expression-mode evaluation.

Catalog entries with canonical parameter values keep them fixed; the remaining
knobs (sinc width, put strike, oscillator width, tanh slope, the piecewise
segment table) are documented defaults chosen so the truncation-error targets
in the acceptance suite hold.  All evaluators are elementwise numpy
expressions, so they take broadcast axes as well as full grids; ``sample``
relies on that to evaluate a grid a chunk at a time, and a chunk's samples are
then the bits the whole grid's evaluation would give.
"""
from __future__ import annotations

import ast
import math
import reprlib
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ExpressionError, NegativeUnderSqrt, UnknownFunction
from .fourier import GridFunction, _unit


@dataclass(frozen=True)
class FunctionDef:
    """A target function: evaluator over [0,1)^D plus sampling options.

    ``sqrt_mode`` samples an amplitude whose squared magnitude is proportional
    to f (used when only measurement probabilities should match f).  Functions
    with a known signed amplitude provide ``sqrt_evaluator`` directly;
    otherwise the square root of f is taken pointwise.
    """

    name: str
    dims: int
    evaluator: object
    parameters: dict = field(default_factory=dict)
    sqrt_mode: bool = False
    sqrt_evaluator: object = None

    def evaluate(self, *coords):
        return self.evaluator(*coords)


def _bimodal(p):
    lam, sig = p["lam"], p["sigma"]
    return lambda x: (1 - lam) * np.exp(-((x - 0.25) ** 2) / (2 * sig**2)) \
        + lam * np.exp(-((x - 0.75) ** 2) / (2 * sig**2))


def _lognormal(p):
    q, sig = p["q"], p["sigma"]

    def f(x):
        safe = np.where(x == 0, 1.0, x)
        return np.where(x == 0, 0.0, np.exp(-np.log(safe / q) ** 2 / (2 * sig**2)) / safe)

    return f


def _lorentzian(p):
    sig = p["sigma"]
    return lambda x: 1.0 / (1.0 + (x - 0.5) ** 2 / sig**2)


def _spiky(p):
    return lambda x: _spiky_amplitude(p)(x) ** 2


def _spiky_amplitude(p):
    lam = p["lam"]
    return lambda x: np.cos(4 * np.pi * x) + lam * np.cos(20 * np.pi * x)


def _xpowx(_p):
    return lambda x: np.where(x == 0, 1.0, np.power(np.where(x == 0, 1.0, x), x))


def _sinc(p):
    a = p["a"]
    return lambda x: np.sinc(a * (x - 0.5))


def _sinc2d(p):
    sinc = _sinc(p)
    f = lambda x, y: sinc(x) * sinc(y)  # noqa: E731
    f.factors = (sinc, sinc)  # ``sample`` evaluates each once, on its whole axis
    return f


def _reflected_put(p):
    k = p["strike"]
    return lambda x: np.where(x <= 0.5, np.maximum(k - x, 0.0), np.maximum(k - (1.0 - x), 0.0))


def _qho_excited(p):
    sig = p["sigma"]
    return lambda x: (x - 0.5) * np.exp(-((x - 0.5) ** 2) / (2 * sig**2))


def _tanh(p):
    b, c = p["b"], p["c"]
    return lambda x: np.tanh(b * (x - 0.5)) + c


def _piecewise(_p):
    # Fixed three-segment profile: a high plateau, an upward ramp, a middle
    # plateau; jumps at 1/4, 5/8, and the periodic wrap.
    def f(x):
        ramp = 0.25 + (x - 0.25) * (0.5 / 0.375)
        return np.where(x < 0.25, 1.0, np.where(x < 0.625, ramp, 0.5))

    return f


def _gaussian2d(p):
    m1, m2, lam = p["mu1"], p["mu2"], p["lam"]
    s11, s12, s21, s22 = p["sigma11"], p["sigma12"], p["sigma21"], p["sigma22"]
    return lambda x, y: np.exp(-((x - m1) ** 2) / s11**2 - ((y - m1) ** 2) / s12**2) \
        + lam * np.exp(-((x - m2) ** 2) / s21**2 - ((y - m2) ** 2) / s22**2)


def _complex_cosines(_p):
    return lambda x: (np.cos(2 * np.pi * x) - 1.5j * np.cos(6 * np.pi * x)) / math.sqrt(13)


def _constant(_p):
    return lambda *coords: np.ones_like(coords[0], dtype=float)


# name -> (dims, default parameters, factory, signed-amplitude factory or None)
_CATALOG = {
    "constant": (1, {}, _constant, None),
    "bimodal_gaussian": (1, {"lam": 0.3, "sigma": 0.1}, _bimodal, None),
    "lognormal": (1, {"q": 0.2, "sigma": 0.5}, _lognormal, None),
    "lorentzian": (1, {"sigma": 0.1}, _lorentzian, None),
    "spiky": (1, {"lam": 2.5}, _spiky, _spiky_amplitude),
    "xpowx": (1, {}, _xpowx, None),
    "sinc": (1, {"a": 21.0}, _sinc, None),
    "reflected_put": (1, {"strike": 0.3}, _reflected_put, None),
    "qho_excited": (1, {"sigma": 0.1}, _qho_excited, None),
    "tanh": (1, {"b": 5.0, "c": 1.0}, _tanh, None),
    "piecewise": (1, {}, _piecewise, None),
    "complex_cosines": (1, {}, _complex_cosines, None),
    "sinc2d": (2, {"a": 13.0}, _sinc2d, None),
    "gaussian2d": (2, {"mu1": 0.65, "mu2": 0.35, "lam": 0.5,
                       "sigma11": math.sqrt(1 / 50), "sigma12": math.sqrt(1 / 40),
                       "sigma21": math.sqrt(1 / 30), "sigma22": math.sqrt(1 / 50)}, _gaussian2d, None),
}

CATALOG_NAMES = tuple(sorted(_CATALOG))

# Functions whose domain is naturally non-periodic; the CLI loads these
# through the mirror extension unless told otherwise.
MIRROR_DEFAULT = frozenset({"tanh"})


def builtin(name: str, overrides: dict | None = None, sqrt_mode: bool = False) -> FunctionDef:
    """Look up a catalog function, optionally overriding named parameters."""
    if name not in _CATALOG:
        raise UnknownFunction(f"unknown function {name!r}; known: {', '.join(CATALOG_NAMES)}")
    dims, defaults, factory, sqrt_factory = _CATALOG[name]
    params = dict(defaults)
    if overrides:
        unknown = set(overrides) - set(defaults)
        if unknown:
            raise UnknownFunction(f"{name} has no parameter(s) {sorted(unknown)}")
        params.update({k: float(v) for k, v in overrides.items()})
    return FunctionDef(
        name=name, dims=dims, evaluator=factory(params), parameters=params,
        sqrt_mode=sqrt_mode,
        sqrt_evaluator=sqrt_factory(params) if sqrt_factory else None,
    )


_CHUNK = 1 << 13  # grid points per evaluator call in ``sample``


def sample(fdef: FunctionDef, n: int) -> GridFunction:
    """Evaluate on the (2^n)^D grid at coordinates k/2^n and normalize; real
    values stay real (float64 samples).

    The grid is evaluated a chunk of ``_CHUNK`` points at a time, a run of
    indices along the first axis, into one output buffer that is then
    normalized in place; so evaluators must be elementwise, and then every
    sample is the same bit for bit as one evaluation of the whole grid would
    give.  Each coordinate comes as a broadcast axis (the chunk's run along the
    first dimension, 2^n along its own otherwise, and 1 along the others), so
    a separable function evaluates each factor on few points, and one that
    ignores a coordinate returns fewer values than the chunk has; one with
    ``factors`` (one-axis functions whose product it is) skips the chunks.  A chunk
    decides the buffer's dtype: complex once any chunk is.  The finiteness
    check runs on each chunk's values as returned, before they are broadcast,
    and fails after the sqrt-mode minimum check, so -inf is named there.
    In sqrt mode the signed amplitude is used when the function provides one;
    otherwise values below -1e-12 anywhere on the grid raise and tiny
    negatives clamp to zero.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    side = 2**n
    rest = [np.arange(side) / side for _ in range(fdef.dims - 1)]  # the other axes, whole
    rows = max(1, _CHUNK // side ** (fdef.dims - 1))
    root = fdef.sqrt_mode and fdef.sqrt_evaluator is None  # the square root is taken here
    evaluate = fdef.sqrt_evaluator if fdef.sqrt_mode and not root else fdef.evaluator
    out, finite = None, True
    factors = () if root else getattr(evaluate, "factors", ())
    if factors:  # each evaluated once on its whole axis, into their outer product
        with np.errstate(all="ignore"):
            values = [np.asarray(f(np.arange(side) / side)) for f in factors]
            out = np.multiply.outer(*values)
        finite = all(np.all(np.isfinite(v)) for v in values)
    for lo in () if factors else range(0, side, rows):
        coords = np.meshgrid(np.arange(lo, min(lo + rows, side)) / side, *rest,
                             indexing="ij", sparse=True)
        with np.errstate(all="ignore"):  # a non-finite value fails the isfinite check below
            values = np.asarray(evaluate(*coords))
        if np.iscomplexobj(values):
            if root:
                raise NegativeUnderSqrt("sqrt mode needs a real-valued function")
            if out is not None and not np.iscomplexobj(out):
                out = out.astype(complex)
        finite = finite and bool(np.all(np.isfinite(values)))
        if out is None:
            out = np.empty((side,) * fdef.dims, dtype=complex if np.iscomplexobj(values) else float)
        out[lo:lo + rows] = values
    if root:
        low = np.min(out)
        if low < -1e-12:
            raise NegativeUnderSqrt(f"f reaches {low:.3g} < -1e-12; cannot take a square root")
        with np.errstate(all="ignore"):  # a NaN stays one and fails the check below
            np.sqrt(np.clip(out, 0.0, None, out=out), out=out)
    if not finite:
        raise ValueError(f"{fdef.name} is not finite on the grid")
    return GridFunction._adopt(_unit(out))


# ---------------------------------------------------------------------------
# Expression mode

_ALLOWED_CALLS = {
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
    "tanh": np.tanh, "abs": np.abs,
    "sinc": lambda v: np.sinc(np.asarray(v) / np.pi),  # sinc(v) = sin(v)/v
}
_ALLOWED_NAMES = {"pi": math.pi, "e": math.e}
_OPERATORS = {ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd}


def _validate(tree: ast.Expression, variables: set) -> None:
    """Check every node against the grammar and turn numeric literals into
    floats, so 10**10**9 overflows at once instead of in big-int arithmetic.

    ``ast.walk`` visits breadth-first without recursion, so nesting depth is
    no limit, and a call is seen before the name it calls."""
    names = variables | set(_ALLOWED_NAMES)
    callees = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
                raise ExpressionError(f"call to {reprlib.repr(ast.dump(node.func))} not allowed")
            if node.keywords or len(node.args) != 1:
                raise ExpressionError("functions take exactly one positional argument")
            callees.add(node.func)
        elif isinstance(node, ast.Name):
            if node.id not in (_ALLOWED_CALLS if node in callees else names):
                raise ExpressionError(f"unknown name {reprlib.repr(node.id)}")
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ExpressionError(f"constant {reprlib.repr(node.value)} not allowed")
            try:
                node.value = float(node.value)
            except OverflowError:
                raise ExpressionError(
                    f"literal {reprlib.repr(node.value)} is too large for a float") from None
        elif isinstance(node, (ast.BinOp, ast.UnaryOp)):
            if type(node.op) not in _OPERATORS:
                raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        elif not isinstance(node, (ast.Expression, ast.Load, ast.operator, ast.unaryop)):
            raise ExpressionError(f"syntax {type(node).__name__} not allowed")


def expression(expr: str, dims: int = 1, sqrt_mode: bool = False) -> FunctionDef:
    """FunctionDef from a small arithmetic grammar over x (and y when D=2).

    Allowed: + - * / ^ (or **), unary minus, sin, cos, exp, log, tanh, sinc,
    abs, and the constants pi and e.  ^ binds like ** (rewritten before parse).
    """
    if dims not in (1, 2):
        raise ExpressionError("expression mode supports D in {1, 2}")
    variables = {"x"} if dims == 1 else {"x", "y"}
    try:
        with warnings.catch_warnings():  # the parser's SyntaxWarnings would reach stderr
            warnings.simplefilter("ignore", SyntaxWarning)
            tree = ast.parse(expr.replace("^", "**"), mode="eval")
            _validate(tree, variables)
            code = compile(tree, "<expression>", "eval")
    except (SyntaxError, ValueError, MemoryError, RecursionError) as exc:
        raise ExpressionError(
            f"cannot parse {reprlib.repr(expr)}: {type(exc).__name__}: {exc}") from None
    env = dict(_ALLOWED_CALLS) | _ALLOWED_NAMES

    def evaluator(*coords):
        local = dict(zip(sorted(variables), coords))
        return np.asarray(eval(code, {"__builtins__": {}}, env | local))

    return FunctionDef(name=f"expr:{expr}", dims=dims, evaluator=evaluator,
                       parameters={}, sqrt_mode=sqrt_mode)
