"""Discrete Fourier analysis: sampling grids, truncation, filtering, mirror
extension, and truncation-error accounting.

Spectral conventions (D dimensions, 2^n points per axis):

* coefficients use the positive-exponent kernel
  c_k = 2^(-Dn/2) * sum_l f_l exp(+i 2 pi k.l / 2^n), so the signal is the
  series f_l = 2^(-Dn/2) * sum_k c_k exp(-i 2 pi k.l / 2^n);
* "full" spectra are numpy-fft-layout arrays (frequency k at index k mod 2^n),
  covering k in (-2^(n-1), 2^(n-1)] per axis;
* a truncation window keeps k in [-(2^m - 1), 2^m - 1] per axis and
  renormalizes, recording the captured mass N.

``spectrum`` is the one transform.  A real grid keeps float64 samples, and its
``Spectrum`` keeps only the conjugated, scaled ``rfftn``: the last axis's
k = 0 .. 2^(n-1) half, with the k < 0 half implied by c_(-k) = conj(c_k).  A
complex grid's keeps its full ``ifftn`` array.  ``Spectrum.window`` reads a
window straight off the kept array, so a load never builds the full 2^(Dn)
spectrum; ``Spectrum.full`` builds it (``dft_coefficients``) for whoever wants
the fft layout, and the two agree bit for bit on every window.  Every window of
a real grid's spectrum is exactly Hermitian.

One index rule places a window in fft layout: ``_window_positions`` gives
frequency k's index k mod side, and both ``FourierSpec.embed`` (window into a
spectrum) and ``_centred_window`` (spectrum into a window) read it.  It holds
m < n too: a side below 2^(m+1) would give two frequencies one index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DegenerateWindow, DimensionMismatch, EmptyWindow,
                     InsufficientPoints, NonUnitNorm)

_RESIDUE = np.finfo(float).eps  # a window norm below this is only rounding residue


@dataclass(frozen=True)
class GridFunction:
    """Unit-norm samples on the uniform (2^n)^D grid, f(k/2^n): float64 when
    the values are real, complex128 otherwise.  The constructor copies the
    array it is given, proves the unit norm and freezes the copy, so no view a
    caller holds can write it; ``spectrum`` relies on that proof unchecked."""

    dims: int
    n: int
    samples: np.ndarray

    def __post_init__(self):
        self._seal(np.array(self.samples, dtype=_dtype(self.samples), order="C"))

    def _seal(self, s: np.ndarray) -> None:
        """Check ``s`` against the grid's shape and the unit norm, then freeze it
        as the samples."""
        if s.shape != (2**self.n,) * self.dims:
            raise DimensionMismatch(f"expected shape {(2**self.n,) * self.dims}, got {s.shape}")
        if not abs(_sum_of_squares(s) - 1.0) <= 1e-12:
            raise NonUnitNorm("grid samples are not unit-norm")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @classmethod
    def _adopt(cls, s: np.ndarray) -> GridFunction:
        """The grid on ``s`` itself, without the constructor's copy: for a fresh
        float64 or complex128 buffer that its builder hands over and holds no
        view of."""
        g = object.__new__(cls)
        object.__setattr__(g, "dims", s.ndim)
        object.__setattr__(g, "n", int(round(math.log2(s.shape[0]))))
        g._seal(np.ascontiguousarray(s))
        return g

    @classmethod
    def from_samples(cls, samples) -> GridFunction:
        return _normalised(np.array(samples, dtype=_dtype(samples)))


def _normalised(s: np.ndarray) -> GridFunction:
    """The grid on the fresh buffer ``s``, divided by its norm in place."""
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        norm = np.linalg.norm(s)
    if norm == 0:
        raise NonUnitNorm("cannot normalize all-zero samples")
    if norm == math.inf:
        raise NonUnitNorm("the samples' norm overflows a float")
    s /= norm
    return GridFunction._adopt(s)


# Values per dot product in ``_sum_of_squares``: below 10000, OpenBLAS runs a dot on
# one thread, so a neighbour busy on the other core cannot stall it.
_SUM_CHUNK = 1 << 13


def _sum_of_squares(s: np.ndarray) -> float:
    """Sum of |s|^2 over a contiguous array, accurate whatever its size: each
    chunk's sum is one dot product of the chunk with itself, and ``math.fsum``
    adds the chunk sums exactly, so the residue does not grow with the grid as
    ``np.vdot``'s does, and no temporary is made."""
    flat = s.reshape(-1).view(float)  # a complex grid's real and imaginary parts, interleaved
    chunks = (flat[i:i + _SUM_CHUNK] for i in range(0, flat.size, _SUM_CHUNK))
    with np.errstate(over="ignore"):  # an overflowing sum is inf, which fails any check
        sums = [np.dot(c, c) for c in chunks]
    try:
        return math.fsum(sums)
    except OverflowError:  # finite chunk sums whose total overflows
        return math.inf


def _dtype(values) -> type:
    return complex if np.iscomplexobj(values) else float


def _window_positions(m: int, side: int) -> np.ndarray:
    """Index k mod side of each frequency |k| <= 2^m - 1, in centred order."""
    if 2 ** (m + 1) > side:
        raise ValueError(f"need m < n, got m={m}, n={side.bit_length() - 1}")
    return np.arange(1 - 2**m, 2**m) % side


@dataclass(frozen=True)
class FourierSpec:
    """Windowed, renormalized coefficient tensor: the compiler's input IR.

    ``coeffs`` is centered: axis index j holds frequency k = j - (2^m - 1),
    shape (2^(m+1) - 1,)^D.  ``norm_constant`` is the spectral mass the window
    captured before renormalization, so 1 - norm_constant is the exact
    truncation infidelity.
    """

    dims: int
    m: int
    coeffs: np.ndarray
    norm_constant: float

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        w = 2 ** (self.m + 1) - 1
        if c.shape != (w,) * self.dims:
            raise DimensionMismatch(f"expected window shape {(w,) * self.dims}, got {c.shape}")
        if not abs(np.vdot(c, c).real - 1.0) <= 1e-12:
            raise NonUnitNorm("windowed coefficients are not unit-norm")
        c = np.ascontiguousarray(c)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def max_frequency(self) -> int:
        return 2**self.m - 1

    def embed(self, side: int, half: bool = False) -> np.ndarray:
        """The window on a (side,)^D grid in fft layout: frequency k at index k mod side.
        ``half`` keeps only the last axis's k >= 0, on its first 2^m indices:
        the ``rfftn`` layout, which ``irfftn`` pads to side."""
        pos = [_window_positions(self.m, side)] * self.dims
        shape, coeffs = [side] * self.dims, self.coeffs
        if half:
            M = self.max_frequency
            pos[-1], shape[-1], coeffs = pos[-1][M:], M + 1, coeffs[..., M:]
        out = np.zeros(shape, dtype=complex)
        out[np.ix_(*pos)] = coeffs
        return out

    def wrapped_vector(self) -> np.ndarray:
        """Loader layout: per axis, k >= 0 at index k, k < 0 at 2^(m+1) + k,
        index 2^m unused; flattened row-major across axes."""
        return self.embed(2 ** (self.m + 1)).reshape(-1)


@dataclass(frozen=True)
class Spectrum:
    """The coefficients of a grid as ``spectrum`` keeps them: with ``half``, the
    last axis's k = 0 .. 2^(n-1) of a real grid (the ``rfftn`` layout), else the
    full fft-layout array."""

    dims: int
    n: int
    coeffs: np.ndarray
    half: bool

    def window(self, m: int) -> np.ndarray:
        """The |k| <= 2^m - 1 block in centred order, equal to the same block of
        ``full()`` bit for bit: the last axis's k = 0 plane is averaged with the
        conjugate of its negation, and k < 0 is conj(c_(-k))."""
        if not self.half:
            return _centred_window(self.coeffs, m)
        pos, M = _window_positions(m, 2**self.n), 2**m - 1
        w = self.coeffs[np.ix_(*[pos] * (self.dims - 1), pos[M:])]
        flip = (slice(None, None, -1),) * (self.dims - 1)
        zero = w[..., :1]
        zero[...] = (zero + np.conjugate(zero[flip])) / 2
        return np.concatenate([np.conjugate(w[flip + (slice(M, 0, -1),)]), w], axis=-1)

    def full(self) -> np.ndarray:
        """The full fft-layout spectrum; a real grid's k < 0 half is filled by
        c_(-k) = conj(c_k)."""
        if not self.half:
            return self.coeffs
        h, axes = 2 ** (self.n - 1), range(self.dims - 1)
        c = np.empty((2**self.n,) * self.dims, dtype=complex)
        c[..., :h + 1] = self.coeffs
        for k in (0, h):  # self-conjugate planes, Hermitian only to rounding when D > 1
            c[..., k] = (c[..., k] + np.conjugate(_negated(c[..., k], axes))) / 2
        np.conjugate(_negated(c[..., h - 1:0:-1], axes), out=c[..., h + 1:])
        return c


def spectrum(g: GridFunction) -> Spectrum:
    """The coefficients of ``g`` (unitary, positive kernel): a real grid's
    conjugated, scaled ``rfftn`` half, or a complex grid's ``ifftn``.  The
    unit norm is ``GridFunction``'s own check, made once when ``g`` was built."""
    scale = 2.0 ** (g.dims * g.n / 2)
    if np.iscomplexobj(g.samples):
        return Spectrum(g.dims, g.n, np.fft.ifftn(g.samples) * scale, half=False)
    half = np.fft.rfftn(g.samples, norm="forward")
    np.multiply(np.conjugate(half, out=half), scale, out=half)
    return Spectrum(g.dims, g.n, half, half=True)


def dft_coefficients(g: GridFunction) -> np.ndarray:
    """Full coefficient tensor of ``g`` in fft layout (unitary, positive kernel)."""
    return spectrum(g).full()


def _negated(a: np.ndarray, axes) -> np.ndarray:
    """``a`` at frequency -k mod side on each of ``axes``: index 0 stays and
    the rest reverse, by slices (``a`` itself when there is no axis)."""
    for axis in axes:
        a = np.roll(np.flip(a, axis), 1, axis)
    return a


def reconstruct(coeffs_full: np.ndarray) -> np.ndarray:
    """Inverse of dft_coefficients: samples from a full fft-layout spectrum."""
    scale = 2.0 ** (sum(math.log2(s) for s in coeffs_full.shape) / 2)
    return np.fft.fftn(coeffs_full) / scale


def _centred_window(coeffs_full: np.ndarray, m: int) -> np.ndarray:
    """The |k| <= 2^m - 1 block of a full fft-layout spectrum, in centred order."""
    return coeffs_full[np.ix_(*[_window_positions(m, coeffs_full.shape[0])] * coeffs_full.ndim)]


def _window(coeffs: Spectrum | np.ndarray, m: int) -> np.ndarray:
    """The centred |k| <= 2^m - 1 block of a ``Spectrum`` or a full fft-layout array."""
    return coeffs.window(m) if isinstance(coeffs, Spectrum) else _centred_window(coeffs, m)


def window_mass(coeffs: Spectrum | np.ndarray, m: int) -> float:
    """Spectral mass inside the symmetric window |k| <= 2^m - 1 (every axis)."""
    return float(np.sum(np.abs(_window(coeffs, m)) ** 2))


def truncate(coeffs: Spectrum | np.ndarray, m: int, filter_a: float | None = None) -> FourierSpec:
    """Window a ``Spectrum`` or a full fft-layout spectrum to |k| <= 2^m - 1 per
    axis and renormalize, then apply the Lanczos filter of exponent ``filter_a``
    if one is given."""
    win = _window(coeffs, m)
    norm_const = float(np.sum(np.abs(win) ** 2))
    if math.sqrt(norm_const) < _RESIDUE:
        raise EmptyWindow(f"window |k|<={2**m - 1} captures no spectral mass")
    spec = FourierSpec(win.ndim, m, win / math.sqrt(norm_const), norm_const)
    return spec if filter_a is None else lanczos_filter(spec, filter_a)


def lanczos_filter(spec: FourierSpec, a: float) -> FourierSpec:
    """Apply the sigma factor sinc(pi k / M)^a per axis, then renormalize.

    The k = 0 coefficient is untouched before renormalization; a -> 0 is the
    identity filter.  norm_constant keeps documenting the unfiltered window
    capture.
    """
    if not a >= 0:
        raise ValueError("filter exponent must be nonnegative")
    M = spec.max_frequency
    if M == 0:
        return spec
    k = np.arange(-M, M + 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.sin(np.pi * k / M) / np.where(k == 0, 1.0, np.pi * k / M)
    s[k == 0] = 1.0
    factor = np.power(np.clip(s, 0.0, None), a)  # sinc >= 0 on [-pi, pi]
    coeffs = spec.coeffs
    for axis in range(spec.dims):
        shape = [1] * spec.dims
        shape[axis] = len(factor)
        coeffs = coeffs * factor.reshape(shape)
    norm = np.linalg.norm(coeffs)
    if norm < _RESIDUE:
        raise EmptyWindow("filter removed all spectral mass")
    return replace(spec, coeffs=coeffs / norm)


def mirror_extend(g: GridFunction) -> GridFunction:
    """Periodic extension of a 1D function by reflection: F_k = f_k / sqrt(2)
    for k < 2^n and F_k = f_(2^(n+1)-1-k) / sqrt(2) above."""
    if g.dims != 1:
        raise DimensionMismatch("mirror extension is one-dimensional")
    ext = np.concatenate([g.samples, g.samples[::-1]])
    ext /= math.sqrt(2)
    return GridFunction._adopt(ext)


def exact_infidelity(coeffs: Spectrum | np.ndarray, m: int) -> float:
    """Truncation infidelity: spectral mass outside the window, 1 - N."""
    return max(0.0, 1.0 - window_mass(coeffs, m))


def _forward_difference(samples: np.ndarray, order: int) -> np.ndarray:
    """The order-th (>= 1) periodic forward difference d_i = d_(i+1 mod N) - d_i,
    in one new array: the first order writes d[1:] - d[:-1] and the wrap term
    into it, and each later one rewrites it in place."""
    d, src = np.empty_like(samples), samples
    for _ in range(order):
        wrap = src[0] - src[-1]
        np.subtract(src[1:], src[:-1], out=d[:-1])
        d[-1] = wrap
        src = d
    return d


def _difference_norm(g: GridFunction, order: int) -> float:
    """1-norm of the order-th periodic forward difference of ``g``'s samples,
    kept on ``g`` (its samples are read-only): a sweep asks for it at every m.
    A real difference takes its absolute value in place; a complex one's goes
    to a new real array, whose sum rounds as a real sum."""
    norms = g.__dict__.setdefault("_difference_norms", {})
    if order not in norms:
        d = _forward_difference(g.samples, order)
        norms[order] = float(np.sum(np.abs(d, out=None if np.iscomplexobj(d) else d)))
    return norms[order]


def infidelity_bound(g: GridFunction, m: int, p: int = 0) -> float:
    """Analytic upper bound on the truncation infidelity from the 1-norm of the
    (p+1)-th periodic forward difference.

    |Delta^(p+1) f|_1^2 I_p / (2^(2p+1) pi), with u0 = pi 2^m / 2^n and
    I_p = int_{u0}^{pi/2} sin(u)^-(2p+2) du = sum_j C(p,j) cot(u0)^(2j+1) / (2j+1)
    (substitute t = cot u); p = 0 gives |Delta f|_1^2 cot(u0) / (2 pi).
    """
    if g.dims != 1:
        raise DimensionMismatch("the analytic bound is derived for one dimension")
    if m >= g.n:
        raise ValueError(f"need m < n, got m={m}, n={g.n}")
    if p < 0:
        raise ValueError("smoothness order must be nonnegative")
    if 2**m == 2 ** (g.n - 1):
        raise DegenerateWindow("window reaches the Nyquist frequency; bound degenerates")
    l1 = _difference_norm(g, p + 1)
    cot = 1.0 / math.tan(math.pi * 2**m / 2**g.n)
    integral = sum(math.comb(p, j) * cot ** (2 * j + 1) / (2 * j + 1) for j in range(p + 1))
    return l1**2 * integral / (2 ** (2 * p + 1) * math.pi)


def decay_slope(g: GridFunction, m_range) -> float:
    """Least-squares slope of -log2(infidelity) against m; saturated points
    (infidelity <= 1e-14) are excluded from the fit."""
    coeffs = spectrum(g)
    pts = []
    for m in m_range:
        eps = exact_infidelity(coeffs, m)
        if eps > 1e-14:
            pts.append((m, -math.log2(eps)))
    if len(pts) < 3:
        raise InsufficientPoints(f"only {len(pts)} usable points in m_range")
    ms, logs = zip(*pts)
    return float(np.polyfit(ms, logs, 1)[0])
