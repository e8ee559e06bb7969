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

``FourierSpec.embed`` is the one place that knows where a window sits in fft layout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DegenerateWindow, DimensionMismatch, EmptyWindow,
                     InsufficientPoints, NonUnitNorm)

GRID_NORM_TOL = 1e-9


@dataclass(frozen=True)
class GridFunction:
    """Unit-norm complex samples on the uniform (2^n)^D grid, f(k/2^n)."""

    dims: int
    n: int
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.shape != (2**self.n,) * self.dims:
            raise DimensionMismatch(f"expected shape {(2**self.n,) * self.dims}, got {s.shape}")
        if abs(np.sum(np.abs(s) ** 2) - 1.0) > 1e-12:
            raise NonUnitNorm("grid samples are not unit-norm")
        s = np.ascontiguousarray(s)
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @classmethod
    def from_samples(cls, samples, dims: int | None = None) -> GridFunction:
        s = np.asarray(samples, dtype=complex)
        if dims is not None and s.ndim != dims:
            raise DimensionMismatch(f"expected {dims}-dimensional samples")
        n = int(round(math.log2(s.shape[0])))
        norm = np.linalg.norm(s)
        if norm == 0:
            raise NonUnitNorm("cannot normalize all-zero samples")
        return cls(s.ndim, n, s / norm)


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
        if abs(np.sum(np.abs(c) ** 2) - 1.0) > 1e-12:
            raise NonUnitNorm("windowed coefficients are not unit-norm")
        c = np.ascontiguousarray(c)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def max_frequency(self) -> int:
        return 2**self.m - 1

    def coefficient(self, *k: int) -> complex:
        """Coefficient at signed frequency vector k."""
        M = self.max_frequency
        return self.coeffs[tuple(ki + M for ki in k)]

    def embed(self, side: int) -> np.ndarray:
        """The window on a (side,)^D grid in fft layout: frequency k at index k mod side."""
        pos = np.arange(-self.max_frequency, self.max_frequency + 1) % side
        out = np.zeros((side,) * self.dims, dtype=complex)
        out[np.ix_(*([pos] * self.dims))] = self.coeffs
        return out

    def wrapped_vector(self) -> np.ndarray:
        """Loader layout: per axis, k >= 0 at index k, k < 0 at 2^(m+1) + k,
        index 2^m unused; flattened row-major across axes."""
        return self.embed(2 ** (self.m + 1)).reshape(-1)


@dataclass(frozen=True)
class SpectralTail:
    exact_infidelity: float
    analytic_bound: float
    one_norm_delta: float


def dft_coefficients(g: GridFunction) -> np.ndarray:
    """Full coefficient tensor of ``g`` in fft layout (unitary, positive kernel)."""
    if abs(np.sum(np.abs(g.samples) ** 2) - 1.0) > GRID_NORM_TOL:
        raise NonUnitNorm("grid function is not unit-norm")
    scale = 2.0 ** (g.dims * g.n / 2)
    return np.fft.ifftn(g.samples) * scale


def reconstruct(coeffs_full: np.ndarray) -> np.ndarray:
    """Inverse of dft_coefficients: samples from a full fft-layout spectrum."""
    scale = 2.0 ** (sum(math.log2(s) for s in coeffs_full.shape) / 2)
    return np.fft.fftn(coeffs_full) / scale


def _centred_window(coeffs_full: np.ndarray, m: int) -> np.ndarray:
    """The |k| <= 2^m - 1 block of a full fft-layout spectrum, in centred order."""
    n = int(round(math.log2(coeffs_full.shape[0])))
    if m >= n:
        raise ValueError(f"need m < n, got m={m}, n={n}")
    M = 2**m - 1
    win = coeffs_full
    for axis in range(coeffs_full.ndim):
        win = np.take(win, np.arange(-M, M + 1), axis=axis)
    return win


def window_mass(coeffs_full: np.ndarray, m: int) -> float:
    """Spectral mass inside the symmetric window |k| <= 2^m - 1 (every axis)."""
    return float(np.sum(np.abs(_centred_window(coeffs_full, m)) ** 2))


def truncate(coeffs_full: np.ndarray, m: int) -> FourierSpec:
    """Window the full spectrum to |k| <= 2^m - 1 per axis and renormalize."""
    win = _centred_window(coeffs_full, m)
    norm_const = float(np.sum(np.abs(win) ** 2))
    if norm_const < 1e-300:
        raise EmptyWindow(f"window |k|<={2**m - 1} captures no spectral mass")
    return FourierSpec(coeffs_full.ndim, m, win / math.sqrt(norm_const), norm_const)


def lanczos_filter(spec: FourierSpec, a: float) -> FourierSpec:
    """Apply the sigma factor sinc(pi k / M)^a per axis, then renormalize.

    The k = 0 coefficient is untouched before renormalization; a -> 0 is the
    identity filter.  norm_constant keeps documenting the unfiltered window
    capture.
    """
    if a < 0:
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
    if norm < 1e-300:
        raise EmptyWindow("filter removed all spectral mass")
    return replace(spec, coeffs=coeffs / norm)


def mirror_extend(g: GridFunction) -> GridFunction:
    """Periodic extension of a 1D function by reflection: F_k = f_k / sqrt(2)
    for k < 2^n and F_k = f_(2^(n+1)-1-k) / sqrt(2) above."""
    if g.dims != 1:
        raise DimensionMismatch("mirror extension is one-dimensional")
    ext = np.concatenate([g.samples, g.samples[::-1]]) / math.sqrt(2)
    return GridFunction(1, g.n + 1, ext)


def exact_infidelity(coeffs_full: np.ndarray, m: int) -> float:
    """Truncation infidelity: spectral mass outside the window, 1 - N."""
    return max(0.0, 1.0 - window_mass(coeffs_full, m))


def _forward_difference(samples: np.ndarray, order: int) -> np.ndarray:
    d = samples
    for _ in range(order):
        d = np.roll(d, -1) - d
    return d


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
    diff = _forward_difference(g.samples, p + 1)
    l1 = float(np.sum(np.abs(diff)))
    cot = 1.0 / math.tan(math.pi * 2**m / 2**g.n)
    integral = sum(math.comb(p, j) * cot ** (2 * j + 1) / (2 * j + 1) for j in range(p + 1))
    return l1**2 * integral / (2 ** (2 * p + 1) * math.pi)


def spectral_tail(g: GridFunction, m: int, p: int = 0) -> SpectralTail:
    coeffs = dft_coefficients(g)
    diff = _forward_difference(g.samples, p + 1)
    return SpectralTail(
        exact_infidelity=exact_infidelity(coeffs, m),
        analytic_bound=infidelity_bound(g, m, p),
        one_norm_delta=float(np.sum(np.abs(diff))),
    )


def decay_slope(g: GridFunction, m_range) -> float:
    """Least-squares slope of -log2(infidelity) against m; saturated points
    (infidelity <= 1e-14) are excluded from the fit."""
    coeffs = dft_coefficients(g)
    pts = []
    for m in m_range:
        eps = exact_infidelity(coeffs, m)
        if eps > 1e-14:
            pts.append((m, -math.log2(eps)))
    if len(pts) < 3:
        raise InsufficientPoints(f"only {len(pts)} usable points in m_range")
    ms, logs = zip(*pts)
    return float(np.polyfit(ms, logs, 1)[0])
