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

``spectrum(g, top)``, the transform every load takes, is pruned (Sorensen &
Burrus's transform decomposition) to |k| <= 2^top - 1, with no grid-sized array.
Per axis x = a + P b, P = 2^min(6 // D, n - 1), K = 2^n / P, and X_k = sum_a
w^(k.a) H_a(k mod K), H_a the K^D-point transform of block f[a::P] (a real
grid's ``rfftn``, read past K/2 as the conjugate of the negated entry).  The
twiddles come from two small tables per column, k.a reduced mod 2^n in
integers, and the columns are added one at a time in a fixed order: as the
split ignores ``top``, no bit does, and one pass at the largest m serves a
sweep whose rows equal single compiles.  A real grid scales as ``rfftn`` did,
conj(X / 2^(Dn)) 2^(Dn/2), so a constant loads as exactly one coefficient; its
last axis's k < 0 are conj(c_(-k)) and its k = 0 plane is averaged with the
conjugate of its negation, so every window is exactly Hermitian.
``dft_coefficients`` is a full transform, which no command takes.

One index rule places a window in fft layout: ``_window_positions`` gives
frequency k's index k mod side, and both ``FourierSpec.embed`` (window into a
spectrum) and ``_centred_window`` (spectrum into a window) read it.  It holds
m < n too: a side below 2^(m+1) would give two frequencies one index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import (DegenerateWindow, DimensionMismatch, EmptyWindow,
                     InsufficientPoints, NonUnitNorm)

_RESIDUE = np.finfo(float).eps  # a window norm below this is only rounding residue


@dataclass(frozen=True)
class GridFunction:
    """Unit-norm samples on the uniform (2^n)^D grid, f(k/2^n): float64 when
    the values are real, complex128 otherwise; ``spectrum`` relies unchecked on
    the unit norm ``_seal`` proves.  Input read-only down to its owner is kept,
    the rest copied (``_kept``): only a view taken before that freeze can write it."""

    dims: int
    n: int
    samples: np.ndarray

    def __post_init__(self):
        _seal(self, "samples", self.samples, (2**self.n,) * self.dims, 1e-12,
              NonUnitNorm("grid samples are not unit-norm"))

    @classmethod
    def _adopt(cls, s: np.ndarray) -> GridFunction:
        """The grid on the buffer ``s`` its builder hands over, frozen here so ``_kept``
        keeps it (a view of a writable array is copied): the builder holds no view of it."""
        s.setflags(write=False)
        return cls(s.ndim, int(round(math.log2(s.shape[0]))), s)

    @classmethod
    def from_samples(cls, samples) -> GridFunction:
        return cls._adopt(_unit(np.array(samples, dtype=_dtype(samples))))


def _kept(values) -> np.ndarray:
    """``values`` itself if it and every array it views, down to the owner, are read-only
    (and it is C-contiguous in ``_dtype``), else a copy that is: the one ownership rule.
    A writable view taken before the owner was frozen is beyond what numpy can see."""
    dtype, a = _dtype(values), values
    while isinstance(a, np.ndarray) and not a.flags.writeable:
        a = a.base
    return (np.asarray if a is None else np.array)(values, dtype=dtype, order="C")


def _seal(owner, name: str, a, shape: tuple, tol: float, fault: Exception) -> None:
    """Set ``owner.name`` to ``_kept(a)`` frozen, once it has ``shape`` and a squared
    norm within ``tol`` of 1 (else ``fault``): the one check of each unit-array type."""
    a = _kept(a)
    if a.shape != shape:
        raise DimensionMismatch(f"expected {math.prod(shape)} {name} {shape}, got {a.shape}")
    if not abs(_sum_of_squares(a) - 1.0) <= tol:
        raise fault
    a.setflags(write=False)
    object.__setattr__(owner, name, a)


def _unit(s: np.ndarray) -> np.ndarray:
    """The fresh buffer ``s`` divided in place by its norm, dtype kept: the one normaliser.
    Frozen, ``_kept`` keeps it; only a view taken before the freeze could write it."""
    norm = math.sqrt(_sum_of_squares(s))
    if norm == 0:
        raise NonUnitNorm("cannot normalize all-zero samples")
    if not norm < math.inf:
        raise NonUnitNorm("cannot normalize samples whose norm overflows a float or is NaN")
    s /= norm
    s.setflags(write=False)
    return s


# Values per dot product in ``_overlap``: below 10000, OpenBLAS runs a dot on
# one thread, so a neighbour busy on the other core cannot stall it.
_SUM_CHUNK = 1 << 13


def _overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b> of flat arrays, accurate at any size and on any BLAS thread count: one
    ``np.vdot`` per chunk (OpenBLAS's one-thread size), the chunk sums added exactly by
    ``math.fsum``, so the residue does not grow with the grid; past the float range, inf."""
    with np.errstate(over="ignore"):  # an overflowing sum is inf, which fails any check
        sums = [np.vdot(a[i:i + _SUM_CHUNK], b[i:i + _SUM_CHUNK]) for i in range(0, len(a), _SUM_CHUNK)]
    try:
        return complex(math.fsum(s.real for s in sums), math.fsum(s.imag for s in sums))
    except OverflowError:  # finite chunk sums whose total overflows
        return complex(math.inf)


def _sum_of_squares(s: np.ndarray) -> float:
    """Sum of |s|^2 over a contiguous array, by ``_overlap`` of its real and
    imaginary parts (interleaved when complex) with themselves: no temporary."""
    flat = s.reshape(-1).view(float)
    return _overlap(flat, flat).real


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
    truncation infidelity.  Input read-only down to its owner is kept, the rest
    copied (``_kept``): only a view taken before that freeze can write it.
    """

    dims: int
    m: int
    coeffs: np.ndarray
    norm_constant: float

    def __post_init__(self):
        _seal(self, "coeffs", self.coeffs, (2 ** (self.m + 1) - 1,) * self.dims, 1e-12,
              NonUnitNorm("windowed coefficients are not unit-norm"))

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


_SPLIT_BITS = 6  # ``spectrum`` cuts each axis into 2^(_SPLIT_BITS // D) strided columns
_BATCH = 1 << 14  # entries of the arrays a batch of columns makes (two columns at least)


def _turns(start: int, count: int, a: np.ndarray, turn: complex, side: int) -> np.ndarray:
    """exp(turn e) at e = k a mod side, per column a (rows), k = start .. start+count-1:
    with k = 128 hi + lo, 0 <= lo < 128, its values at e = 128 hi a and e = lo a, each
    reduced in integers to [-side/2, side/2), multiplied; so k and a alone fix each."""
    hi = np.arange(start >> 7, ((start + count - 1) >> 7) + 1)
    e = lambda k: np.exp(turn * ((k * a[:, None] + side // 2) % side - side // 2))  # noqa: E731
    t, start = e(128 * hi)[:, :, None] * e(np.arange(128))[:, None], start - 128 * hi[0]
    return t.reshape(len(a), -1)[:, start:start + count]


def spectrum(g: GridFunction, top: int) -> np.ndarray:
    """The coefficients |k| <= 2^top - 1 of ``g`` (unitary, positive kernel) in fft
    layout on a side of 2^(top+1), by the module docstring's pruned transform.  The
    unit norm is ``GridFunction``'s own check, made once when ``g`` was built."""
    D, side, T = g.dims, 2**g.n, 2**top
    _window_positions(top, side)  # the check m < n
    P = 2 ** min(_SPLIT_BITS // D, g.n - 1)
    K, real = side // P, not np.iscomplexobj(g.samples)
    starts = [1 - T] * (D - 1) + [0 if real else 1 - T]  # axis d's window: starts[d] .. T-1
    pos = [np.arange(k0, T) % K for k0 in starts]  # each k's index into a block's transform
    neg = [-j % K for j in pos]  # a real block's last axis keeps j <= K/2: H_j = conj(H_-j)
    flip = (pos[-1] > K // 2) & real
    pos[-1] = neg[-1] = np.where(flip, neg[-1], pos[-1])
    pos, neg, flips = (slice(None),) + np.ix_(*pos), (slice(None),) + np.ix_(*neg), flip.any()
    # X_k = sum_a w^(k.a) H_a(k mod K), H_a the transform of block cols[a][b] = f[a + P b]:
    # w = omega^-1 and c = conj(X / N) 2^(Dn/2) with rfftn, w = omega and no conj with ifftn
    fft = np.fft.rfftn if real else partial(np.fft.ifftn, norm="forward")
    turn = (-2j if real else 2j) * np.pi / side
    cols = g.samples.reshape((K, P) * D).transpose([*range(1, 2 * D, 2), *range(0, 2 * D, 2)])
    acc = np.zeros([T - k0 for k0 in starts], dtype=complex)
    batch, step = min(P, max(2, _BATCH // K**D)), max(1, _BATCH // acc.size)
    for lead in np.ndindex((P,) * (D - 1)):
        for a0 in range(0, P, batch):
            G = fft(cols[lead + (slice(a0, a0 + batch),)], axes=tuple(range(1, D + 1)))
            for i in range(0, len(G), step):
                got = G[i:i + step][pos]
                if flips:
                    np.conjugate(G[i:i + step][neg] if D > 1 else got, out=got, where=flip)
                for d, a in enumerate(lead + (np.arange(a0 + i, a0 + i + len(got)),)):
                    got *= _turns(starts[d], T - starts[d], np.atleast_1d(a), turn, side).reshape(
                        (-1,) + (1,) * d + (T - starts[d],) + (1,) * (D - 1 - d))
                for column in got:  # one column at a time, in a fixed order
                    acc += column
    del G, got, pos, neg  # the last batch and its indices, freed before the window is built
    acc /= float(side) ** D
    np.multiply(np.conjugate(acc, out=acc) if real else acc, 2.0 ** (D * g.n / 2), out=acc)
    if real:  # the k = 0 plane made Hermitian, and k < 0 filled by c_(-k) = conj(c_k)
        rev = (slice(None, None, -1),) * (D - 1)
        acc[..., 0] = (acc[..., 0] + np.conjugate(acc[rev + (0,)])) / 2
        acc = np.concatenate([np.conjugate(acc[rev + (slice(T - 1, 0, -1),)]), acc], axis=-1)
    return np.roll(np.pad(acc, [(0, 1)] * D), 1 - T, axis=tuple(range(D)))  # k at k mod 2T


def dft_coefficients(g: GridFunction) -> np.ndarray:
    """Full coefficient tensor of ``g`` in fft layout (unitary, positive kernel):
    the scaled ``ifftn``, which a real grid makes exactly Hermitian by averaging
    c_k with conj(c_(-k))."""
    c = np.fft.ifftn(g.samples) * 2.0 ** (g.dims * g.n / 2)
    if np.iscomplexobj(g.samples):
        return c
    return (c + np.conjugate(np.roll(np.flip(c), 1, axis=tuple(range(g.dims))))) / 2


def reconstruct(coeffs_full: np.ndarray) -> np.ndarray:
    """Inverse of dft_coefficients: samples from a full fft-layout spectrum."""
    scale = 2.0 ** (sum(math.log2(s) for s in coeffs_full.shape) / 2)
    return np.fft.fftn(coeffs_full) / scale


def _centred_window(coeffs: np.ndarray, m: int) -> np.ndarray:
    """The |k| <= 2^m - 1 block of a spectrum in fft layout, in centred order."""
    return coeffs[np.ix_(*[_window_positions(m, coeffs.shape[0])] * coeffs.ndim)]


def window_mass(coeffs: np.ndarray, m: int) -> float:
    """Spectral mass inside the symmetric window |k| <= 2^m - 1 (every axis)."""
    return float(np.sum(np.abs(_centred_window(coeffs, m)) ** 2))


def truncate(coeffs: np.ndarray, m: int, filter_a: float | None = None) -> FourierSpec:
    """Window a spectrum in fft layout (``spectrum``'s or a full one) to
    |k| <= 2^m - 1 per axis and renormalize, then apply the Lanczos filter of
    exponent ``filter_a`` if one is given."""
    win = _centred_window(coeffs, m)
    norm_const = float(np.sum(np.abs(win) ** 2))
    if math.sqrt(norm_const) < _RESIDUE:
        raise EmptyWindow(f"window |k|<={2**m - 1} captures no spectral mass")
    win = win / math.sqrt(norm_const)
    win.setflags(write=False)  # handed over to the spec, which keeps it
    spec = FourierSpec(win.ndim, m, win, norm_const)
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
    norm = math.sqrt(_sum_of_squares(coeffs))
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


def exact_infidelity(coeffs: np.ndarray, m: int) -> float:
    """Truncation infidelity: spectral mass outside the window, 1 - N."""
    return max(0.0, 1.0 - window_mass(coeffs, m))


def _forward_difference(samples: np.ndarray, order: int, lo: int = 0,
                        size: int | None = None) -> np.ndarray:
    """Entries lo .. lo+size-1 (all by default) of the order-th (>= 1) periodic
    forward difference d_i = d_(i+1 mod N) - d_i, from ``order`` more samples
    (wrapping to the head): the bits of the whole difference."""
    end = lo + (len(samples) if size is None else size) + order
    d = samples[lo:end] if end <= len(samples) else np.take(samples, range(lo, end), mode="wrap")
    for _ in range(order):
        d = d[1:] - d[:-1]
    return d


def _difference_norm(g: GridFunction, order: int) -> float:
    """1-norm of the order-th periodic forward difference of ``g``'s samples,
    kept on ``g`` (its samples are read-only): a sweep asks for it at every m.
    ``np.sum`` sums each chunk of ``_SUM_CHUNK`` entries, and the chunk sums
    are added pairwise, as numpy's pairwise sum splits a power-of-two length."""
    norms, s = g.__dict__.setdefault("_difference_norms", {}), g.samples
    if order not in norms:
        sums = [np.sum(np.abs(_forward_difference(s, order, lo, min(_SUM_CHUNK, len(s)))))
                for lo in range(0, len(s), _SUM_CHUNK)]
        while len(sums) > 1:
            sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
        norms[order] = float(sums[0])
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
    m_range = list(m_range)
    coeffs = spectrum(g, max(m_range, default=0))
    pts = []
    for m in m_range:
        eps = exact_infidelity(coeffs, m)
        if eps > 1e-14:
            pts.append((m, -math.log2(eps)))
    if len(pts) < 3:
        raise InsufficientPoints(f"only {len(pts)} usable points in m_range")
    ms, logs = zip(*pts)
    return float(np.polyfit(ms, logs, 1)[0])
