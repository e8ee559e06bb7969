"""Image loading: FRQI targets, brightness-phase spectra, and the combined
coefficient compile.

A 2^n x 2^n grayscale image becomes a (2n+1)-qubit state: one color qubit
entangled with two n-qubit position registers.  Writing the FRQI state in the
|+i>, |-i> color basis turns the problem into loading the two phase functions
g+/- = 2^-n exp(-/+ i pi I / 2).  As g- = conj(g+), one windowed spectrum of g+
serves both: c-_k = conj(c+_{-k}), and the truncated g- is the conjugate of the
truncated g+.  A single 2D DFT feeds one joint loader on 2(m+1)+1 qubits.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .circuit import Circuit, h, phase
from .compiler import (CompileReport, FSLPlan, assemble, check_capacity, prepare_spec,
                       target_state)
from .errors import InvalidImage
from .fourier import FourierSpec, GridFunction
from .simulator import Statevector


@dataclass(frozen=True)
class GrayImage:
    """Square 2^n x 2^n brightness matrix with values in [0, 1]."""

    side: int
    brightness: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.brightness, dtype=float)
        if b.shape != (self.side, self.side):
            raise InvalidImage(f"expected {self.side}x{self.side}, got {b.shape}")
        if self.side < 1 or self.side & (self.side - 1):
            raise InvalidImage(f"side {self.side} is not a power of two")
        b = np.clip(b, 0.0, 1.0)
        b.setflags(write=False)
        object.__setattr__(self, "brightness", b)

    @property
    def n(self) -> int:
        return int(round(math.log2(self.side)))


def frqi_target(img: GrayImage) -> Statevector:
    """Exact FRQI state: 2^-n sum_jk (cos(pi I/2)|0> + sin(pi I/2)|1>)|j>|k>."""
    half = np.pi * img.brightness / 2
    scale = 1.0 / img.side
    amps = np.concatenate([
        (np.cos(half) * scale).reshape(-1),
        (np.sin(half) * scale).reshape(-1),
    ]).astype(complex)
    return Statevector(2 * img.n + 1, amps)


def _phase_spec(img: GrayImage, m: int) -> FourierSpec:
    """The windowed spectrum of g+ = 2^-n exp(-i pi I / 2), kept on ``img`` (its
    brightness is read-only): compile, target and capture each ask for it."""
    specs = img.__dict__.setdefault("_phase_specs", {})
    if m not in specs:
        g_plus = np.exp(-0.5j * np.pi * img.brightness) / img.side
        specs[m] = prepare_spec(GridFunction(2, img.n, g_plus), m)
    return specs[m]


def phase_spectra(img: GrayImage, m: int) -> np.ndarray:
    """Normalized joint coefficient state |0>|c+> + |1>|c-> on 2(m+1)+1 qubits:
    the loader vector.  The captured window mass is `window_capture`."""
    spec = _phase_spec(img, m)
    # c-_k = conj(c+_{-k}); in the centred layout k -> -k reverses both axes.
    minus = replace(spec, coeffs=np.conj(spec.coeffs[::-1, ::-1]))
    return np.concatenate([spec.wrapped_vector(), minus.wrapped_vector()]) / math.sqrt(2)


def window_capture(img: GrayImage, m: int) -> float:
    """Spectral mass of g+ inside the window; 1 - this is the FRQI infidelity."""
    return _phase_spec(img, m).norm_constant


def frqi_truncated_target(img: GrayImage, m: int) -> Statevector:
    """The m-truncated FRQI state the compiled circuit should match exactly.
    With t the truncated g+, the truncated g- is conj(t): color blocks Re t, -Im t."""
    t = target_state(_phase_spec(img, m), img.n).amplitudes
    amps = np.concatenate([t.real, -t.imag])
    return Statevector(2 * img.n + 1, amps / np.linalg.norm(amps))


def compile_frqi(img: GrayImage, m: int,
                 plan: FSLPlan | None = None) -> tuple[Circuit, CompileReport]:
    """FSL circuit preparing the m-truncated FRQI state on 2n+1 qubits.

    Wire 0 is the color qubit; wires 1..n and n+1..2n are the row and column
    position registers.  The joint loader acts on the color wire plus both
    coefficient registers; after the per-register fan-outs and inverse QFTs a
    final H+S on the color wire rotates |0>,|1> into |+i>,|-i>.  ``plan`` gives
    the loader and capacity; ``assemble`` times and reports the load.
    """
    plan = replace(plan or FSLPlan(n=img.n, m=m), n=img.n, m=m, dims=2)
    check_capacity(plan, lead=1)
    return assemble(phase_spectra(img, m), plan, window_capture(img, m), lead=1,
                    tail=(h(0), phase(math.pi / 2, 0)))


# ---------------------------------------------------------------------------
# PGM (P5) input

# Whitespace, a comment through its newline, or a token; the first byte picks one.
_PGM_HEADER_ITEM = re.compile(rb"\s+|#[^\n]*\n|(?P<token>[^\s#]+)")


def pgm_pixels(data: bytes) -> np.ndarray:
    """The pixels of binary 8-bit PGM bytes as a (side, side) uint8 view of
    ``data``; the image must be square with a power-of-two side."""
    tokens = []
    pos = 0
    while len(tokens) < 4:
        match = _PGM_HEADER_ITEM.match(data, pos)
        if not match:
            raise InvalidImage("truncated PGM header")
        if match.lastgroup == "token":
            tokens.append(match.group())
        pos = match.end()
    if tokens[0] != b"P5":
        raise InvalidImage(f"not a binary PGM (magic {tokens[0]!r})")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise InvalidImage(f"PGM size and maxval must be integers, got {tokens[1:]}") from None
    if min(width, height, maxval) < 1:
        raise InvalidImage(f"PGM size and maxval must be positive, got {tokens[1:]}")
    if maxval != 255:
        raise InvalidImage(f"expected 8-bit PGM (maxval 255), got {maxval}")
    if width != height:
        raise InvalidImage(f"image must be square, got {width}x{height}")
    if width & (width - 1):
        raise InvalidImage(f"side {width} is not a power of two")
    if len(data) - pos - 1 < width * height:
        raise InvalidImage("truncated PGM pixel data")
    return np.frombuffer(data, np.uint8, width * height, pos + 1).reshape(height, width)


def decode_pgm(pixels: np.ndarray) -> GrayImage:
    """The image of ``pgm_pixels``: brightness = pixel/255."""
    return GrayImage(len(pixels), pixels / 255.0)


def read_pgm(path) -> GrayImage:
    """Binary 8-bit PGM; square power-of-two images only, brightness = pixel/255."""
    with open(path, "rb") as fh:
        return decode_pgm(pgm_pixels(fh.read()))
