"""Image loading: FRQI targets, brightness-phase spectra, and the combined
coefficient compile.

A 2^n x 2^n grayscale image becomes a (2n+1)-qubit state: one color qubit
entangled with two n-qubit position registers.  Writing the FRQI state in the
|+i>, |-i> color basis turns the problem into loading the two conjugate phase
functions g+/- = 2^-n exp(-/+ i pi I / 2), whose spectra are related by
conjugation, so a single 2D DFT feeds one joint coefficient loader on
2(m+1)+1 qubits.
"""
from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass

import numpy as np

from . import fourier
from .circuit import Circuit, h, phase
from .compiler import CompileReport, FSLPlan, Loader, assemble, build_report, check_capacity
from .errors import InvalidImage
from .simulator import DEFAULT_MAX_QUBITS, Statevector


@dataclass(frozen=True)
class GrayImage:
    """Square 2^n x 2^n brightness matrix with values in [0, 1]."""

    side: int
    brightness: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.brightness, dtype=float)
        if b.shape != (self.side, self.side):
            raise InvalidImage(f"expected {self.side}x{self.side}, got {b.shape}")
        n = int(round(math.log2(self.side)))
        if 2**n != self.side:
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


def _g_plus(img: GrayImage) -> np.ndarray:
    return np.exp(-0.5j * np.pi * img.brightness) / img.side


def _negate_frequencies(arr: np.ndarray) -> np.ndarray:
    out = arr[::-1, ::-1]
    return np.roll(out, (1, 1), axis=(0, 1))


def phase_spectra(img: GrayImage, m: int):
    """Normalized joint coefficient state |0>|c+> + |1>|c-> on 2(m+1)+1 qubits.

    Only the g+ spectrum is transformed; c-_k = conj(c+_{-k}).  Returns the
    loader target vector; the captured window mass is `window_capture`.
    """
    if m >= img.n:
        raise ValueError(f"need m < n, got m={m}, n={img.n}")
    c_plus = fourier.dft_coefficients(fourier.GridFunction(2, img.n, _g_plus(img)))
    c_minus = np.conj(_negate_frequencies(c_plus))
    spec_p = fourier.truncate(c_plus, m)
    spec_m = fourier.truncate(c_minus, m)
    vec = np.concatenate([spec_p.wrapped_vector(), spec_m.wrapped_vector()]) / math.sqrt(2)
    return vec


def window_capture(img: GrayImage, m: int) -> float:
    """Spectral mass of g+ inside the window; 1 - this is the FRQI infidelity."""
    c_plus = fourier.dft_coefficients(fourier.GridFunction(2, img.n, _g_plus(img)))
    return fourier.window_mass(c_plus, m)


def frqi_truncated_target(img: GrayImage, m: int) -> Statevector:
    """The m-truncated FRQI state the compiled circuit should match exactly."""
    n = img.n
    size = 2**n
    c_plus = fourier.dft_coefficients(fourier.GridFunction(2, n, _g_plus(img)))
    c_minus = np.conj(_negate_frequencies(c_plus))
    M = 2**m - 1
    sel = np.arange(-M, M + 1)
    keep = np.zeros((size, size), dtype=complex)

    def padded(full):
        win = full[np.ix_(sel % size, sel % size)]
        out = keep.copy()
        out[np.ix_(sel % size, sel % size)] = win
        return fourier.reconstruct(out).reshape(-1)

    gp = padded(c_plus)
    gm = padded(c_minus)
    amps = np.concatenate([(gp + gm) / 2.0, 0.5j * (gp - gm)])
    return Statevector(2 * n + 1, amps / np.linalg.norm(amps))


def compile_frqi(img: GrayImage, m: int, loader: Loader = Loader.UCR, fanout: str = "tree",
                 max_qubits: int = DEFAULT_MAX_QUBITS) -> tuple[Circuit, CompileReport]:
    """FSL circuit preparing the m-truncated FRQI state on 2n+1 qubits.

    Wire 0 is the color qubit; wires 1..n and n+1..2n are the row and column
    position registers.  The joint loader acts on the color wire plus both
    coefficient registers; after the per-register fan-outs and inverse QFTs a
    final H+S on the color wire rotates |0>,|1> into |+i>,|-i>.
    """
    plan = FSLPlan(n=img.n, m=m, dims=2, loader=loader, fanout=fanout, max_qubits=max_qubits)
    check_capacity(plan, lead=1)
    t0 = time.perf_counter()
    circ = assemble(phase_spectra(img, m), plan, lead=1, tail=(h(0), phase(math.pi / 2, 0)))
    return circ, build_report(circ, t0, window_capture(img, m))


# ---------------------------------------------------------------------------
# PGM (P5) input

# Whitespace, a comment through its newline, or a token; the first byte picks one.
_PGM_HEADER_ITEM = re.compile(rb"\s+|#[^\n]*\n|(?P<token>[^\s#]+)")


def read_pgm(path) -> GrayImage:
    """Binary 8-bit PGM; square power-of-two images only, brightness = pixel/255."""
    with open(path, "rb") as fh:
        data = fh.read()
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
    width, height, maxval = (int(t) for t in tokens[1:])
    if maxval != 255:
        raise InvalidImage(f"expected 8-bit PGM (maxval 255), got {maxval}")
    if width != height:
        raise InvalidImage(f"image must be square, got {width}x{height}")
    payload = data[pos + 1:]
    if len(payload) < width * height:
        raise InvalidImage("truncated PGM pixel data")
    pixels = np.frombuffer(payload, dtype=np.uint8, count=width * height)
    return GrayImage(width, pixels.reshape(height, width) / 255.0)


def write_pgm(img: GrayImage, path) -> None:
    pixels = np.round(img.brightness * 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.side} {img.side}\n255\n".encode())
        fh.write(pixels.tobytes())
