"""CLI byte-identity guard: SHA-256 digests of what a fixed set of invocations
prints and writes.

Each case runs ``fsl.cli.main`` in-process and digests its stdout and every
file it emits (``circuit.json``, ``circuit.qasm``, ``report.json``).  Sweep
CSVs are digested without their ``compile_seconds`` column, the one timed
value.  A refactor of the compile path must leave every digest as it is; a
change that means to alter output must re-record them and say why.

Digests depend on numpy's floating-point kernels, so the test only runs under
the numpy version they were recorded with.  Schmidt loads are left out: the
SVD completes its unitaries on the zero-singular-value subspace in a way that
is not canonical, so their gates can change with the last bit of the input.
"""
import contextlib
import hashlib
import io
from pathlib import Path

import numpy as np
import pytest

from fsl.cli import main

RECORDED_NUMPY = "2.4.6"

EMIT = ["--emit", "json,qasm"]

CASES = {
    "ucr-piecewise-n12-m9": ["compile", "--function", "piecewise", "--n", "12", "--m", "9", *EMIT],
    "ucr-sinc-n14-m5": ["compile", "--function", "sinc", "--n", "14", "--m", "5", *EMIT],
    "ucr-bimodal-n13-m7": ["compile", "--function", "bimodal_gaussian", "--n", "13", "--m", "7",
                           *EMIT],
    "mirror-disentangle-filtered": ["compile", "--function", "tanh", "--n", "10", "--m", "4",
                                    "--nonperiodic", "disentangle", "--filter-a", "0.5", *EMIT],
    "mirror-measure-filtered": ["compile", "--function", "tanh", "--n", "10", "--m", "4",
                                "--nonperiodic", "measure", "--filter-a", "0.5", *EMIT],
    "sinc2d": ["compile", "--function", "sinc2d", "--n", "6", "--m", "3", *EMIT],
    "expr": ["compile", "--expr", "sin(2*pi*x) + 0.5*x^2 + exp(-x)", "--n", "10", "--m", "5",
             *EMIT],
    "image": ["image", "--pgm", "{pgm}", "--m", "2", *EMIT],
    "simulate-shots": ["simulate", "--function", "lorentzian", "--n", "9", "--m", "4",
                       "--shots", "500"],
    "simulate-piecewise-n14": ["simulate", "--function", "piecewise", "--n", "14", "--m", "5"],
    "sweep-periodic": ["sweep", "--function", "piecewise", "--n", "10", "--m-range", "2:8"],
    "sweep-mirror-filtered": ["sweep", "--function", "tanh", "--n", "8", "--m-range", "1:5",
                              "--filter-a", "0.5"],
}

DIGESTS = {
    "expr": {
        "circuit.json": "c67af2f2d4d9548bee064099a46b69f6db1a7aec6c1ef05cef40b6fdae439c15",
        "circuit.qasm": "ed948a835b6e858dc0249fd9045389a20920d3123b1f6557dc6528235e667f5e",
        "exit": 0,
        "report.json": "32d1887540bce2b281b29c51434824eaef9682fb27181ea3374f487101161561",
        "stdout": "32d1887540bce2b281b29c51434824eaef9682fb27181ea3374f487101161561",
    },
    "image": {
        "circuit.json": "53b55bbec555ca6ab22b075772199d96329cc76bd0b3b7ea718dc824d41d5132",
        "circuit.qasm": "dc569476affbe619304e3da9ab03a6af357ddd30c68ed4e76b327e0b9da0f1f1",
        "exit": 0,
        "report.json": "6573103dd60b3a94ff162ff4060eaf558640c650be1c195de1b3787c2a2dd580",
        "stdout": "6573103dd60b3a94ff162ff4060eaf558640c650be1c195de1b3787c2a2dd580",
    },
    "mirror-disentangle-filtered": {
        "circuit.json": "d84e39b8e7b1b7483a146a6a1781ff1483b4106dbd546bef4c70e28532614a79",
        "circuit.qasm": "3fe8a5ff8d19661f6a4a63ccc4ad29456dc994d93b500e2b58bffb03b8311ec2",
        "exit": 0,
        "report.json": "09f45a233b9716e86b314e6623c67689c4a1d8ce9fdc37902536567b78c356d5",
        "stdout": "09f45a233b9716e86b314e6623c67689c4a1d8ce9fdc37902536567b78c356d5",
    },
    "mirror-measure-filtered": {
        "circuit.json": "b2e1371bcd0613966dab8ad6ecb184d7cd477da14ed8e7c7bed525765b190a27",
        "circuit.qasm": "2f8526325410addd9347c4d8a32e4154ca8d641b3cc3789786b6d45418fc731b",
        "exit": 0,
        "report.json": "cbb11f6be6aab099205398cc00861ba59cb6ac1b02b0c95f94c7dded9a33eef6",
        "stdout": "cbb11f6be6aab099205398cc00861ba59cb6ac1b02b0c95f94c7dded9a33eef6",
    },
    "simulate-piecewise-n14": {
        "exit": 0,
        "stdout": "dc5c04511bc9d53c3aa12f939d1a49f79b585ba0c36b0125901262b622a3921c",
    },
    "simulate-shots": {
        "exit": 0,
        "stdout": "ad5198bd1162e31d991a2719d9ec881d55449c16fb3953523524a71e6554a1fe",
    },
    "sinc2d": {
        "circuit.json": "7b0f9c03cfd03b0b389987bc32be199feabb5efc2b77dff56f4bb2e6fe4b20e8",
        "circuit.qasm": "3230668c9d5b16622f3edab837d339a2ebf750c8a2f503d362cbc0c2d6d2fe23",
        "exit": 0,
        "report.json": "d4eded5846d724d8cbd09b6f8a615b082508f0e116502f98f1b75c99f0670dae",
        "stdout": "d4eded5846d724d8cbd09b6f8a615b082508f0e116502f98f1b75c99f0670dae",
    },
    "sweep-mirror-filtered": {
        "exit": 0,
        "stdout": "c3582b65ec2704ce22fc26824d16feb686261b67b6d0742bd57f6ac05ece084a",
    },
    "sweep-periodic": {
        "exit": 0,
        "stdout": "d81e007cc4a56180f28b6d00b54c9e06cac08212ff8087f807b788eb5273e8ac",
    },
    "ucr-bimodal-n13-m7": {
        "circuit.json": "690e536b883944cf44d9c23069c799279f0c38916ff9dd0b0d34c146fccf617d",
        "circuit.qasm": "5c7a935ca2399d2021885da316a6cad3ab0210f10ef684118ff6914eca8e37b1",
        "exit": 0,
        "report.json": "7d6e29db5e54c72e9184d5c2025f66e24e483376fd4aa586b416d91ae8bf782c",
        "stdout": "7d6e29db5e54c72e9184d5c2025f66e24e483376fd4aa586b416d91ae8bf782c",
    },
    "ucr-piecewise-n12-m9": {
        "circuit.json": "0419916212636697fa0651b482462713a52918822700f308108fa87bd8816f5e",
        "circuit.qasm": "745ce5df9e31a60d74bff45b3bfba0a9365e4ebf6fd8b60d39ac9393282f2eca",
        "exit": 0,
        "report.json": "acc80cd45321c9eeb7a8ee6b5627221f3bddfbc3335e7aa5b39d4ec682354878",
        "stdout": "acc80cd45321c9eeb7a8ee6b5627221f3bddfbc3335e7aa5b39d4ec682354878",
    },
    "ucr-sinc-n14-m5": {
        "circuit.json": "4f545d544cfd869eba2e49fb7ee61e118dece47cb8e0d2a8f4bffd4fbe66889a",
        "circuit.qasm": "d63ee3e5b5a0004638d2ad6eeb2ff8761af57bdf392b231d0ea5f07d509da08d",
        "exit": 0,
        "report.json": "a7cdefea2d04642494c1a0b0967771d52baf5b3635297ce434ff69b8cac0ff7a",
        "stdout": "a7cdefea2d04642494c1a0b0967771d52baf5b3635297ce434ff69b8cac0ff7a",
    },
}


def _write_pgm(path: Path) -> None:
    """A fixed 16x16 8-bit image with every pixel value different from its neighbours'."""
    pixels = (np.arange(256) * 37 + 11) % 256
    path.write_bytes(b"P5\n16 16\n255\n" + pixels.astype(np.uint8).tobytes())


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def case_digests(name: str, work: Path) -> dict:
    """Exit code and the digest of each output of case ``name``, run in ``work``."""
    _write_pgm(work / "image.pgm")
    argv = [a.format(pgm=work / "image.pgm") for a in CASES[name]]
    if "--emit" in argv:
        argv += ["--out-dir", str(work / "out"), "--prefix", "c_"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    stdout = out.getvalue()
    if argv[0] == "sweep":
        stdout = "".join(line.rsplit(",", 1)[0] + "\n" for line in stdout.splitlines())
    got = {"exit": code, "stdout": _digest(stdout)}
    for path in sorted((work / "out").glob("c_*")):
        got[path.name[2:]] = _digest(path.read_text())
    return got


@pytest.mark.skipif(np.__version__ != RECORDED_NUMPY,
                    reason=f"digests were recorded under numpy {RECORDED_NUMPY}")
@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_recorded_digests(name, tmp_path):
    assert case_digests(name, tmp_path) == DIGESTS[name]
