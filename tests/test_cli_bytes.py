"""CLI byte-identity guard: SHA-256 digests of what a fixed set of invocations
prints and writes.

Each case runs ``fsl.cli.main`` in-process and digests its stdout and every
file it emits (``circuit.json``, ``circuit.qasm``, ``report.json``).  Sweep
CSVs are digested without their ``compile_seconds`` column, the one timed
value.  A refactor of the compile path must leave every digest as it is; a
change that means to alter output must re-record them and say why.

Digests depend on numpy's floating-point kernels, so the test only runs under
the numpy version they were recorded with.

A Schmidt compile also goes through LAPACK (the SVD and the Shannon
decomposition of U and V), whose last bits move with the BLAS kernels the CPU
selects, so its angles are not pinned by bytes.  Its test digests the outputs
with every angle taken out, which fixes gate kinds, wires, counts, depth and
the output permutation, and checks the angles by the state they prepare: the
UCR compile's state, to 1e-12 up to a global phase.  The structure is
reproducible because ``schmidt_decompose`` fixes each Schmidt pair's phase and
completes U and V on the zero-singular-value subspace canonically.  Two
low-rank Schmidt compiles, which take the rank-aware isometry path, are
pinned by their report's counts and depth and checked by state the same way.
"""
import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from fsl import funcs
from fsl.circuit import from_json, gate_counts
from fsl.cli import main
from fsl.compiler import prepare_spec
from fsl.simulator import run
from fsl.synth import build_ucr_circuit, schmidt_decompose

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
        "stdout": "886fcda90c220a3971294acda919834a7b5b015f3d1cb13bf1723f51ed0ba2ed",
    },
    "sinc2d": {
        "circuit.json": "59c1f4326871bf8f41af9981825ab8e0716c815d27bcce2cae6639715ed59699",
        "circuit.qasm": "ca67d61292418ebde92130372e5077f3dbbf86b8f667ca817838c26d446cdbc0",
        "exit": 0,
        "report.json": "d2190ff1fcf7fcff537c165dc679f017e17ce62d876037f021dd6afd02561206",
        "stdout": "d2190ff1fcf7fcff537c165dc679f017e17ce62d876037f021dd6afd02561206",
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
        "circuit.json": "700ae43b37d77f2d540a7a110f89269cf6046fdaba9f764fedb844528740b139",
        "circuit.qasm": "8c054016239429634c481833ae4aa5c6b978527e4d27ac19f3a858547ab2ee98",
        "exit": 0,
        "report.json": "5cc5b5a506c323c908d8a7eb3c485f56755e348c62e6d8a4e60d9e03ffae4fe6",
        "stdout": "5cc5b5a506c323c908d8a7eb3c485f56755e348c62e6d8a4e60d9e03ffae4fe6",
    },
}


def _write_pgm(path: Path) -> None:
    """A fixed 16x16 8-bit image with every pixel value different from its neighbours'."""
    pixels = (np.arange(256) * 37 + 11) % 256
    path.write_bytes(b"P5\n16 16\n255\n" + pixels.astype(np.uint8).tobytes())


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(argv: list, work: Path) -> dict:
    """Exit code, stdout and the text of each emitted file of ``argv``, run in ``work``."""
    _write_pgm(work / "image.pgm")
    argv = [a.format(pgm=work / "image.pgm") for a in argv]
    if "--emit" in argv:
        argv += ["--out-dir", str(work / "out"), "--prefix", "c_"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    stdout = out.getvalue()
    if argv[0] == "sweep":
        stdout = "".join(line.rsplit(",", 1)[0] + "\n" for line in stdout.splitlines())
    got = {"exit": code, "stdout": stdout}
    for path in sorted((work / "out").glob("c_*")):
        got[path.name[2:]] = path.read_text()
    return got


def case_digests(name: str, work: Path) -> dict:
    """Exit code and the digest of each output of case ``name``, run in ``work``."""
    return {key: value if key == "exit" else _digest(value)
            for key, value in run_case(CASES[name], work).items()}


@pytest.mark.skipif(np.__version__ != RECORDED_NUMPY,
                    reason=f"digests were recorded under numpy {RECORDED_NUMPY}")
@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_recorded_digests(name, tmp_path):
    assert case_digests(name, tmp_path) == DIGESTS[name]


SCHMIDT_ARGV = ["compile", "--function", "piecewise", "--n", "10", "--m", "5", *EMIT]
# Digests of circuit.json without its angles and of circuit.qasm with every
# gate argument blanked, and report.json without its two float values.
SCHMIDT_STRUCTURE = {
    "circuit.json": "d6047a74e9f3367d7c1a9e6b83aebb4072e1c74fa6035fc08a8079c46185b3f2",
    "circuit.qasm": "ebb93b4028569a0576fec7466cfa5fa0f4b33446c3c10b71905579fdd92069b5",
}
SCHMIDT_REPORT = {
    "contains_opaque": False,
    "depth": 83,
    "gate_counts": {"by_kind": {"CNOT": 47, "CPHASE": 51, "H": 10, "PHASE": 2, "RY": 57, "RZ": 90},
                    "opaque": 0, "single_qubit": 159, "two_qubit": 98},
}
SCHMIDT_FLOATS = {"analytic_bound": 0.01414566290553763, "exact_infidelity": 0.003116132230376545}


def _without_angles(outputs: dict) -> tuple[dict, list, list]:
    """Structure digests of a compile's circuit files, with the angles of
    circuit.json and the gate arguments of circuit.qasm in file order."""
    circuit = json.loads(outputs["circuit.json"])
    angles = [g.pop("angle") for g in circuit["gates"] if "angle" in g]
    qasm = outputs["circuit.qasm"]
    args = [float(a) for a in re.findall(r"\(([^)]*)\)", qasm)]
    return ({"circuit.json": _digest(json.dumps(circuit, sort_keys=True)),
             "circuit.qasm": _digest(re.sub(r"\([^)]*\)", "()", qasm))}, angles, args)


@pytest.mark.skipif(np.__version__ != RECORDED_NUMPY,
                    reason=f"structure was recorded under numpy {RECORDED_NUMPY}")
def test_schmidt_compile_matches_recorded_structure(tmp_path):
    for sub in ("schmidt", "ucr"):
        (tmp_path / sub).mkdir()
    got = run_case([*SCHMIDT_ARGV, "--loader", "schmidt"], tmp_path / "schmidt")
    assert got["exit"] == 0
    assert got["stdout"] == got["report.json"]
    report = json.loads(got["report.json"])
    floats = {key: report.pop(key) for key in SCHMIDT_FLOATS}
    assert report == SCHMIDT_REPORT
    assert floats == pytest.approx(SCHMIDT_FLOATS, rel=1e-9)
    structure, angles, args = _without_angles(got)
    assert structure == SCHMIDT_STRUCTURE
    assert args == angles
    _assert_same_state(got, run_case(SCHMIDT_ARGV, tmp_path / "ucr"))


def _assert_same_state(got: dict, want: dict) -> None:
    """The two compiles' circuits prepare one state, to 1e-12 up to a global phase."""
    a, b = (run(from_json(out["circuit.json"])).amplitudes for out in (got, want))
    overlap = np.vdot(b, a)
    assert np.max(np.abs(a - overlap / abs(overlap) * b)) < 1e-12


# Schmidt rank 1 (sinc2d, a product across its two registers) and 2
# (complex_cosines): the report's depth and counts, recorded like SCHMIDT_REPORT.
LOW_RANK = {
    "sinc2d": (["compile", "--function", "sinc2d", "--n", "6", "--m", "3"], {
        "depth": 39,
        "gate_counts": {"by_kind": {"CNOT": 32, "CPHASE": 30, "H": 12, "RY": 30},
                        "opaque": 0, "single_qubit": 42, "two_qubit": 62}}),
    "complex_cosines": (["compile", "--function", "complex_cosines", "--n", "10", "--m", "6"], {
        "depth": 193,
        "gate_counts": {"by_kind": {"CNOT": 66, "CPHASE": 64, "H": 10, "PHASE": 2, "RY": 96,
                                    "RZ": 157},
                        "opaque": 0, "single_qubit": 265, "two_qubit": 130}}),
}


def _loader_two_qubit(vec) -> int:
    return gate_counts(build_ucr_circuit(vec)).two_qubit


@pytest.mark.skipif(np.__version__ != RECORDED_NUMPY,
                    reason=f"counts were recorded under numpy {RECORDED_NUMPY}")
@pytest.mark.parametrize("name", sorted(LOW_RANK))
def test_low_rank_schmidt_compile_matches_recorded_counts(name, tmp_path):
    argv, want = LOW_RANK[name]
    for sub in ("schmidt", "ucr"):
        (tmp_path / sub).mkdir()
    got, ucr = (run_case([*argv, *EMIT, "--loader", loader], tmp_path / loader)
                for loader in ("schmidt", "ucr"))
    assert got["exit"] == 0
    report = json.loads(got["report.json"])
    assert {key: report[key] for key in want} == want
    _assert_same_state(got, ucr)
    if name == "sinc2d":  # rank 1: the loader is a UCR load of each register's factor
        vec = prepare_spec(funcs.sample(funcs.builtin(name), 6), 3).wrapped_vector()
        form = schmidt_decompose(vec)
        halves = (form.u_matrix[:, 0], form.v_matrix[:, 0])
        joint = json.loads(ucr["report.json"])["gate_counts"]["two_qubit"]
        assert report["gate_counts"]["two_qubit"] - joint == \
            sum(map(_loader_two_qubit, halves)) - _loader_two_qubit(vec)
