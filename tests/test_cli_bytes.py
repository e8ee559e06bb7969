"""CLI byte-identity guard: SHA-256 digests of what a fixed set of invocations
prints and writes.

Each case runs ``fsl.cli.main`` in-process and digests its stdout and every
file it emits (``circuit.json``, ``circuit.qasm``, ``report.json``).  Sweep
CSVs are digested without their ``compile_seconds`` column, the one timed
value.  A refactor of the compile path must leave every digest as it is; a
change that means to alter output must re-record them and say why.

``python tests/test_cli_bytes.py`` prints the current tree's digests of every
case as a ``DIGESTS`` literal, to paste over the recorded one.

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
import tempfile
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
    "simulate-tanh-mirror-shots": ["simulate", "--function", "tanh", "--n", "9", "--m", "4",
                                   "--shots", "500"],
    "simulate-tanh-measure-filtered-shots": ["simulate", "--function", "tanh", "--n", "9",
                                             "--m", "4", "--nonperiodic", "measure",
                                             "--filter-a", "0.5", "--shots", "500"],
    "sweep-periodic": ["sweep", "--function", "piecewise", "--n", "10", "--m-range", "2:8"],
    "sweep-mirror-filtered": ["sweep", "--function", "tanh", "--n", "8", "--m-range", "1:5",
                              "--filter-a", "0.5"],
    "sweep-mirror-measure": ["sweep", "--function", "tanh", "--n", "8", "--m-range", "1:5",
                             "--nonperiodic", "measure"],
}

DIGESTS = {
    "expr": {
        "circuit.json": "2b8e63a526179634fa9ccd49554e4aaebaee04a126329b7599993d9e16541fba",
        "circuit.qasm": "b9dbdf2440f16562bbf2baab98b39960f8e8c5f9dba4fd7eeeac2a26c9620f35",
        "exit": 0,
        "report.json": "32d1887540bce2b281b29c51434824eaef9682fb27181ea3374f487101161561",
        "stdout": "32d1887540bce2b281b29c51434824eaef9682fb27181ea3374f487101161561",
    },
    "image": {
        "circuit.json": "2421f914c16e0644dc46f39d1bca15077ac9da8e26d99259e31817e1932a3084",
        "circuit.qasm": "7154660acdec624e39ff46ca834d34d182ecd6d2c0eec557fa39f085d03b35a2",
        "exit": 0,
        "report.json": "6573103dd60b3a94ff162ff4060eaf558640c650be1c195de1b3787c2a2dd580",
        "stdout": "6573103dd60b3a94ff162ff4060eaf558640c650be1c195de1b3787c2a2dd580",
    },
    "mirror-disentangle-filtered": {
        "circuit.json": "c1d1daec4bb37df1834639098268dfb73433f0e4f44a6b35556ac1cef26fc73e",
        "circuit.qasm": "80725590948b0dc7731d0f4d3777ffd8fa9c922fef166cf6f367bf3c2dd064c5",
        "exit": 0,
        "report.json": "09f45a233b9716e86b314e6623c67689c4a1d8ce9fdc37902536567b78c356d5",
        "stdout": "09f45a233b9716e86b314e6623c67689c4a1d8ce9fdc37902536567b78c356d5",
    },
    "mirror-measure-filtered": {
        "circuit.json": "b42bf4144d97249453f50a1afa6d19879e54ad0dde571758353a16b8462f8317",
        "circuit.qasm": "953336bf0add2c7841623d55f37cc328dc98b14141cba79acf9c445987338abb",
        "exit": 0,
        "report.json": "cbb11f6be6aab099205398cc00861ba59cb6ac1b02b0c95f94c7dded9a33eef6",
        "stdout": "cbb11f6be6aab099205398cc00861ba59cb6ac1b02b0c95f94c7dded9a33eef6",
    },
    "simulate-piecewise-n14": {
        "exit": 0,
        "stdout": "06b0a5d8ae1ff200d5a264c698a2014ecdd6c43579251a9b647f79047a577df9",
    },
    "simulate-shots": {
        "exit": 0,
        "stdout": "08254befc8045afa5a95fa880d1bf6989447ade5be09195980cbfa7d759f47f3",
    },
    "simulate-tanh-measure-filtered-shots": {
        "exit": 0,
        "stdout": "52b73492907235fd7a1102b4dc5cb4aebdeeaa0876e7ba30704e42d18f7ec886",
    },
    "simulate-tanh-mirror-shots": {
        "exit": 0,
        "stdout": "57511e07dd53229372149ad2186b4cf437a9c10c1db2f543ffd258cf8ef6d83c",
    },
    "sinc2d": {
        "circuit.json": "40ecba0201f803c7d5c3d3d3a04bd73e2d24f500213cf0a3ba49f7b8c190364a",
        "circuit.qasm": "f0f2bd7088b0923e45a9ee3bea514a7d2646dda03af578db330c0072d3d01017",
        "exit": 0,
        "report.json": "d2190ff1fcf7fcff537c165dc679f017e17ce62d876037f021dd6afd02561206",
        "stdout": "d2190ff1fcf7fcff537c165dc679f017e17ce62d876037f021dd6afd02561206",
    },
    "sweep-mirror-filtered": {
        "exit": 0,
        "stdout": "c3582b65ec2704ce22fc26824d16feb686261b67b6d0742bd57f6ac05ece084a",
    },
    "sweep-mirror-measure": {
        "exit": 0,
        "stdout": "2fd06a5259640f0e84c09ae5c14cc45a56b38f32db803411c979e98e4d2155b0",
    },
    "sweep-periodic": {
        "exit": 0,
        "stdout": "d81e007cc4a56180f28b6d00b54c9e06cac08212ff8087f807b788eb5273e8ac",
    },
    "ucr-bimodal-n13-m7": {
        "circuit.json": "46e4ffa47afe2d70bc437501f6cf8307bfcef4e82002ee1402fed3e3d933f928",
        "circuit.qasm": "80dce4d2a33db31d6eabd26749c68800d4989c4e1d369cfbc5165da95d8329d1",
        "exit": 0,
        "report.json": "7d6e29db5e54c72e9184d5c2025f66e24e483376fd4aa586b416d91ae8bf782c",
        "stdout": "7d6e29db5e54c72e9184d5c2025f66e24e483376fd4aa586b416d91ae8bf782c",
    },
    "ucr-piecewise-n12-m9": {
        "circuit.json": "69210b4f4a950fbeda4641953550ccc67e8f629f9a934d1592e54f059b1fb8f9",
        "circuit.qasm": "c7634dbc1569b92e588b5334cf89c54b9a7a8e550d5adcdd0bc87b729523dbad",
        "exit": 0,
        "report.json": "acc80cd45321c9eeb7a8ee6b5627221f3bddfbc3335e7aa5b39d4ec682354878",
        "stdout": "acc80cd45321c9eeb7a8ee6b5627221f3bddfbc3335e7aa5b39d4ec682354878",
    },
    "ucr-sinc-n14-m5": {
        "circuit.json": "5f05a9ff15b98ab2f8fdd53469df638cb06beac58d274530453faf8b0e357ecd",
        "circuit.qasm": "aad4d0e5dd5a13cb39e7bb5487f0ae5fe031776669ff89fa1e00e4d5e6534ec7",
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


def _print_digests() -> None:
    """Print every case's digests as a ``DIGESTS = {...}`` literal in this file's layout."""
    print("DIGESTS = {")
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as work:
            digests = case_digests(name, Path(work))
        print(f"    {json.dumps(name)}: {{")
        for key, value in sorted(digests.items()):
            print(f"        {json.dumps(key)}: {json.dumps(value)},")
        print("    },")
    print("}")


if __name__ == "__main__":
    _print_digests()
