"""CLI byte-identity guard: SHA-256 digests of what a fixed set of invocations
prints and writes.

Each case runs ``fsl.cli.main`` in-process and digests its stdout and every
file it emits (``circuit.json``, ``circuit.qasm``, ``report.json``).  Sweep
CSVs are digested without their ``compile_seconds`` column, the one timed
value.  A refactor of the compile path must leave every digest as it is; a
change that means to alter output must re-record them and say why.

``python tests/test_cli_bytes.py`` prints the current tree's digests of every
case as a ``DIGESTS`` literal, to paste over the recorded one, and nothing
else; ``tests/test_compiler.py`` and ``tests/test_simulator.py`` print their
``UNCHANGED`` and ``STATE_DIGESTS`` the same way, through ``print_literal``.

Digests depend on numpy's floating-point kernels, so the test only runs under
the numpy version they were recorded with.  They do not depend on the BLAS
thread count: every norm and overlap the outputs print is summed in chunks a
single OpenBLAS thread takes, the chunk sums added by ``math.fsum``, so one
thread and several give the same bytes, which a fresh process with
``OPENBLAS_NUM_THREADS=1`` checks, and a ``--compare-state`` run at 1 and 2
threads.

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
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import write_pgm
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
    "gaussian2d": ["compile", "--function", "gaussian2d", "--n", "6", "--m", "3", *EMIT],
    "expr-2d-x-only": ["compile", "--expr", "exp(-x) + 0.3*sin(2*pi*x)", "--dims", "2",
                       "--n", "5", "--m", "2", *EMIT],
    "simulate-expr-2d-x-only": ["simulate", "--expr", "exp(-x) + 0.3*sin(2*pi*x)", "--dims",
                                "2", "--n", "6", "--m", "3"],
    "simulate-sinc2d": ["simulate", "--function", "sinc2d", "--n", "8", "--m", "3"],
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
        "circuit.json": "9a72e908fc1882dd16bfa8227692fd8f5ee77cee565e7a23a08cdb3605f5bfb8",
        "circuit.qasm": "be1e40182a9b6504cf0a24e0f6a5a092eb2b4db295a5d43e1111633acd2ac64e",
        "exit": 0,
        "report.json": "b151385b798f070880ce4e13310a4e34f96fa94354c7940a58b650f4b03abe0d",
        "stdout": "b151385b798f070880ce4e13310a4e34f96fa94354c7940a58b650f4b03abe0d",
    },
    "expr-2d-x-only": {
        "circuit.json": "417ad360b7ec45ece019ed7f27c3accb78999680089f78518cc3ef80b53e7c9d",
        "circuit.qasm": "82fa6775d0650d451f6763876c1f37e9e6f0b4862f774b1061d25b7b1c1eb40b",
        "exit": 0,
        "report.json": "6d822440318e616a8df724e94c59351b3df0bebbfb251ee6301259f5e97f469c",
        "stdout": "6d822440318e616a8df724e94c59351b3df0bebbfb251ee6301259f5e97f469c",
    },
    "gaussian2d": {
        "circuit.json": "dfd1e10e667e55e1998238f40b2d0d1464989597f7d7f896f5825a9985c6408e",
        "circuit.qasm": "304ed3cdeea6db53d2a8b16ecd8b1ade2e4d352f8279923948be93fd72be1394",
        "exit": 0,
        "report.json": "d49732dd57f5818c673fb253a7abd664f4850d1e5616a5660dcc82d03a97187c",
        "stdout": "d49732dd57f5818c673fb253a7abd664f4850d1e5616a5660dcc82d03a97187c",
    },
    "image": {
        "circuit.json": "2bf27a48fae0160df42d26f71d7efc4dc49c7a9d8e981f4ff3e9323903788d58",
        "circuit.qasm": "2bbc3a2291179a383f8aeda8af0ac6cf26800f041256883bb14fe9a4666ad885",
        "exit": 0,
        "report.json": "0b17d6eee314c88d72ff627bd59aa1ee827185fa8963a65d55b8eee0e43fdb02",
        "stdout": "0b17d6eee314c88d72ff627bd59aa1ee827185fa8963a65d55b8eee0e43fdb02",
    },
    "mirror-disentangle-filtered": {
        "circuit.json": "f788fdac82a3d84dc0f692679590fa206d70c5fefaa7bd202a333b80865f8b32",
        "circuit.qasm": "a3e234049364ef3f6320c83006d85175f6cb3e7c5b1b156a7a4d4d025505d14b",
        "exit": 0,
        "report.json": "09f45a233b9716e86b314e6623c67689c4a1d8ce9fdc37902536567b78c356d5",
        "stdout": "09f45a233b9716e86b314e6623c67689c4a1d8ce9fdc37902536567b78c356d5",
    },
    "mirror-measure-filtered": {
        "circuit.json": "45fab30225e2007272c26bc521f8a32d1165f46621054441da37b26c3b8942b8",
        "circuit.qasm": "08573013ee3d976930753400f85e80a542d4da6a501c3420ecbacb74e810ca23",
        "exit": 0,
        "report.json": "cbb11f6be6aab099205398cc00861ba59cb6ac1b02b0c95f94c7dded9a33eef6",
        "stdout": "cbb11f6be6aab099205398cc00861ba59cb6ac1b02b0c95f94c7dded9a33eef6",
    },
    "simulate-expr-2d-x-only": {
        "exit": 0,
        "stdout": "0a3df1dde83b455a39b6b1259e92cb4deb56cc76067c4eaacff4e82773d14fd0",
    },
    "simulate-piecewise-n14": {
        "exit": 0,
        "stdout": "503c1a171f5f75b929754effb76bc71a0a8cbd58834a8ebe4efec548725ade45",
    },
    "simulate-shots": {
        "exit": 0,
        "stdout": "d6c2ef5a835798c813730dbd611673bc1d595e197bde852c565c9466b88ca5ec",
    },
    "simulate-sinc2d": {
        "exit": 0,
        "stdout": "bcac479dd96f584c77692c3ddb163b458fc9c1126c5df31acd81778c4318b14f",
    },
    "simulate-tanh-measure-filtered-shots": {
        "exit": 0,
        "stdout": "aa57085146022dfd3b5868a3ae3cf3dfdf8cce07544be21284358913811b2b31",
    },
    "simulate-tanh-mirror-shots": {
        "exit": 0,
        "stdout": "a312c5861de2e42226628937d6df5ce97b5e255a271a9321ace95ea64060d06c",
    },
    "sinc2d": {
        "circuit.json": "e2bb96c1120be2fee66aeaab10a0edf271b6045f505f1e70b3cc2c630fddca7e",
        "circuit.qasm": "f275ca9990317ed9607c9dfcde8e4bf392ab43f41ad3513e32a5543a530c2192",
        "exit": 0,
        "report.json": "411315e03a06f5d707dd0f33ad7137de2ae401780115705a5f7a7aec9002d86e",
        "stdout": "411315e03a06f5d707dd0f33ad7137de2ae401780115705a5f7a7aec9002d86e",
    },
    "sweep-mirror-filtered": {
        "exit": 0,
        "stdout": "5a2e4226a83a367679b11488662f12ce2e6867fffc846ccea28cecc3759585e4",
    },
    "sweep-mirror-measure": {
        "exit": 0,
        "stdout": "acf5943ceb5660c052127aa8574b42c8134569c95faa7b42f1b566cb254df1b9",
    },
    "sweep-periodic": {
        "exit": 0,
        "stdout": "44f50a4e6ba7a3ecc7c8066f1a9f6c0fd26ab2bbe44ab5007deaa2aa083520f2",
    },
    "ucr-bimodal-n13-m7": {
        "circuit.json": "e8fea7e482a2acbe808f29b94511143fb3f1c1a5d7a171aa106757651c803d0c",
        "circuit.qasm": "59e8d37b65a4a24efcc23ad04b627f92ed3bfc9cb28aebffdbd85e92a2347274",
        "exit": 0,
        "report.json": "bc603c3cac9d6ef5d8efa70c6af4c63e5c1aedb4877aa51a615200fcd6061b70",
        "stdout": "bc603c3cac9d6ef5d8efa70c6af4c63e5c1aedb4877aa51a615200fcd6061b70",
    },
    "ucr-piecewise-n12-m9": {
        "circuit.json": "b00edb6d7f77410c4516d693984ac8e01dd3a6b0d904abf8e3d37448daac4812",
        "circuit.qasm": "0ec6008ec7a2692471d873a17cf0c540f6e22ebc535b9592b6df00abcc456b14",
        "exit": 0,
        "report.json": "8846cb78a855ccc528d7bb8cd2f40948e77219fcb669a1f2178c9e85c8dfaf46",
        "stdout": "8846cb78a855ccc528d7bb8cd2f40948e77219fcb669a1f2178c9e85c8dfaf46",
    },
    "ucr-sinc-n14-m5": {
        "circuit.json": "b32796a738089c36ef02ba4b7db1f5a65cf205de3241e41839e3c7f5d71d98f2",
        "circuit.qasm": "468b817a66990b1e6669d9d911a566bfddd90a06b785946a5de7d6ad15a21b3f",
        "exit": 0,
        "report.json": "01c466a8a98152f3ca28c095dcfe37c62078b98fa9c546975ea6a14862806bab",
        "stdout": "01c466a8a98152f3ca28c095dcfe37c62078b98fa9c546975ea6a14862806bab",
    },
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(argv: list, work: Path) -> dict:
    """Exit code, stdout and the text of each emitted file of ``argv``, run in ``work``."""
    # a fixed 16x16 image with every pixel value different from its neighbours'
    write_pgm(work / "image.pgm", ((np.arange(256) * 37 + 11) % 256).reshape(16, 16) / 255)
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
        "depth": 192,
        "gate_counts": {"by_kind": {"CNOT": 66, "CPHASE": 64, "H": 10, "PHASE": 2, "RY": 97,
                                    "RZ": 157},
                        "opaque": 0, "single_qubit": 266, "two_qubit": 130}}),
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


def print_literal(name: str, entries: dict) -> None:
    """Print ``entries`` as a ``name = {...}`` literal in this file's layout, keys
    sorted and a dict value one level deep, to paste over the recorded one."""
    print(f"{name} = {{")
    for key, value in sorted(entries.items()):
        if isinstance(value, dict):
            print(f"    {json.dumps(key)}: {{")
            for k, v in sorted(value.items()):
                print(f"        {json.dumps(k)}: {json.dumps(v)},")
            print("    },")
        else:
            print(f"    {json.dumps(key)}: {json.dumps(value)},")
    print("}")


@pytest.mark.skipif(np.__version__ != RECORDED_NUMPY,
                    reason=f"digests were recorded under numpy {RECORDED_NUMPY}")
def test_digests_hold_on_one_blas_thread():
    # OpenBLAS takes its thread count when it loads, so the cases run in a fresh process
    here = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    code = "import json, test_cli_bytes; print(json.dumps(test_cli_bytes._current_digests()))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == DIGESTS


def test_compare_state_output_holds_on_any_blas_thread_count(tmp_path):
    # 2^18 amplitudes: above the 10000 values OpenBLAS sums on one thread, so a
    # norm or overlap summed by one BLAS call would round by the thread count
    state = tmp_path / "sinc.c16"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--function", "sinc", "--n", "18", "--m", "5",
                     "--state-out", str(state)]) == 0
    argv = ["simulate", "--function", "lorentzian", "--n", "18", "--m", "5",
            "--compare-state", str(state)]
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-m", "fsl.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, "")
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def _current_digests() -> dict:
    digests = {}
    for name in CASES:
        with tempfile.TemporaryDirectory() as work:
            digests[name] = case_digests(name, Path(work))
    return digests


if __name__ == "__main__":
    print_literal("DIGESTS", _current_digests())
