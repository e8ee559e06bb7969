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
the numpy version they were recorded with.  They also depend on the BLAS
thread count: they were recorded with OpenBLAS on two or more threads, and
with ``OPENBLAS_NUM_THREADS=1`` the stdout digests of
``simulate-piecewise-n14`` and ``simulate-sinc2d`` differ, because one thread
sums ``np.vdot`` and ``np.linalg.norm`` in another order (the norm of a
2^20-point vector moves in its last digit).  Run the pins with the default
thread count: ``print_literal`` exits non-zero, printing nothing, when
``OPENBLAS_NUM_THREADS=1``.

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
        "circuit.json": "59ec19e13e904864faded82ca49aa4aad3a6a590800ca18f76293418cc145813",
        "circuit.qasm": "82df6b77b5b79c7c9f0233492c56231911c5bc33bf3fbd935070019255332371",
        "exit": 0,
        "report.json": "2197ebb5b50abd22fca06e45d5027a4faa7e1d3a4798a28a15c2e2c3a8965692",
        "stdout": "2197ebb5b50abd22fca06e45d5027a4faa7e1d3a4798a28a15c2e2c3a8965692",
    },
    "expr-2d-x-only": {
        "circuit.json": "f7d2752f0b292cdb773276ae563982cd7c8111d9f4a7f58740aaf0994e1aad60",
        "circuit.qasm": "17e513367eba9052b37a61277efe2c0e8bcafc6477fb46a42a953ad932e22dae",
        "exit": 0,
        "report.json": "024c08f6053fa05b5edbcb420dda16a5abd5f84aef8b60965d0241556a7f4fd1",
        "stdout": "024c08f6053fa05b5edbcb420dda16a5abd5f84aef8b60965d0241556a7f4fd1",
    },
    "gaussian2d": {
        "circuit.json": "acea57ba89cd4c681e6fd851302d4dd3f8d8618645aa9e60f4382d2c59da6170",
        "circuit.qasm": "e6ac7506626900dfb48c45cf66676dd0e825fb5fc0c5c7a9c86f962b4df810b7",
        "exit": 0,
        "report.json": "2f618129c1ba323b15116fd1042a6a14185752ecacb581e14af0013b210bc95e",
        "stdout": "2f618129c1ba323b15116fd1042a6a14185752ecacb581e14af0013b210bc95e",
    },
    "image": {
        "circuit.json": "2421f914c16e0644dc46f39d1bca15077ac9da8e26d99259e31817e1932a3084",
        "circuit.qasm": "7154660acdec624e39ff46ca834d34d182ecd6d2c0eec557fa39f085d03b35a2",
        "exit": 0,
        "report.json": "6573103dd60b3a94ff162ff4060eaf558640c650be1c195de1b3787c2a2dd580",
        "stdout": "6573103dd60b3a94ff162ff4060eaf558640c650be1c195de1b3787c2a2dd580",
    },
    "mirror-disentangle-filtered": {
        "circuit.json": "fe534a958c5063f4be6f327b8345cd795b6ab4e6416f8ee027ad3bf86a6356b2",
        "circuit.qasm": "f5f71085f0462aa3c06c485c2ef8ead1bc789523b283415a17aa53ef13e3023b",
        "exit": 0,
        "report.json": "6b2e1b2fb174177ac907adfdba92bebcdceb25a53cac12e400f8e2fbc8908f12",
        "stdout": "6b2e1b2fb174177ac907adfdba92bebcdceb25a53cac12e400f8e2fbc8908f12",
    },
    "mirror-measure-filtered": {
        "circuit.json": "d86b9756adf7c7f8d0690967a5854561bea5f0a75290bd937ee03141372ffd9b",
        "circuit.qasm": "48049e8114b9eaf6ad4b155691e9a8de658a264e91aa5c5a154d54602b714a1b",
        "exit": 0,
        "report.json": "d6f5a1c45851bf4365dbc625bc216e06ab9a4f8d7f4be0926d45cadc5da59970",
        "stdout": "d6f5a1c45851bf4365dbc625bc216e06ab9a4f8d7f4be0926d45cadc5da59970",
    },
    "simulate-expr-2d-x-only": {
        "exit": 0,
        "stdout": "5036d8b20d221c3df1c5971d063e663f0cf8116cb8e65726641a8b03fc50e9aa",
    },
    "simulate-piecewise-n14": {
        "exit": 0,
        "stdout": "2fc9797bd955ebe69d7d163bf566efce0532867c1594c7861504f5a7c58a61e9",
    },
    "simulate-shots": {
        "exit": 0,
        "stdout": "75b44fed3d87d299cdb90630739b8b0e2b99ba52a8d0c1c278c2a5135b5e8b6c",
    },
    "simulate-sinc2d": {
        "exit": 0,
        "stdout": "720512ec0c7e5f5664b6631e5692e4dc99b5bcc74cfe6418b739ecc346056ab1",
    },
    "simulate-tanh-measure-filtered-shots": {
        "exit": 0,
        "stdout": "6ad8fb3febf7fb841ccbb504b36b91c4d7d3efd26b609d99b561314550819b7b",
    },
    "simulate-tanh-mirror-shots": {
        "exit": 0,
        "stdout": "3562b12357a5b4cb39971382463f59155431ee92b4138eb5d52a7113cc26dc4f",
    },
    "sinc2d": {
        "circuit.json": "7581cf028d8a92ecb93d61513ae3037303dd7e6adaee0b951a52cf8aeabf740d",
        "circuit.qasm": "b7f58b7da4c73fe717e1601cfedc8f9da94a1f61c38cd64e497d55e17243147e",
        "exit": 0,
        "report.json": "c9eb616879ac4564bb15907b8e2477296f60e9ca5cb9ce7ba21bee12969f540e",
        "stdout": "c9eb616879ac4564bb15907b8e2477296f60e9ca5cb9ce7ba21bee12969f540e",
    },
    "sweep-mirror-filtered": {
        "exit": 0,
        "stdout": "dae3a6c84e555a3b15867fd77bf6e055dbe9d25d88adc2a7d11ab3a34b995930",
    },
    "sweep-mirror-measure": {
        "exit": 0,
        "stdout": "f7a0a40f6658bed61960d60bf75520481d84d825418b29e48c0a4c49c52abaf2",
    },
    "sweep-periodic": {
        "exit": 0,
        "stdout": "763291dde28fff659d454b0e66357f2c867532dbaee8d4cd0e953a13926922dc",
    },
    "ucr-bimodal-n13-m7": {
        "circuit.json": "f5af40a5eafbc16dd6da36fa975fb45c9af41182722ac704b1d4ca3ebd0c8e75",
        "circuit.qasm": "1bf297986d34738cfaf3eed2e32012015aee0c954073b6c5c2e5bd175e8008c5",
        "exit": 0,
        "report.json": "bf0fdf6970b58c675b84861aa924313d9dcf60784662e3bd6dca281fdcb1a75a",
        "stdout": "bf0fdf6970b58c675b84861aa924313d9dcf60784662e3bd6dca281fdcb1a75a",
    },
    "ucr-piecewise-n12-m9": {
        "circuit.json": "007d00d1e14cd0865801cb319f9b9e584026e480c0ed0752714f577dff541793",
        "circuit.qasm": "f96fd06c6febfb873370bd72b9e533da8d1b5f0b35e48cafc371fdab88f9d794",
        "exit": 0,
        "report.json": "8846cb78a855ccc528d7bb8cd2f40948e77219fcb669a1f2178c9e85c8dfaf46",
        "stdout": "8846cb78a855ccc528d7bb8cd2f40948e77219fcb669a1f2178c9e85c8dfaf46",
    },
    "ucr-sinc-n14-m5": {
        "circuit.json": "d3e1337eb194441a8f49e8e01519d7acd8a6b28f5f2645ba28607f08edb6a3c9",
        "circuit.qasm": "a7763d4f332f0cf9c37fe1c7c3378d4ace44340b2d8a2bf8d1309bca71b5066b",
        "exit": 0,
        "report.json": "60821f51a9a5daff7a18330073f019e5b470c233e9c8c66782472b1f96081626",
        "stdout": "60821f51a9a5daff7a18330073f019e5b470c233e9c8c66782472b1f96081626",
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
        "depth": 193,
        "gate_counts": {"by_kind": {"CNOT": 66, "CPHASE": 64, "H": 10, "PHASE": 2, "RY": 96,
                                    "RZ": 155},
                        "opaque": 0, "single_qubit": 263, "two_qubit": 130}}),
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
    sorted and a dict value one level deep, to paste over the recorded one.
    Under ``OPENBLAS_NUM_THREADS=1`` it prints nothing and exits non-zero: one
    BLAS thread moves digests that were recorded on two or more."""
    if os.environ.get("OPENBLAS_NUM_THREADS", "").strip() == "1":
        sys.exit(f"not printing {name}: digests are pinned with OpenBLAS on two or more "
                 "threads, and OPENBLAS_NUM_THREADS=1 moves some of them")
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


def test_print_literal_refuses_a_single_blas_thread(monkeypatch, capsys):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    with pytest.raises(SystemExit) as exc:
        print_literal("DIGESTS", {"case": "digest"})
    assert exc.value.code not in (0, None)
    assert capsys.readouterr().out == ""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    print_literal("DIGESTS", {"case": "digest"})
    assert capsys.readouterr().out == 'DIGESTS = {\n    "case": "digest",\n}\n'


def _current_digests() -> dict:
    digests = {}
    for name in CASES:
        with tempfile.TemporaryDirectory() as work:
            digests[name] = case_digests(name, Path(work))
    return digests


if __name__ == "__main__":
    print_literal("DIGESTS", _current_digests())
