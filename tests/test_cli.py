"""Command-line behavior: outputs, determinism, precedence, and exit codes."""
import argparse
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import write_pgm
from fsl import circuit as cir
from fsl import cli, compiler, fourier, frqi, funcs, simulator
from fsl.cli import SWEEP_COLUMNS, dumps, main

ROOT = Path(__file__).resolve().parent.parent
_SUBPARSERS = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_warnings_as_errors(capsys, *argv):
    """``run_cli`` with every warning raised, so one that would reach stderr fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli(capsys, *argv)


def assert_one_json_error(result, want_code: int):
    """Exit ``want_code``, no stdout, and one stderr line: the documented error object."""
    code, out, err = result
    assert (code, out) == (want_code, "")
    assert len(err.splitlines()) == 1
    assert set(json.loads(err)) == {"error", "message"}


class TestFloatFormatting:
    def test_17_significant_digits(self):
        text = dumps({"x": 1 / 3})
        assert "0.33333333333333331" in text

    def test_round_trip_exact(self):
        value = 0.1234567890123456789
        assert json.loads(dumps({"v": value}))["v"] == value

    def test_nested_structures(self):
        text = dumps({"a": [0.5, {"b": (1.5,)}], "c": None, "d": "s"})
        assert json.loads(text) == {"a": [0.5, {"b": [1.5]}], "c": None, "d": "s"}

    def test_circuit_json_uses_17_significant_digits(self):
        assert "0.33333333333333331" in cir.to_json(cir.Circuit(1, (cir.ry(1 / 3, 0),)))


class TestSubcommandSurface:
    SUBCOMMANDS = ["compile", "simulate", "sweep", "image"]

    def test_docstring_names_every_subcommand(self):
        line = next(ln for ln in cli.__doc__.splitlines() if ln.startswith("Subcommands:"))
        assert re.findall(r"``(\w+)``", line) == self.SUBCOMMANDS

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_subcommand_help_exits_0(self, sub):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0

    def test_bench_is_not_a_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, name", [
        (["compile", "--function", "sinc", "--n", "5", "--m", "2", "--out-dir", "{new}"],
         "fsl_circuit.json"),
        (["image", "--pgm", "{pgm}", "--m", "1", "--out-dir", "{new}"], "fsl_circuit.json"),
        (["sweep", "--function", "sinc", "--n", "5", "--m-range", "1:2", "--out", "{new}/m.csv"],
         "m.csv"),
        (["simulate", "--function", "sinc", "--n", "5", "--m", "2", "--shots", "10",
          "--hist-out", "{new}/h.csv"], "h.csv"),
        (["simulate", "--function", "sinc", "--n", "5", "--m", "2", "--state-out", "{new}/s.c16"],
         "s.c16"),
    ], ids=["out-dir", "image-out-dir", "out", "hist-out", "state-out"])
    def test_output_paths_create_their_directory(self, argv, name, tmp_path, capsys):
        write_pgm(tmp_path / "img.pgm", np.zeros((4, 4)))
        new = tmp_path / "new" / "dir"
        argv = [a.format(new=new, pgm=tmp_path / "img.pgm") for a in argv]
        assert run_cli(capsys, *argv)[::2] == (0, "")
        assert (new / name).is_file()


class TestCompileCommand:
    def test_constant_compiles_to_uniform_state(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "compile", "--function", "constant",
                               "--n", "5", "--m", "2", "--out-dir", str(tmp_path))
        assert code == 0
        circ = cir.from_json((tmp_path / "fsl_circuit.json").read_text())
        state = simulator.run(circ)
        assert np.allclose(state.amplitudes, np.full(32, 2 ** -2.5))
        report = json.loads((tmp_path / "fsl_report.json").read_text())
        assert report["exact_infidelity"] == 0

    def test_identical_invocations_are_byte_identical(self, tmp_path, capsys):
        argv = ["compile", "--function", "lorentzian", "--n", "6", "--m", "3",
                "--emit", "json,qasm"]
        run_cli(capsys, *argv, "--out-dir", str(tmp_path / "a"))
        run_cli(capsys, *argv, "--out-dir", str(tmp_path / "b"))
        for name in ("fsl_circuit.json", "fsl_report.json", "fsl_circuit.qasm"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_schmidt_loader_emits_decomposed_gates(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "compile", "--function", "bimodal_gaussian",
                             "--n", "5", "--m", "2", "--loader", "schmidt",
                             "--emit", "json,qasm", "--out-dir", str(tmp_path))
        assert code == 0
        circ = cir.from_json((tmp_path / "fsl_circuit.json").read_text())
        report = json.loads((tmp_path / "fsl_report.json").read_text())
        assert report["contains_opaque"] is False
        assert report["gate_counts"]["opaque"] == 0
        assert report["depth"] == cir.depth(circ)
        text = (tmp_path / "fsl_circuit.qasm").read_text()
        assert text.startswith("OPENQASM 2.0;")

    def test_circuit_json_is_written_by_circuit_to_json(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "compile", "--function", "bimodal_gaussian",
                             "--n", "5", "--m", "2", "--loader", "schmidt",
                             "--out-dir", str(tmp_path))
        assert code == 0
        text = (tmp_path / "fsl_circuit.json").read_text()
        assert cir.to_json(cir.from_json(text)) + "\n" == text

    def test_expression_mode(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "compile", "--expr", "1 + 0.2*cos(2*pi*x)",
                             "--n", "5", "--m", "2", "--out-dir", str(tmp_path))
        assert code == 0

    def test_report_timing_flag(self, tmp_path, capsys):
        _, out, _ = run_cli(capsys, "compile", "--function", "constant", "--n", "4",
                            "--m", "1", "--timing", "--out-dir", str(tmp_path))
        assert "compile_wall_time_s" in out

    def test_timing_omitted_by_default(self, tmp_path, capsys):
        _, out, _ = run_cli(capsys, "compile", "--function", "constant", "--n", "4",
                            "--m", "1", "--out-dir", str(tmp_path))
        assert "compile_wall_time_s" not in out


class TestSimulateCommand:
    def test_histogram_reproducible_and_accurate(self, tmp_path, capsys):
        argv = ["simulate", "--function", "bimodal_gaussian", "--sqrt-mode",
                "--n", "5", "--m", "2", "--shots", "5000", "--seed", "17"]
        code, out1, _ = run_cli(capsys, *argv, "--hist-out", str(tmp_path / "h1.csv"))
        assert code == 0
        run_cli(capsys, *argv, "--hist-out", str(tmp_path / "h2.csv"))
        assert (tmp_path / "h1.csv").read_bytes() == (tmp_path / "h2.csv").read_bytes()
        result = json.loads(out1)
        assert result["classical_fidelity_vs_function"] >= 0.99
        assert result["fidelity_vs_truncated"] >= 1 - 1e-9

    def test_tanh_defaults_to_mirror_loading(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--function", "tanh",
                               "--n", "6", "--m", "4")
        assert code == 0
        result = json.loads(out)
        assert result["ancilla_zero_population"] >= 1 - 1e-10
        assert result["data_register_fidelity_vs_exact"] > 0.999

    def test_state_dump_and_compare(self, tmp_path, capsys):
        state_file = str(tmp_path / "state.c16")
        base = ["simulate", "--function", "lorentzian", "--n", "5", "--m", "3"]
        code, _, _ = run_cli(capsys, *base, "--state-out", state_file)
        assert code == 0
        code, out, _ = run_cli(capsys, *base, "--compare-state", state_file)
        assert code == 0
        assert json.loads(out)["fidelity_vs_file"] == pytest.approx(1.0)

    def test_oversized_compare_state_exits_3_unread(self, tmp_path, capsys, monkeypatch):
        state_file = tmp_path / "state.c16"
        with open(state_file, "wb") as fh:
            fh.truncate(16 * 2**20)  # sparse: no amplitude is written

        def fromfile(*_, **__):
            raise AssertionError("the state file was read")

        monkeypatch.setattr(np, "fromfile", fromfile)
        result = run_cli(capsys, "simulate", "--function", "lorentzian", "--n", "5", "--m", "2",
                         "--compare-state", str(state_file))
        assert_one_json_error(result, 3)
        err = json.loads(result[2])
        assert err["error"] == "DimensionMismatch"
        assert f"{16 * 2**20} bytes" in err["message"] and f"{16 * 2**5} bytes" in err["message"]

    @pytest.mark.parametrize("fill", [0.0, np.nan], ids=["all-zero", "all-nan"])
    def test_unnormalizable_compare_state_exits_3(self, fill, tmp_path, capsys):
        state_file = tmp_path / "state.c16"
        np.full(2**5, fill, dtype="<c16").tofile(state_file)
        result = run_cli_warnings_as_errors(capsys, "simulate", "--function", "lorentzian",
                                            "--n", "5", "--m", "2",
                                            "--compare-state", str(state_file))
        assert_one_json_error(result, 3)
        assert json.loads(result[2])["error"] == "NonUnitNorm"

    @pytest.mark.parametrize("size", [0, 7, 16 * 2**5 + 3], ids=["empty", "short", "trailing"])
    def test_partial_compare_state_exits_3(self, size, tmp_path, capsys):
        state_file = tmp_path / "state.c16"
        base = ["simulate", "--function", "lorentzian", "--n", "5", "--m", "2"]
        assert run_cli(capsys, *base, "--state-out", str(state_file))[0] == 0
        state_file.write_bytes((state_file.read_bytes() + b"\0" * 3)[:size])
        result = run_cli_warnings_as_errors(capsys, *base, "--compare-state", str(state_file))
        assert_one_json_error(result, 3)
        err = json.loads(result[2])
        assert err["error"] == "DimensionMismatch" and f"{size} bytes" in err["message"]

    @pytest.mark.parametrize("function, n, m, nonperiodic", [("piecewise", 6, 3, "auto"),
                                                             ("sinc2d", 3, 1, "auto"),
                                                             ("tanh", 6, 3, "disentangle"),
                                                             ("tanh", 6, 3, "measure")])
    def test_shots_score_matches_the_per_load_marginal(self, function, n, m, nonperiodic,
                                                       tmp_path, capsys):
        hist_file = tmp_path / "hist.csv"
        code, out, _ = run_cli(capsys, "simulate", "--function", function, "--n", str(n),
                               "--m", str(m), "--nonperiodic", nonperiodic, "--shots", "3000",
                               "--hist-out", str(hist_file))
        assert code == 0
        rows = [line.split(",") for line in hist_file.read_text().split()[1:]]
        hist = simulator.ShotHistogram({int(k): int(c) for k, c in rows}, 3000)
        target = np.abs(funcs.sample(funcs.builtin(function), n).samples.reshape(-1)) ** 2
        if nonperiodic != "auto":  # ancilla outcome 1 complements the data register
            zero, one = hist.probabilities(2 * len(target)).reshape(2, -1)
            empirical = zero + one[::-1]
        else:
            empirical = hist.probabilities(len(target))
        assert json.loads(out)["classical_fidelity_vs_function"] == \
            simulator.classical_fidelity(empirical, target)

    def test_measure_shots_score_the_function_like_disentangle(self, capsys):
        """The measure variant's ancilla-1 shots hold the mirrored half, which
        the post-processing rule complements back onto the function."""
        scores = {}
        for variant in ("measure", "disentangle"):
            code, out, _ = run_cli(capsys, "simulate", "--function", "tanh", "--n", "6",
                                   "--m", "3", "--nonperiodic", variant, "--shots", "3000")
            assert code == 0
            scores[variant] = json.loads(out)["classical_fidelity_vs_function"]
        assert scores["measure"] == pytest.approx(scores["disentangle"], abs=0.01)

    @pytest.mark.parametrize("shots", ["0", "-5"])
    def test_shots_below_one_exit_3(self, shots, capsys):
        assert_one_json_error(run_cli(capsys, "simulate", "--function", "piecewise", "--n", "5",
                                      "--m", "2", "--shots", shots), 3)

    def test_compare_state_dimension_mismatch_exits_3(self, tmp_path, capsys):
        state_file = str(tmp_path / "state.c16")
        run_cli(capsys, "simulate", "--function", "constant", "--n", "4", "--m", "1",
                "--state-out", state_file)
        code, _, err = run_cli(capsys, "simulate", "--function", "constant",
                               "--n", "5", "--m", "1", "--compare-state", state_file)
        assert code == 3
        assert json.loads(err)["error"] == "DimensionMismatch"


class TestFullScaleThroughCli:
    def test_xpowx_at_full_scale(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "compile", "--function", "xpowx", "--n", "20",
                               "--m", "6", "--loader", "ucr", "--emit", "none",
                               "--out-dir", str(tmp_path))
        assert code == 0
        assert json.loads(out)["exact_infidelity"] < 1e-6

    def test_sinc_simulates_at_22_qubits(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--function", "sinc", "--n", "22",
                               "--m", "6")
        assert code == 0
        assert json.loads(out)["fidelity_vs_truncated"] >= 1 - 1e-9

    def test_piecewise_sweep_slope_from_csv(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--function", "piecewise",
                               "--n", "14", "--m-range", "2:9")
        assert code == 0
        rows = [r.split(",") for r in out.strip().split("\n")[1:]]
        ms = [int(r[0]) for r in rows]
        logs = [-np.log2(float(r[1])) for r in rows]
        slope = np.polyfit(ms, logs, 1)[0]
        assert slope == pytest.approx(1.0, abs=0.3)

    def test_ucr_compile_and_export_builds_no_gate_objects(self, tmp_path, capsys, monkeypatch):
        # the m=14 loader's 131k gates go from synthesis to both files as
        # columns; a Gate object may stand only for a caller's tail, and this
        # load has none
        made = []
        post_init, view = cir.Gate.__post_init__, getattr(cir, "_view", None)
        monkeypatch.setattr(cir.Gate, "__post_init__", lambda g: made.append(g) or post_init(g))
        monkeypatch.setattr(cir, "_view", lambda *a: made.append(a) or view(*a), raising=False)
        code, out, _ = run_cli(capsys, "compile", "--function", "piecewise", "--n", "20",
                               "--m", "14", "--emit", "json,qasm", "--out-dir", str(tmp_path))
        assert code == 0
        assert json.loads(out)["gate_counts"]["single_qubit"] > 65000
        assert (tmp_path / "fsl_circuit.qasm").stat().st_size > 2_000_000
        assert len(made) < 100


class TestSweepCommand:
    def test_schema_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--function", "piecewise",
                               "--n", "10", "--m-range", "2:4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == SWEEP_COLUMNS
        assert len(lines) == 4
        ms = [int(row.split(",")[0]) for row in lines[1:]]
        assert ms == [2, 3, 4]
        eps = [float(row.split(",")[1]) for row in lines[1:]]
        assert eps == sorted(eps, reverse=True)
        bounds = [float(row.split(",")[2]) for row in lines[1:]]
        assert all(e <= b for e, b in zip(eps, bounds))

    def test_constant_sweep_is_all_zero_infidelity(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--function", "constant",
                               "--n", "8", "--m-range", "2:5")
        assert code == 0
        for row in out.strip().split("\n")[1:]:
            assert float(row.split(",")[1]) <= 1e-14

    def test_2d_sweep_leaves_bound_empty(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--function", "gaussian2d",
                               "--n", "4", "--m-range", "1:2")
        assert code == 0
        for row in out.strip().split("\n")[1:]:
            assert row.split(",")[2] == ""

    def test_file_output(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--function", "xpowx", "--n", "8",
                             "--m-range", "2:3", "--out", str(out_file))
        assert code == 0
        assert out_file.read_text().startswith(SWEEP_COLUMNS)

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--function", "constant",
                               "--n", "6", "--m-range", "5-2")
        assert code == 2
        assert json.loads(err)["error"] == "ConfigError"

    def test_top_of_range_is_checked_before_sampling(self, capsys, monkeypatch):
        calls = []
        sample = funcs.sample
        monkeypatch.setattr(funcs, "sample", lambda *a, **k: calls.append(a) or sample(*a, **k))
        code, out, err = run_cli(capsys, "sweep", "--function", "piecewise",
                                 "--n", "16", "--m-range", "3:16")
        assert code == 3
        assert out == ""
        assert "need 0 <= m < n" in json.loads(err)["message"]
        assert calls == []

    @pytest.mark.parametrize("function, n, filter_a", [
        ("piecewise", 8, None), ("piecewise", 8, 0.5), ("gaussian2d", 4, None)])
    def test_rows_equal_one_compile_per_m(self, capsys, monkeypatch, function, n, filter_a):
        dfts = []
        dft = fourier.spectrum
        monkeypatch.setattr(fourier, "spectrum", lambda g: dfts.append(g) or dft(g))
        flags = [] if filter_a is None else ["--filter-a", str(filter_a)]
        code, out, _ = run_cli(capsys, "sweep", "--function", function, "--n", str(n),
                               "--m-range", "1:3", *flags)
        assert code == 0
        assert len(dfts) == 1  # one DFT serves every window
        monkeypatch.undo()
        grid = funcs.sample(funcs.builtin(function), n)
        want = []
        for m in range(1, 4):
            spec = compiler.prepare_spec(grid, m, filter_a)
            _, report = compiler.compile_spec(spec, compiler.FSLPlan(n=n, m=m, dims=grid.dims),
                                              source=grid)
            bound = "" if report.analytic_bound is None else cli._fmt(report.analytic_bound)
            want.append([str(m), cli._fmt(report.exact_infidelity), bound, str(report.depth),
                         str(report.gate_counts.single_qubit),
                         str(report.gate_counts.two_qubit)])
        rows = out.strip().split("\n")
        assert rows[0] == SWEEP_COLUMNS
        assert [row.split(",")[:-1] for row in rows[1:]] == want  # all but compile_seconds


    @pytest.mark.parametrize("filter_a", [None, 0.5])
    def test_mirror_rows_take_one_extension_and_one_dft(self, capsys, monkeypatch, filter_a):
        calls = {"dft": 0, "mirror": 0}
        dft, mirror = fourier.spectrum, fourier.mirror_extend

        def count(name, f):
            return lambda g: calls.__setitem__(name, calls[name] + 1) or f(g)

        monkeypatch.setattr(fourier, "spectrum", count("dft", dft))
        monkeypatch.setattr(fourier, "mirror_extend", count("mirror", mirror))
        flags = [] if filter_a is None else ["--filter-a", str(filter_a)]
        code, out, _ = run_cli(capsys, "sweep", "--function", "tanh", "--n", "8",
                               "--m-range", "1:5", *flags)
        assert code == 0
        assert calls == {"dft": 1, "mirror": 1}  # one extension and spectrum serve every m
        monkeypatch.undo()
        grid = funcs.sample(funcs.builtin("tanh"), 8)
        want = []
        for m in range(1, 6):
            _, report = compiler.compile_nonperiodic(
                grid, m, compiler.NonperiodicVariant.DISENTANGLE, filter_a=filter_a)
            want.append([str(m), cli._fmt(report.exact_infidelity), cli._fmt(report.analytic_bound),
                         str(report.depth), str(report.gate_counts.single_qubit),
                         str(report.gate_counts.two_qubit)])
        rows = out.strip().split("\n")
        assert rows[0] == SWEEP_COLUMNS
        assert [row.split(",")[:-1] for row in rows[1:]] == want  # all but compile_seconds

    def test_schmidt_rows_equal_the_compile_report(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--function", "piecewise", "--n", "6",
                               "--m-range", "1:4", "--loader", "schmidt")
        assert code == 0
        rows = [row.split(",") for row in out.strip().split("\n")[1:]]
        for m, row in zip(range(1, 5), rows, strict=True):
            code, out, _ = run_cli(capsys, "compile", "--function", "piecewise", "--n", "6",
                                   "--m", str(m), "--loader", "schmidt", "--emit", "none")
            assert code == 0
            report = json.loads(out)
            counts = report["gate_counts"]
            assert row[3:6] == [str(report["depth"]), str(counts["single_qubit"]),
                                str(counts["two_qubit"])]

    def test_bound_difference_taken_once_per_sweep(self, capsys, monkeypatch):
        calls = []
        diff = fourier._forward_difference
        monkeypatch.setattr(fourier, "_forward_difference",
                            lambda s, order: calls.append(order) or diff(s, order))
        code, _, _ = run_cli(capsys, "sweep", "--function", "piecewise", "--n", "9",
                             "--m-range", "1:6")
        assert code == 0
        assert calls == [1]  # only the cot(pi 2^m / 2^n) factor is per row


class TestOneLoadPath:
    """compile, simulate and sweep sample once and take one spectrum (the mirror
    extension's on the mirror path) for every load they compile."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"sample": 0, "dft": 0, "mirror": 0}
        for module, name, key in ((funcs, "sample", "sample"), (fourier, "spectrum", "dft"),
                                  (fourier, "mirror_extend", "mirror")):
            def counted(*a, f=getattr(module, name), key=key, **k):
                calls[key] += 1
                return f(*a, **k)
            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("command", [["compile", "--m", "3", "--emit", "none"],
                                         ["simulate", "--m", "3", "--shots", "100"],
                                         ["sweep", "--m-range", "1:3"]])
    @pytest.mark.parametrize("nonperiodic, mirrors", [("none", 0), ("disentangle", 1),
                                                      ("measure", 1)])
    def test_one_sample_one_dft_and_one_extension(self, calls, command, nonperiodic, mirrors,
                                                  capsys):
        code, _, _ = run_cli(capsys, *command, "--function", "tanh", "--n", "6",
                             "--nonperiodic", nonperiodic)
        assert code == 0
        assert calls == {"sample": 1, "dft": 1, "mirror": mirrors}

    @pytest.mark.parametrize("command", ["compile", "simulate"])
    @pytest.mark.parametrize("nonperiodic", ["none", "disentangle"])
    def test_m_not_below_n_exits_3_before_sampling(self, calls, command, nonperiodic, capsys):
        result = run_cli(capsys, command, "--function", "tanh", "--n", "6", "--m", "6",
                         "--nonperiodic", nonperiodic)
        assert_one_json_error(result, 3)
        assert "need 0 <= m < n" in json.loads(result[2])["message"]
        assert calls == {"sample": 0, "dft": 0, "mirror": 0}


    @pytest.mark.parametrize("argv", [
        ["compile", "--function", "piecewise", "--n", "8", "--m", "3", "--emit", "json"],
        ["compile", "--function", "gaussian2d", "--n", "5", "--m", "2", "--emit", "none"],
        ["simulate", "--function", "sinc2d", "--n", "5", "--m", "2", "--shots", "50"],
        ["simulate", "--function", "tanh", "--n", "6", "--m", "3"],
        ["simulate", "--function", "complex_cosines", "--n", "6", "--m", "2"],
        ["sweep", "--function", "piecewise", "--n", "7", "--m-range", "1:4"],
        ["sweep", "--function", "tanh", "--n", "6", "--m-range", "1:3", "--filter-a", "0.5"],
        ["image", "--pgm", "{pgm}", "--m", "1", "--simulate", "--emit", "none"],
    ])
    def test_no_command_builds_the_full_spectrum(self, argv, tmp_path, capsys, monkeypatch):
        write_pgm(tmp_path / "img.pgm", np.random.default_rng(2).random((8, 8)))

        def full(*_):
            raise AssertionError("the full spectrum was built")

        monkeypatch.setattr(fourier, "dft_coefficients", full)
        monkeypatch.setattr(fourier.Spectrum, "full", full)
        argv = [a.format(pgm=tmp_path / "img.pgm") for a in argv]
        code, _, err = run_cli(capsys, *argv, *(["--out-dir", str(tmp_path)] * (
            argv[0] in ("compile", "image"))))
        assert (code, err) == (0, "")


class TestImageCommand:
    def test_compile_and_simulate_small_image(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        pgm = tmp_path / "img.pgm"
        write_pgm(pgm, rng.random((8, 8)))
        code, out, _ = run_cli(capsys, "image", "--pgm", str(pgm), "--m", "1",
                               "--simulate", "--out-dir", str(tmp_path))
        assert code == 0
        result = json.loads(out)
        assert result["image_side"] == 8
        assert result["fidelity_vs_truncated_frqi"] >= 1 - 1e-9
        assert (tmp_path / "fsl_circuit.json").exists()

    def test_simulate_takes_one_phase_dft(self, tmp_path, capsys, monkeypatch):
        write_pgm(tmp_path / "img.pgm", np.random.default_rng(1).random((8, 8)))
        dfts = []
        dft = fourier.spectrum
        monkeypatch.setattr(fourier, "spectrum", lambda g: dfts.append(g) or dft(g))
        code, _, _ = run_cli(capsys, "image", "--pgm", str(tmp_path / "img.pgm"), "--m", "1",
                             "--simulate", "--emit", "none")
        assert code == 0
        assert len(dfts) == 1  # compile and truncated target share one spectrum of g+

    def test_missing_file_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "image", "--pgm", "/nonexistent.pgm", "--m", "1")
        assert code == 3

    @pytest.fixture
    def decoded(self, monkeypatch):
        """Sides of the images built from pixels, counted at construction."""
        sides = []

        class Counted(frqi.GrayImage):
            def __post_init__(self):
                sides.append(self.side)
                super().__post_init__()

        monkeypatch.setattr(frqi, "GrayImage", Counted)
        return sides

    def test_capacity_checked_before_pixels_are_decoded(self, decoded, tmp_path, capsys):
        pgm = tmp_path / "big.pgm"
        pgm.write_bytes(b"P5\n1024 1024\n255\n" + bytes(1024 * 1024))
        result = run_cli(capsys, "image", "--pgm", str(pgm), "--m", "2", "--max-qubits", "5")
        assert_one_json_error(result, 4)
        assert json.loads(result[2])["error"] == "CapacityExceeded"
        assert decoded == []

    def test_m_not_below_n_exits_3_before_pixels_are_decoded(self, decoded, tmp_path, capsys):
        pgm = tmp_path / "img.pgm"
        pgm.write_bytes(b"P5\n16 16\n255\n" + bytes(256))
        result = run_cli(capsys, "image", "--pgm", str(pgm), "--m", "4")
        assert_one_json_error(result, 3)
        assert "need 0 <= m < n" in json.loads(result[2])["message"]
        assert decoded == []

    @pytest.mark.parametrize("header", [b"P5\n12 12\n255\n", b"P5\n16 8\n255\n",
                                        b"P5\n16 16\n15\n", b"P2\n16 16\n255\n"])
    def test_header_faults_exit_3_before_the_capacity_check(self, header, decoded, tmp_path,
                                                            capsys):
        pgm = tmp_path / "bad.pgm"
        pgm.write_bytes(header + bytes(256))
        result = run_cli(capsys, "image", "--pgm", str(pgm), "--m", "1", "--max-qubits", "1")
        assert_one_json_error(result, 3)
        assert json.loads(result[2])["error"] == "InvalidImage"
        assert decoded == []


class TestSchmidtLoadThroughCli:
    """A Schmidt load is one gate-level circuit: simulate, compile, sweep and
    image report, verify and export the same gates."""

    @pytest.mark.parametrize("function, n, m", [("piecewise", 8, 3), ("tanh", 6, 3),
                                                ("sinc2d", 4, 2)])
    def test_simulate_reports_the_circuit_compile_writes(self, function, n, m, capsys):
        argv = ["--function", function, "--n", str(n), "--m", str(m), "--loader", "schmidt"]
        code, out, _ = run_cli(capsys, "simulate", *argv)
        assert code == 0
        result = json.loads(out)
        code, out, _ = run_cli(capsys, "compile", *argv, "--emit", "none")
        assert code == 0
        assert result["report"] == json.loads(out)
        assert result["report"]["gate_counts"]["opaque"] == 0
        fidelity = result.get("fidelity_vs_truncated", result.get("ancilla_zero_population"))
        assert fidelity >= 1 - 1e-9

    @pytest.mark.parametrize("function", ["piecewise", "tanh"])
    def test_m0_reaches_the_ucr_state(self, function, tmp_path, capsys):
        argv = ["simulate", "--function", function, "--n", "5", "--m", "0"]
        state = str(tmp_path / "ucr.c16")
        assert run_cli(capsys, *argv, "--state-out", state)[0] == 0
        code, out, _ = run_cli(capsys, *argv, "--loader", "schmidt", "--compare-state", state)
        assert code == 0
        result = json.loads(out)
        assert result["fidelity_vs_file"] >= 1 - 1e-9
        assert result.get("fidelity_vs_truncated", 1.0) >= 1 - 1e-9

    @pytest.mark.parametrize("function", ["piecewise", "tanh"])
    def test_sweep_from_m0(self, function, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--function", function, "--n", "6",
                               "--m-range", "0:3", "--loader", "schmidt")
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 4

    def test_image_simulate_reports_the_compiled_counts(self, tmp_path, capsys):
        pgm = tmp_path / "img.pgm"
        write_pgm(pgm, np.random.default_rng(2).random((8, 8)))
        argv = ["image", "--pgm", str(pgm), "--m", "1", "--loader", "schmidt", "--emit", "none"]
        code, out, _ = run_cli(capsys, *argv, "--simulate")
        assert code == 0
        simulated = json.loads(out)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        compiled = json.loads(out)
        assert simulated["fidelity_vs_truncated_frqi"] >= 1 - 1e-9
        assert (simulated["depth"], simulated["gate_counts"]) == \
            (compiled["depth"], compiled["gate_counts"])
        assert compiled["gate_counts"]["opaque"] == 0


class TestConfigAndErrors:
    def test_unknown_function_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "compile", "--function", "nope",
                               "--n", "5", "--m", "2")
        assert code == 2
        assert json.loads(err)["error"] == "ConfigError"

    def test_bad_expression_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "compile", "--expr", "__import__('os')",
                               "--n", "5", "--m", "2")
        assert code == 2

    def test_m_not_below_n_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "compile", "--function", "constant",
                               "--n", "4", "--m", "4")
        assert code == 3

    def test_capacity_env_var_exits_4(self, capsys, monkeypatch):
        monkeypatch.setenv("FSL_MAX_QUBITS", "6")
        code, _, err = run_cli(capsys, "compile", "--function", "constant",
                               "--n", "8", "--m", "2")
        assert code == 4
        assert json.loads(err)["error"] == "CapacityExceeded"

    def test_capacity_env_var_can_raise_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("FSL_MAX_QUBITS", "30")
        code, _, _ = run_cli(capsys, "simulate", "--function", "constant",
                             "--n", "8", "--m", "2")
        assert code == 0

    def test_capacity_flag_and_config_beat_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FSL_MAX_QUBITS", "6")
        code, _, _ = run_cli(capsys, "compile", "--function", "constant", "--n", "8",
                             "--m", "2", "--max-qubits", "30", "--out-dir", str(tmp_path))
        assert code == 0
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"max_qubits": 30}))
        code, _, _ = run_cli(capsys, "compile", "--function", "constant", "--n", "8",
                             "--m", "2", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == 0

    def test_capacity_flag_below_one_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "compile", "--function", "constant",
                               "--n", "5", "--m", "2", "--max-qubits", "0")
        assert code == 2
        assert json.loads(err)["error"] == "ConfigError"

    @pytest.mark.parametrize("text", [None, "{", '["n", 6]'])
    def test_unreadable_or_non_object_config_exits_2(self, text, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        if text is not None:
            cfg.write_text(text)
        result = run_cli(capsys, "compile", "--function", "constant", "--n", "5", "--m", "2",
                         "--config", str(cfg))
        assert_one_json_error(result, 2)
        assert json.loads(result[2])["error"] == "ConfigError"

    def test_non_integer_capacity_env_var_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("FSL_MAX_QUBITS", "abc")
        result = run_cli(capsys, "compile", "--function", "constant", "--n", "5", "--m", "2")
        assert_one_json_error(result, 2)
        assert json.loads(result[2]) == {"error": "ConfigError",
                                         "message": "FSL_MAX_QUBITS='abc' is not an integer"}

    def test_empty_m_range_exits_2(self, capsys):
        result = run_cli(capsys, "sweep", "--function", "constant", "--n", "6",
                         "--m-range", "5:3")
        assert_one_json_error(result, 2)
        assert json.loads(result[2]) == {"error": "ConfigError",
                                         "message": "empty range '5:3'"}

    def test_negative_capacity_env_var_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("FSL_MAX_QUBITS", "-5")
        code, _, err = run_cli(capsys, "compile", "--function", "constant",
                               "--n", "5", "--m", "2")
        assert code == 2
        assert json.loads(err)["error"] == "ConfigError"

    def test_csv_is_not_an_emit_target(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "compile", "--function", "sinc", "--n", "5",
                                 "--m", "2", "--emit", "csv", "--out-dir", str(tmp_path))
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "ConfigError",
                                   "message": "unknown emit target(s) ['csv']"}
        assert list(tmp_path.iterdir()) == []

    def test_bad_emit_target_fails_before_the_capacity_check(self, capsys):
        code, out, err = run_cli(capsys, "compile", "--function", "sinc", "--n", "60",
                                 "--m", "2", "--emit", "csv")
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "ConfigError",
                                   "message": "unknown emit target(s) ['csv']"}

    def test_bad_emit_target_fails_before_reading_the_image(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "image", "--pgm", str(tmp_path / "missing.pgm"),
                                 "--m", "1", "--emit", "csv")
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "ConfigError",
                                   "message": "unknown emit target(s) ['csv']"}

    @pytest.mark.parametrize("expr, constant", [("x + 1j", "1j"), ("x + 'a'", "'a'")])
    def test_non_real_constant_exits_2(self, expr, constant, capsys):
        result = run_cli(capsys, "compile", "--expr", expr, "--n", "5", "--m", "2",
                         "--emit", "none")
        assert_one_json_error(result, 2)
        assert json.loads(result[2]) == {"error": "ConfigError",
                                         "message": f"constant {constant} not allowed"}

    @pytest.mark.parametrize("argv, message", [
        # the lanczos filter zeroes |k| = 1 and leaves k = 0's rounding residue
        (["--expr", "cos(2*pi*x)", "--n", "6", "--m", "1", "--filter-a", "100"],
         "filter removed all spectral mass"),
        # every mode of the function lies outside |k| <= 3
        (["--expr", "cos(2*pi*16*x)", "--n", "8", "--m", "2"],
         "window |k|<=3 captures no spectral mass"),
    ])
    def test_window_of_rounding_residue_exits_3(self, argv, message, capsys):
        result = run_cli(capsys, "compile", *argv, "--emit", "none")
        assert_one_json_error(result, 3)
        assert json.loads(result[2]) == {"error": "EmptyWindow", "message": message}

    def test_arithmetic_overflow_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "compile", "--expr", "x + 10**400",
                               "--n", "5", "--m", "2", "--emit", "none")
        assert code == 3
        assert json.loads(err)["error"] == "OverflowError"

    def test_cli_import_leaves_out_scipy_integrate(self):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run([sys.executable, "-c", "import sys, fsl.cli; "
                               "print('scipy.integrate' in sys.modules)"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.stdout.strip() == "False"

    def test_cli_import_leaves_out_scipy_linalg(self):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run([sys.executable, "-c", "import sys, fsl.cli; "
                               "print('scipy.linalg' in sys.modules)"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.stdout.strip() == "False"

    def test_tower_of_powers_fails_fast_with_exit_3(self):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run([sys.executable, "-m", "fsl.cli", "compile", "--expr",
                               "x + 10**10**9", "--n", "5", "--m", "2", "--emit", "none"],
                              env=env, capture_output=True, text=True, timeout=30)
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["error"] == "OverflowError"

    @pytest.mark.parametrize("expr", ["x+" + "1" * 400, "x" + "+x" * 2000, "-" * 20000 + "x"],
                             ids=["huge-literal", "long-sum", "deep-minus"])
    def test_pathological_expression_exits_2(self, expr, capsys):
        code, out, err = run_cli(capsys, "compile", f"--expr={expr}", "--n", "5", "--m", "2",
                                 "--emit", "none")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ConfigError"

    # n=40 only: its 2^40-point grid cannot be allocated, so the failure is immediate.
    @pytest.mark.parametrize("command", [["compile", "--m", "3"], ["sweep", "--m-range", "3:4"]])
    def test_capacity_checked_before_sampling(self, command, capsys):
        code, _, err = run_cli(capsys, *command, "--function", "sinc", "--n", "40")
        assert code == 4
        assert json.loads(err)["error"] == "CapacityExceeded"

    def test_grid_too_large_for_memory_exits_4(self, capsys):
        code, _, err = run_cli(capsys, "compile", "--function", "sinc", "--n", "40", "--m", "3",
                               "--max-qubits", "50")
        assert code == 4
        assert "MemoryError" in json.loads(err)["error"]

    def test_huge_n_fails_fast_whatever_max_qubits_says(self, capsys):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "compile", "--function", "sinc", "--n", "1000000000",
                               "--m", "2", "--max-qubits", "1000000000")
        assert time.perf_counter() - start < 2
        assert code == 4
        assert json.loads(err)["error"] == "CapacityExceeded"

    @pytest.mark.parametrize("command, key, value", [
        (command, key, value)
        for command, sub in _SUBPARSERS.items()
        for key, action in sub.get_default("flags").items() if action.choices
        for value in ("periodic", action.choices[0].upper())])
    def test_config_value_outside_its_choices_exits_2(self, command, key, value, tmp_path,
                                                      capsys):
        pgm = tmp_path / "img.pgm"
        write_pgm(pgm, np.zeros((4, 4)))
        job = {"function": "constant", "n": 4, "m": 1, "m_range": "1:2", "pgm": str(pgm),
               "emit": "none", "out_dir": str(tmp_path)}  # a valid job for every subcommand
        (tmp_path / "ok.json").write_text(json.dumps(job))
        (tmp_path / "bad.json").write_text(json.dumps({**job, key: value}))
        assert run_cli(capsys, command, "--config", str(tmp_path / "ok.json"))[0] == 0
        result = run_cli(capsys, command, "--config", str(tmp_path / "bad.json"))
        assert_one_json_error(result, 2)
        error = json.loads(result[2])
        assert error["error"] == "ConfigError" and repr(key) in error["message"]

    def test_config_file_provides_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"function": "lorentzian", "n": 5, "m": 2,
                                   "loader": "schmidt", "prefix": "cfg_"}))
        code, _, _ = run_cli(capsys, "compile", "--config", str(cfg),
                             "--loader", "ucr", "--out-dir", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "cfg_report.json").read_text())
        assert report["contains_opaque"] is False
        circ = cir.from_json((tmp_path / "cfg_circuit.json").read_text())
        assert circ.num_qubits == 5
        kinds = {g.kind.value for g in circ.gates}
        assert "RY" in kinds  # ucr loader gates, not an opaque pair

    @pytest.mark.parametrize("values", [
        {"expr": 5, "n": 5, "m": 2},
        {"function": "constant", "n": "abc", "m": 2},
        {"function": "constant", "n": 5.5, "m": 2},
        {"function": "constant", "n": True, "m": 2},
        {"function": "constant", "n": 5, "m": 2, "filter_a": "2"},
        {"function": "constant", "n": 5, "m": 2, "sqrt_mode": 1},
        {"function": "constant", "n": 5, "m": 2, "param": "width=2"},
        {"function": "constant", "n": 5, "m": 2, "out_dir": None},
    ], ids=["int-expr", "string-n", "float-n", "bool-n", "string-float", "int-switch",
            "bare-repeatable", "null-string"])
    def test_config_value_of_wrong_type_exits_2(self, values, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(values))
        code, out, err = run_cli(capsys, "compile", "--config", str(cfg), "--emit", "none")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ConfigError"

    def test_config_takes_integer_for_float_flag_and_list_for_repeatable(self, tmp_path,
                                                                          capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"function": "lorentzian", "n": 5, "m": 2, "filter_a": 2,
                                   "sqrt_mode": False, "param": ["sigma=0.2"]}))
        code, out, _ = run_cli(capsys, "compile", "--config", str(cfg), "--emit", "none")
        assert code == 0
        assert json.loads(out)["contains_opaque"] is False

    @pytest.mark.parametrize("values", [{"expr": "log(x)"}, {"expr": "1/x"},
                                        {"expr": "exp(1000*x)"}, {"expr": "exp(700*x)"},
                                        {"function": "sinc", "filter_a": float("nan")}],
                             ids=["log", "reciprocal", "exp-overflow", "norm-overflow",
                                  "nan-filter"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_finite_values_exit_3_with_one_json_line(self, values, source, tmp_path,
                                                         capsys):
        if source == "config":  # json.dump writes NaN, and json.load reads it
            (tmp_path / "job.json").write_text(json.dumps(values))
            argv = ["--config", str(tmp_path / "job.json")]
        else:
            argv = [a for k, v in values.items() for a in (f"--{k.replace('_', '-')}", str(v))]
        result = run_cli_warnings_as_errors(capsys, "compile", *argv, "--n", "5", "--m", "2",
                                            "--emit", "none")
        assert_one_json_error(result, 3)
        assert "RZ" not in json.loads(result[2])["message"]  # blames the input, not a gate

    @pytest.mark.parametrize("argv", [
        ["bogus"], [], ["simulate", "--n", "abc"], ["compile", "--bogus"],
        ["simulate", "--function", "sinc", "--n", "6", "--m", "2", "--shots", "1.5"],
        ["sweep", "--function", "sinc", "--n", "6", "--m-range"],
        ["compile", "--function", "sinc", "--n", "6", "--m", "2", "--loader", "dense"],
    ])
    def test_argparse_errors_print_one_json_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert_one_json_error((exc.value.code, captured.out, captured.err), 2)
        assert json.loads(captured.err)["error"] == "ConfigError"

    def test_argparse_error_is_one_json_line_in_a_fresh_process(self):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run([sys.executable, "-m", "fsl.cli", "simulate", "--n", "abc"],
                              env=env, capture_output=True, text=True, timeout=30)
        assert_one_json_error((proc.returncode, proc.stdout, proc.stderr), 2)
        assert "--n" in json.loads(proc.stderr)["message"]

    def test_flag_value_with_a_leading_dash_reads_like_equals(self, tmp_path, capsys):
        got = []
        for i, expr in enumerate([["--expr", "-x"], ["--expr=-x"], ["--ex", "-x"]]):
            out = tmp_path / str(i)
            result = run_cli(capsys, "compile", *expr, "--n", "4", "--m", "1",
                             "--emit", "json,qasm", "--out-dir", str(out))
            got.append((result, [(p.name, p.read_bytes()) for p in sorted(out.iterdir())]))
        assert got[0][0][0] == 0 and len(got[0][1]) == 3
        assert got[0] == got[1] == got[2]

    @pytest.mark.parametrize("argv, message", [
        (["compile", "--expr", "--n", "4", "--m", "1"], "argument --expr: expected one argument"),
        # a prefix of a flag is a flag too, on either side
        (["compile", "--ex", "--em", "json", "--n", "4", "--m", "1"],
         "argument --expr: expected one argument"),
        # --timing takes no value, so the dash word after its prefix stays a word
        (["compile", "--function", "sinc", "--n", "4", "--m", "1", "--tim", "-x"],
         "unrecognized arguments: -x"),
        # sweep has no --m, so --m begins two long flags and is left for argparse to report
        (["sweep", "--function", "sinc", "--n", "5", "--m", "-1:3"],
         "ambiguous option: --m could match --max-qubits, --m-range"),
    ], ids=["value-is-a-flag", "value-is-a-flag-prefix", "prefix-of-a-switch", "ambiguous-prefix"])
    def test_flag_is_not_taken_as_a_missing_value(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert_one_json_error((exc.value.code, captured.out, captured.err), 2)
        assert json.loads(captured.err)["message"] == message

    @pytest.mark.parametrize("flag", ["--m-range", "--m-r"])
    def test_dash_range_reaches_the_range_check(self, flag, capsys):
        result = run_cli(capsys, "sweep", "--function", "sinc", "--n", "5", flag, "-1:3")
        assert_one_json_error(result, 2)
        assert json.loads(result[2])["message"] == "expected LO:HI range, got '-1:3'"

    def test_numpy_warnings_stay_off_stderr_in_a_fresh_process(self):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run([sys.executable, "-m", "fsl.cli", "compile", "--expr", "log(x)",
                               "--n", "5", "--m", "2", "--filter-a", "nan", "--emit", "none"],
                              env=env, capture_output=True, text=True, timeout=30)
        assert_one_json_error((proc.returncode, proc.stdout, proc.stderr), 3)

    def test_parser_warnings_stay_off_stderr_in_a_fresh_process(self):
        # "1if" makes the parser warn about an invalid decimal literal
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run([sys.executable, "-m", "fsl.cli", "compile", "--expr", "1if x else 2",
                               "--n", "4", "--m", "1", "--emit", "none"],
                              env=env, capture_output=True, text=True, timeout=30)
        assert_one_json_error((proc.returncode, proc.stdout, proc.stderr), 2)

    @pytest.mark.parametrize("command", ["compile", "simulate"])
    def test_config_keys_named_like_internals_are_ignored(self, command, tmp_path, capsys):
        job = {"function": "lorentzian", "n": 5, "m": 2}
        (tmp_path / "plain.json").write_text(json.dumps(job))
        (tmp_path / "odd.json").write_text(json.dumps(
            {**job, "__class__": "x", "func": 1, "values": [2], "command": "image",
             "flags": {"n": 3}, "fanout": "sequential"}))
        emit = ["--emit", "none"] if command == "compile" else []
        want = run_cli(capsys, command, "--config", str(tmp_path / "plain.json"), *emit)
        got = run_cli(capsys, command, "--config", str(tmp_path / "odd.json"), *emit)
        assert got[0] == 0 and got == want

    def test_job_holds_one_key_per_flag(self, tmp_path):
        (tmp_path / "job.json").write_text(json.dumps({"n": 5, "loader": "schmidt"}))
        args = cli.build_parser().parse_args(["compile", "--config", str(tmp_path / "job.json"),
                                              "--function", "sinc", "--n", "6"])
        job = cli._merge_config(args)
        assert set(job) == set(args.flags)
        assert (job["n"], job["loader"], job["m"]) == (6, "schmidt", None)
        assert "fanout" not in job  # the balanced tree is the only fan-out

    def test_both_function_and_expr_rejected(self, capsys):
        code, _, err = run_cli(capsys, "compile", "--function", "constant",
                               "--expr", "x", "--n", "4", "--m", "1")
        assert code == 2

    def test_param_without_a_value_exits_2(self, capsys):
        result = run_cli(capsys, "compile", "--function", "lorentzian", "--n", "5", "--m", "2",
                         "--param", "sigma", "--emit", "none")
        assert_one_json_error(result, 2)
        assert json.loads(result[2]) == {"error": "ConfigError",
                                         "message": "--param expects name=value, got 'sigma'"}

    @pytest.mark.parametrize("mode", ["disentangle", "measure"])
    def test_mirror_load_of_a_2d_builtin_exits_2(self, mode, capsys):
        result = run_cli(capsys, "compile", "--function", "sinc2d", "--n", "4", "--m", "2",
                         "--nonperiodic", mode, "--emit", "none")
        assert_one_json_error(result, 2)
        assert json.loads(result[2])["error"] == "ConfigError"

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("values, fault", [
        ({"expr": "x", "param": ["a=1"]}, "--expr takes none"),
        ({"function": "piecewise", "dims": 2}, "piecewise has D=1, got --dims 2"),
        ({"function": "sinc2d", "dims": 1}, "sinc2d has D=2, got --dims 1"),
    ], ids=["param-with-expr", "dims-2-for-1d", "dims-1-for-2d"])
    def test_flag_the_function_would_ignore_exits_2(self, values, fault, source, tmp_path,
                                                    capsys):
        if source == "config":
            (tmp_path / "job.json").write_text(json.dumps(values))
            argv = ["--config", str(tmp_path / "job.json")]
        else:
            argv = [a for k, v in values.items()
                    for a in (f"--{k}", *(v if isinstance(v, list) else [str(v)]))]
        result = run_cli(capsys, "compile", *argv, "--n", "4", "--m", "1", "--emit", "none")
        assert_one_json_error(result, 2)
        error = json.loads(result[2])
        assert error["error"] == "ConfigError" and fault in error["message"]

    @pytest.mark.parametrize("argv", [["--function", "piecewise", "--dims", "1"],
                                      ["--function", "sinc2d", "--dims", "2"],
                                      ["--expr", "x*y", "--dims", "2"]])
    def test_dims_that_agrees_is_accepted(self, argv, capsys):
        assert run_cli(capsys, "compile", *argv, "--n", "4", "--m", "1", "--emit", "none")[0] == 0

    def test_missing_n_reports_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"function": "constant", "m": 2}))
        code, _, err = run_cli(capsys, "compile", "--config", str(cfg))
        assert code == 2



# Integers skip 9..39, so no example samples a large grid: n >= 40 fails at the
# capacity check, at its MAX_WIRES ceiling or at the grid's allocation.
_FUZZ_INTS = st.one_of(st.integers(max_value=8), st.integers(min_value=40, max_value=2**62))
_FUZZ_SOURCES = st.one_of(
    st.fixed_dictionaries({"function": st.sampled_from(
        ["sinc", "constant", "lorentzian", "sinc2d", "tanh", "bogus"])}),
    st.fixed_dictionaries({"expr": st.one_of(
        st.sampled_from(["x", "sin(2*pi*x)", "x*y", "exp(x"]), st.text(max_size=8))}))
_FUZZ_WELL_TYPED = {
    "param": st.lists(st.sampled_from(["sigma=0.2", "sigma=-1", "sigma=x", "nope"]), max_size=2),
    "dims": _FUZZ_INTS, "max_qubits": _FUZZ_INTS, "seed": _FUZZ_INTS,
    "filter_a": st.floats(), "sqrt_mode": st.booleans(), "timing": st.booleans(),
    "loader": st.sampled_from(["ucr", "schmidt", "qsd"]),
    "nonperiodic": st.sampled_from(["auto", "none", "disentangle", "measure", "mirror"]),
    "emit": st.text(max_size=8), "out_dir": st.text(max_size=8), "prefix": st.text(max_size=8),
}
_FUZZ_KEYS = sorted(["function", "expr", "n", "m", *_FUZZ_WELL_TYPED])
_FUZZ_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _FUZZ_INTS, st.floats(), st.text(max_size=12)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_FUZZ_SOURCES,
       st.fixed_dictionaries({"n": _FUZZ_INTS, "m": _FUZZ_INTS}, optional=_FUZZ_WELL_TYPED),
       st.dictionaries(st.sampled_from(_FUZZ_KEYS), _FUZZ_JSON, max_size=2))
def test_config_fuzz_exits_with_a_documented_code(tmp_path_factory, source, typed, arbitrary):
    """Well-typed values reach the compiler; arbitrary JSON values join them."""
    cfg = tmp_path_factory.getbasetemp() / "fuzz-job.json"
    cfg.write_text(json.dumps({**source, **typed, **arbitrary}))
    assert main(["compile", "--config", str(cfg), "--emit", "none"]) in (0, 2, 3, 4)
