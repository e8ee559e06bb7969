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
        report = json.loads((tmp_path / "fsl_report.json").read_text())
        assert report["contains_opaque"] is False
        text = (tmp_path / "fsl_circuit.qasm").read_text()
        assert text.startswith("OPENQASM 2.0;")

    @pytest.mark.parametrize("loader", ["ucr", "schmidt"])
    def test_export_reads_the_opaque_flag_from_the_report(self, tmp_path, capsys,
                                                         monkeypatch, loader):
        # the gate counts already say whether the loader is opaque; no rescan
        def rescan(self):
            raise AssertionError("Circuit.has_opaque called")
        monkeypatch.setattr(cir.Circuit, "has_opaque", rescan)
        code, _, _ = run_cli(capsys, "compile", "--function", "bimodal_gaussian",
                             "--n", "5", "--m", "2", "--loader", loader,
                             "--emit", "json,qasm", "--out-dir", str(tmp_path))
        assert code == 0
        circ = cir.from_json((tmp_path / "fsl_circuit.json").read_text())
        report = json.loads((tmp_path / "fsl_report.json").read_text())
        assert report["contains_opaque"] is False
        assert report["gate_counts"]["opaque"] == 0
        assert report["depth"] == cir.depth(circ)

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
        if nonperiodic != "auto":  # the two branches that one marginal expression replaced
            empirical = hist.probabilities(2 * len(target)).reshape(2, -1).sum(axis=0)
        else:
            empirical = hist.probabilities(len(target))
        assert json.loads(out)["classical_fidelity_vs_function"] == \
            simulator.classical_fidelity(empirical, target)

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
        # columns; a Gate object may stand only for a caller's tail or an
        # opaque gate, and this load has neither
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
        dft = fourier.dft_coefficients
        monkeypatch.setattr(fourier, "dft_coefficients", lambda g: dfts.append(g) or dft(g))
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
        dft, mirror = fourier.dft_coefficients, fourier.mirror_extend

        def count(name, f):
            return lambda g: calls.__setitem__(name, calls[name] + 1) or f(g)

        monkeypatch.setattr(fourier, "dft_coefficients", count("dft", dft))
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


class TestImageCommand:
    def test_compile_and_simulate_small_image(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        img = frqi.GrayImage(8, rng.random((8, 8)))
        pgm = tmp_path / "img.pgm"
        frqi.write_pgm(img, pgm)
        code, out, _ = run_cli(capsys, "image", "--pgm", str(pgm), "--m", "1",
                               "--simulate", "--out-dir", str(tmp_path))
        assert code == 0
        result = json.loads(out)
        assert result["image_side"] == 8
        assert result["fidelity_vs_truncated_frqi"] >= 1 - 1e-9
        assert (tmp_path / "fsl_circuit.json").exists()

    def test_simulate_takes_one_phase_dft(self, tmp_path, capsys, monkeypatch):
        frqi.write_pgm(frqi.GrayImage(8, np.random.default_rng(1).random((8, 8))),
                       tmp_path / "img.pgm")
        dfts = []
        dft = fourier.dft_coefficients
        monkeypatch.setattr(fourier, "dft_coefficients", lambda g: dfts.append(g) or dft(g))
        code, _, _ = run_cli(capsys, "image", "--pgm", str(tmp_path / "img.pgm"), "--m", "1",
                             "--simulate", "--emit", "none")
        assert code == 0
        assert len(dfts) == 1  # compile and truncated target share one spectrum of g+

    def test_missing_file_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "image", "--pgm", "/nonexistent.pgm", "--m", "1")
        assert code == 3


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
        frqi.write_pgm(frqi.GrayImage(4, np.zeros((4, 4))), pgm)
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
