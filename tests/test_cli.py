"""Command-line behavior: outputs, determinism, precedence, and exit codes."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fsl import circuit as cir
from fsl import frqi, funcs, simulator
from fsl.cli import SWEEP_COLUMNS, dumps, main

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_piecewise_sweep_slope_from_csv(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--function", "piecewise",
                               "--n", "14", "--m-range", "2:9")
        assert code == 0
        rows = [r.split(",") for r in out.strip().split("\n")[1:]]
        ms = [int(r[0]) for r in rows]
        logs = [-np.log2(float(r[1])) for r in rows]
        slope = np.polyfit(ms, logs, 1)[0]
        assert slope == pytest.approx(1.0, abs=0.3)


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

    def test_missing_file_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "image", "--pgm", "/nonexistent.pgm", "--m", "1")
        assert code == 3


class TestBenchCommand:
    def test_csv_schema(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--m-range", "2:4", "--seed", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,coefficients,ucr_seconds,schmidt_seconds"
        assert [int(r.split(",")[0]) for r in lines[1:]] == [2, 3, 4]
        assert [int(r.split(",")[1]) for r in lines[1:]] == [8, 16, 32]


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

    def test_bad_fanout_in_config_exits_3_for_compile_and_image(self, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"fanout": "bogus"}))
        pgm = tmp_path / "img.pgm"
        frqi.write_pgm(frqi.GrayImage(8, np.zeros((8, 8))), pgm)
        code, _, _ = run_cli(capsys, "compile", "--function", "constant", "--n", "5",
                             "--m", "2", "--config", str(cfg), "--emit", "none")
        assert code == 3
        code, _, _ = run_cli(capsys, "image", "--pgm", str(pgm), "--m", "1",
                             "--config", str(cfg), "--emit", "none")
        assert code == 3

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

    def test_both_function_and_expr_rejected(self, capsys):
        code, _, err = run_cli(capsys, "compile", "--function", "constant",
                               "--expr", "x", "--n", "4", "--m", "1")
        assert code == 2

    def test_missing_n_reports_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"function": "constant", "m": 2}))
        code, _, err = run_cli(capsys, "compile", "--config", str(cfg))
        assert code == 2
