"""Command-line front end.

Subcommands: ``compile``, ``simulate``, ``sweep``, ``image``, ``bench``.
Configuration precedence is flags > --config JSON file > built-in defaults.
Qubit capacity: --max-qubits > config ``max_qubits`` > env FSL_MAX_QUBITS >
``simulator.DEFAULT_MAX_QUBITS`` (24); it must be at least 1.
Exit codes: 0 success, 2 configuration error, 3 compile/math error,
4 capacity exceeded (checked before the 2^n grid is sampled) or out of
memory.  Errors print one machine-readable JSON object on stderr.  All
floating-point output uses 17 significant digits so values round-trip
exactly.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import circuit as cir
from . import compiler, fourier, frqi, funcs, simulator
from .compiler import FSLPlan, Loader, NonperiodicVariant
from .errors import CapacityExceeded, ExpressionError, FSLError, UnknownFunction
from .synth import build_schmidt_circuit, build_ucr_circuit, decompose_opaque

_FLOAT_TAG = "\x00f:"


def _tag_floats(obj):
    if isinstance(obj, float):
        return f"{_FLOAT_TAG}{format(obj, '.17g')}"
    if isinstance(obj, dict):
        return {k: _tag_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tag_floats(v) for v in obj]
    return obj


def dumps(obj, **kwargs) -> str:
    """json.dumps with floats rendered to 17 significant digits."""
    text = json.dumps(_tag_floats(obj), **kwargs)
    return re.sub(r'"\\u0000f:([^"]*)"', r"\1", text)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Configuration

_DEFAULTS = {
    "dims": 1,
    "loader": "ucr",
    "filter_a": None,
    "nonperiodic": "auto",
    "fanout": "tree",
    "sqrt_mode": False,
    "seed": 7,
    "shots": None,
    "emit": "json",
    "out_dir": ".",
    "prefix": "fsl_",
    "timing": False,
}


@dataclass
class JobConfig:
    command: str
    values: dict

    def __getattr__(self, item):
        try:
            return self.values[item]
        except KeyError:
            raise AttributeError(item) from None


def _merge_config(args: argparse.Namespace) -> JobConfig:
    merged = dict(_DEFAULTS)
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            with open(cfg_path) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {cfg_path}: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        merged.update(file_cfg)
    for key, value in vars(args).items():
        if key in ("config", "command", "func"):
            continue
        if value is not None:
            merged[key] = value
    return JobConfig(args.command, merged)


class ConfigError(FSLError):
    pass


def _capacity(cfg: JobConfig) -> int:
    name, value = "max_qubits", cfg.values.get("max_qubits")
    if value is None:
        name = "FSL_MAX_QUBITS"
        value = os.environ.get(name, simulator.DEFAULT_MAX_QUBITS)
    try:
        cap = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name}={value!r} is not an integer")
    if cap < 1:
        raise ConfigError(f"{name}={value!r} must be at least 1")
    return cap


def _parse_params(items) -> dict:
    out = {}
    for item in items or ():
        if "=" not in item:
            raise ConfigError(f"--param expects name=value, got {item!r}")
        k, v = item.split("=", 1)
        try:
            out[k] = float(v)
        except ValueError:
            raise ConfigError(f"parameter {k}={v!r} is not a number")
    return out


def _function_def(cfg: JobConfig) -> funcs.FunctionDef:
    name = cfg.values.get("function")
    expr = cfg.values.get("expr")
    if bool(name) == bool(expr):
        raise ConfigError("exactly one of --function or --expr is required")
    if name:
        try:
            return funcs.builtin(name, _parse_params(cfg.values.get("param")),
                                 sqrt_mode=bool(cfg.sqrt_mode))
        except UnknownFunction as exc:
            raise ConfigError(str(exc))
    try:
        return funcs.expression(expr, dims=int(cfg.dims), sqrt_mode=bool(cfg.sqrt_mode))
    except ExpressionError as exc:
        raise ConfigError(str(exc))


def _nonperiodic_variant(cfg: JobConfig, fdef: funcs.FunctionDef) -> NonperiodicVariant | None:
    mode = cfg.nonperiodic
    if mode in (None, "none", "periodic"):
        return None
    if mode == "auto":
        if fdef.name in funcs.MIRROR_DEFAULT:
            return NonperiodicVariant.DISENTANGLE
        return None
    try:
        variant = NonperiodicVariant(mode)
    except ValueError:
        raise ConfigError(f"unknown nonperiodic mode {mode!r}")
    if fdef.dims != 1:
        raise ConfigError("non-periodic loading supports one dimension only")
    return variant


def _require(cfg: JobConfig, *names):
    for name in names:
        if cfg.values.get(name) is None:
            raise ConfigError(f"--{name.replace('_', '-')} is required (flag or config file)")


def _plan(cfg: JobConfig, n: int, m: int, dims: int) -> FSLPlan:
    return FSLPlan(n=n, m=m, dims=dims, loader=Loader(cfg.loader), fanout=cfg.fanout,
                   max_qubits=_capacity(cfg))


def _sample(cfg: JobConfig, fdef: funcs.FunctionDef, m: int,
            variant: NonperiodicVariant | None) -> fourier.GridFunction:
    """Sample the 2^n grid once its D*n wires (n+1 on the mirror path) fit."""
    n = int(cfg.n)
    compiler.check_capacity(_plan(cfg, n, m, fdef.dims), lead=int(variant is not None))
    return funcs.sample(fdef, n)


def _compile(cfg: JobConfig, grid: fourier.GridFunction, m: int,
             variant: NonperiodicVariant | None):
    """Plan and compile one load of ``grid``; the spec is None on the mirror path."""
    plan = _plan(cfg, grid.n, m, grid.dims)
    if variant is not None:
        return (None,) + compiler.compile_nonperiodic(grid, m, variant, plan, filter_a=cfg.filter_a)
    spec = compiler.prepare_spec(grid, m, cfg.filter_a)
    return (spec,) + compiler.compile_spec(spec, plan, source=grid)


def _build(cfg: JobConfig):
    """Sample, analyze, and compile per the merged configuration."""
    _require(cfg, "n", "m")
    fdef = _function_def(cfg)
    variant = _nonperiodic_variant(cfg, fdef)
    grid = _sample(cfg, fdef, int(cfg.m), variant)
    return (grid, variant) + _compile(cfg, grid, int(cfg.m), variant)


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _emit(cfg: JobConfig, circ: cir.Circuit, report: compiler.CompileReport, **extra) -> int:
    """Export the gate-level form (opaque loaders decomposed, metrics refreshed)
    and print its report with ``extra`` fields added."""
    targets = {t.strip() for t in str(cfg.emit).split(",") if t.strip()}
    unknown = targets - {"json", "qasm", "csv", "none"}
    if unknown:
        raise ConfigError(f"unknown emit target(s) {sorted(unknown)}")
    out = Path(cfg.out_dir)
    prefix = cfg.prefix
    if circ.has_opaque():
        circ = cir.peephole_cancel_cnots(decompose_opaque(circ))
        report = replace(report, depth=cir.depth(circ), gate_counts=cir.gate_counts(circ),
                         contains_opaque=False)
    report_dict = {**report.to_dict(include_timing=bool(cfg.timing)), **extra}
    if "json" in targets:
        _write(out / f"{prefix}circuit.json", dumps(cir.to_json_dict(circ), indent=2) + "\n")
        _write(out / f"{prefix}report.json", dumps(report_dict, indent=2, sort_keys=True) + "\n")
    if "qasm" in targets:
        _write(out / f"{prefix}circuit.qasm", cir.export_qasm(circ))
    print(dumps(report_dict, indent=2, sort_keys=True))
    return 0


def cmd_compile(cfg: JobConfig) -> int:
    circ, report = _build(cfg)[-2:]  # drop the sampled grid before exporting
    return _emit(cfg, circ, report)


def cmd_simulate(cfg: JobConfig) -> int:
    grid, variant, spec, circ, report = _build(cfg)
    cap = _capacity(cfg)
    state = simulator.run(circ, max_qubits=cap)

    result = {"report": report.to_dict(include_timing=bool(cfg.timing))}
    if variant is not None:
        block0 = state.amplitudes.reshape(2, -1)[0]
        cond = block0 / np.linalg.norm(block0)
        result["ancilla_zero_population"] = simulator.reduced_population(state, 0, 0)
        result["data_register_fidelity_vs_exact"] = float(
            abs(np.vdot(grid.samples, cond)) ** 2)
    else:
        target = compiler.target_state(spec, grid.n)
        result["fidelity_vs_truncated"] = simulator.fidelity(state, target)
        exact = simulator.Statevector(grid.dims * grid.n, grid.samples.reshape(-1))
        result["fidelity_vs_exact"] = simulator.fidelity(state, exact)

    compare = cfg.values.get("compare_state")
    if compare:
        other = simulator.load_statevector(compare)
        result["fidelity_vs_file"] = simulator.fidelity(state, other)

    state_out = cfg.values.get("state_out")
    if state_out:
        simulator.dump_statevector(state, state_out)

    if cfg.shots:
        hist = simulator.sample(state, int(cfg.shots), int(cfg.seed))
        target_probs = np.abs(grid.samples.reshape(-1)) ** 2
        if variant is not None:
            measured = hist.probabilities(2 ** state.num_qubits)
            measured = measured.reshape(2, -1).sum(axis=0)  # marginal over the ancilla
            empirical = measured
        else:
            empirical = hist.probabilities(len(target_probs))
        result["classical_fidelity_vs_function"] = simulator.classical_fidelity(
            empirical, target_probs)
        hist_out = cfg.values.get("hist_out")
        if hist_out:
            _write(Path(hist_out), simulator.histogram_to_csv(hist))
    print(dumps(result, indent=2, sort_keys=True))
    return 0


SWEEP_COLUMNS = "m,exact_infidelity,bound,depth,single_qubit,two_qubit,compile_seconds"


def cmd_sweep(cfg: JobConfig) -> int:
    _require(cfg, "n", "m_range")
    lo, hi = _parse_range(cfg.m_range)
    fdef = _function_def(cfg)
    variant = _nonperiodic_variant(cfg, fdef)
    grid = _sample(cfg, fdef, lo, variant)
    rows = [SWEEP_COLUMNS]
    for m in range(lo, hi + 1):
        *_, report = _compile(cfg, grid, m, variant)
        bound = "" if report.analytic_bound is None else _fmt(report.analytic_bound)
        rows.append(",".join([
            str(m), _fmt(report.exact_infidelity), bound, str(report.depth),
            str(report.gate_counts.single_qubit), str(report.gate_counts.two_qubit),
            _fmt(report.compile_wall_time),
        ]))
    _deliver_csv(cfg, rows)
    return 0


def cmd_image(cfg: JobConfig) -> int:
    _require(cfg, "pgm", "m")
    img = frqi.read_pgm(cfg.pgm)
    m = int(cfg.m)
    plan = _plan(cfg, img.n, m, 2)
    circ, report = frqi.compile_frqi(img, m, plan)
    extra = {"image_side": img.side}
    if cfg.values.get("simulate"):
        state = simulator.run(circ, max_qubits=plan.max_qubits)
        extra["fidelity_vs_truncated_frqi"] = simulator.fidelity(
            state, frqi.frqi_truncated_target(img, m))
        extra["fidelity_vs_exact_frqi"] = simulator.fidelity(state, frqi.frqi_target(img))
    return _emit(cfg, circ, report, **extra)


def cmd_bench(cfg: JobConfig) -> int:
    """Classical pre-processing timing harness: loader construction time for
    random coefficient sets of size 2^(m+1)."""
    _require(cfg, "m_range")
    lo, hi = _parse_range(cfg.m_range)
    rng = np.random.default_rng(int(cfg.seed))
    rows = ["m,coefficients,ucr_seconds,schmidt_seconds"]
    for m in range(lo, hi + 1):
        vec = rng.standard_normal(2 ** (m + 1)) + 1j * rng.standard_normal(2 ** (m + 1))
        vec /= np.linalg.norm(vec)
        t0 = time.perf_counter()
        build_ucr_circuit(vec)
        t_ucr = time.perf_counter() - t0
        t0 = time.perf_counter()
        decompose_opaque(build_schmidt_circuit(vec))
        t_schmidt = time.perf_counter() - t0
        rows.append(f"{m},{2**(m+1)},{_fmt(t_ucr)},{_fmt(t_schmidt)}")
    _deliver_csv(cfg, rows)
    return 0


def _deliver_csv(cfg: JobConfig, rows):
    text = "\n".join(rows) + "\n"
    out = cfg.values.get("out")
    if out:
        _write(Path(out), text)
    else:
        sys.stdout.write(text)


def _parse_range(spec: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+):(\d+)", str(spec))
    if not match:
        raise ConfigError(f"expected LO:HI range, got {spec!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if hi < lo:
        raise ConfigError(f"empty range {spec!r}")
    return lo, hi


# ---------------------------------------------------------------------------

def _add_function_flags(p: argparse.ArgumentParser):
    p.add_argument("--function", help="builtin function name")
    p.add_argument("--expr", help="expression over x (and y for --dims 2)")
    p.add_argument("--param", action="append", help="override builtin parameter, name=value")
    p.add_argument("--dims", type=int, help="dimensions for --expr (default 1)")
    p.add_argument("--sqrt-mode", dest="sqrt_mode", action="store_const", const=True,
                   help="load an amplitude whose square matches f")
    p.add_argument("--n", type=int, help="qubits per dimension")
    p.add_argument("--loader", choices=["ucr", "schmidt"])
    p.add_argument("--filter-a", dest="filter_a", type=float,
                   help="Lanczos sigma-filter exponent")
    p.add_argument("--nonperiodic", choices=["auto", "none", "disentangle", "measure"])
    p.add_argument("--fanout", choices=["tree", "sequential"])
    p.add_argument("--max-qubits", dest="max_qubits", type=int)
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--seed", type=int)


def _add_emit_flags(p: argparse.ArgumentParser):
    p.add_argument("--emit", help="comma-separated: json,qasm,none (default json)")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--prefix")
    p.add_argument("--timing", action="store_const", const=True,
                   help="include wall-clock timing in reports")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsl",
        description="Compile Fourier-series approximations into linear-depth "
                    "state-preparation circuits, and verify them by simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a function into a circuit")
    _add_function_flags(p)
    _add_emit_flags(p)
    p.add_argument("--m", type=int, help="coefficient window exponent")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="compile, simulate, and score a function load")
    _add_function_flags(p)
    p.add_argument("--m", type=int)
    p.add_argument("--shots", type=int, help="sample a measurement histogram")
    p.add_argument("--hist-out", dest="hist_out", help="histogram CSV path")
    p.add_argument("--state-out", dest="state_out", help="binary statevector dump path")
    p.add_argument("--compare-state", dest="compare_state",
                   help="binary statevector to compare against")
    p.add_argument("--timing", action="store_const", const=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="sweep m and report infidelity/resources as CSV")
    _add_function_flags(p)
    p.add_argument("--m-range", dest="m_range", help="LO:HI inclusive")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("image", help="compile an FRQI image load from a PGM file")
    p.add_argument("--pgm")
    p.add_argument("--m", type=int)
    p.add_argument("--loader", choices=["ucr", "schmidt"])
    p.add_argument("--fanout", choices=["tree", "sequential"])
    p.add_argument("--max-qubits", dest="max_qubits", type=int)
    p.add_argument("--simulate", action="store_const", const=True,
                   help="also simulate and report FRQI fidelities")
    p.add_argument("--config", help="JSON config file")
    _add_emit_flags(p)
    p.set_defaults(func=cmd_image)

    p = sub.add_parser("bench", help="time loader construction for random spectra")
    p.add_argument("--m-range", dest="m_range", help="LO:HI inclusive")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return args.func(cfg)
    except (ConfigError, UnknownFunction, ExpressionError) as exc:
        _report_error(exc)
        return 2
    except (CapacityExceeded, MemoryError) as exc:
        _report_error(exc)
        return 4
    except FSLError as exc:
        _report_error(exc)
        return 3
    except (ValueError, ArithmeticError, OSError) as exc:
        _report_error(exc)
        return 3


def _report_error(exc: Exception):
    sys.stderr.write(dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
