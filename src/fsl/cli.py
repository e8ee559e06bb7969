"""Command-line front end.

Subcommands: ``compile``, ``simulate``, ``sweep``, ``image``.
Configuration precedence is flags > --config JSON file > built-in defaults.
A config file value must have the JSON type its flag takes and be one of the
flag's choices if it has any; a key that names no flag of the subcommand is
ignored.
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
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import circuit as cir
from . import compiler, fourier, frqi, funcs, simulator
from .circuit import _fmt, dumps
from .compiler import FSLPlan, Loader, NonperiodicVariant
from .errors import CapacityExceeded, ExpressionError, FSLError, UnknownFunction
from .synth import decompose_opaque


# ---------------------------------------------------------------------------
# Configuration

_DEFAULTS = {
    "dims": 1,
    "loader": "ucr",
    "nonperiodic": "auto",
    "sqrt_mode": False,
    "seed": 7,
    "emit": "json",
    "out_dir": ".",
    "prefix": "fsl_",
    "timing": False,
}


_JSON_TYPE_NAMES = {int: "integer", float: "number", bool: "boolean", str: "string"}


def _takes(kind: type, value) -> bool:
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _check_config_types(file_cfg: dict, flags: dict) -> None:
    """Each value must have the JSON type its flag takes (int flags integers,
    float flags numbers, switches booleans, the rest strings, and repeatable
    flags a list of those) and be one of the flag's choices, as on the command line."""
    for key, value in file_cfg.items():
        action = flags.get(key)
        if action is None:
            continue
        kind = bool if action.nargs == 0 else action.type or str
        many = isinstance(action, argparse._AppendAction)
        values = value if many else [value]
        if not isinstance(values, list) or not all(_takes(kind, v) for v in values):
            raise ConfigError(f"config key {key!r} takes a JSON {_JSON_TYPE_NAMES[kind]}"
                              f"{' list' if many else ''}, got {json.dumps(value)}")
        if action.choices is not None and not all(v in action.choices for v in values):
            raise ConfigError(f"config key {key!r} takes one of {list(action.choices)}, "
                              f"got {json.dumps(value)}")


def _merge_config(args: argparse.Namespace) -> dict:
    """The job: one key per flag of the subcommand, valued from the flag, else
    the config file, else ``_DEFAULTS``, else None."""
    file_cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        _check_config_types(file_cfg, args.flags)
    cfg = {}
    for key in args.flags:
        flag = getattr(args, key, None)  # --help stores no value
        cfg[key] = flag if flag is not None else file_cfg.get(key, _DEFAULTS.get(key))
    return cfg


class ConfigError(FSLError):
    pass


def _capacity(cfg: dict) -> int:
    name, value = "max_qubits", cfg["max_qubits"]
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


def _function_def(cfg: dict) -> funcs.FunctionDef:
    name = cfg["function"]
    expr = cfg["expr"]
    if bool(name) == bool(expr):
        raise ConfigError("exactly one of --function or --expr is required")
    if name:
        try:
            return funcs.builtin(name, _parse_params(cfg["param"]),
                                 sqrt_mode=bool(cfg["sqrt_mode"]))
        except UnknownFunction as exc:
            raise ConfigError(str(exc))
    try:
        return funcs.expression(expr, dims=int(cfg["dims"]), sqrt_mode=bool(cfg["sqrt_mode"]))
    except ExpressionError as exc:
        raise ConfigError(str(exc))


def _nonperiodic_variant(cfg: dict, fdef: funcs.FunctionDef) -> NonperiodicVariant | None:
    mode = cfg["nonperiodic"]
    if mode == "auto":
        return NonperiodicVariant.DISENTANGLE if fdef.name in funcs.MIRROR_DEFAULT else None
    if mode == "none":
        return None
    if fdef.dims != 1:
        raise ConfigError("non-periodic loading supports one dimension only")
    return NonperiodicVariant(mode)


def _require(cfg: dict, *names):
    for name in names:
        if cfg[name] is None:
            raise ConfigError(f"--{name.replace('_', '-')} is required (flag or config file)")


def _plan(cfg: dict, n: int, m: int, dims: int) -> FSLPlan:
    return FSLPlan(n=n, m=m, dims=dims, loader=Loader(cfg["loader"]), max_qubits=_capacity(cfg))


def _sample(cfg: dict, fdef: funcs.FunctionDef, m: int,
            variant: NonperiodicVariant | None) -> fourier.GridFunction:
    """Sample the 2^n grid once its D*n wires (n+1 on the mirror path) fit."""
    n = int(cfg["n"])
    compiler.check_capacity(_plan(cfg, n, m, fdef.dims), lead=int(variant is not None))
    return funcs.sample(fdef, n)


def _compile(cfg: dict, grid: fourier.GridFunction, m: int,
             variant: NonperiodicVariant | None, spectrum: np.ndarray | None = None,
             extended: fourier.GridFunction | None = None):
    """Plan and compile one load of ``grid``; the spec is None on the mirror path.
    ``spectrum`` is the DFT of the grid, or on the mirror path of its mirror
    extension ``extended``, when the caller has already taken it."""
    plan = _plan(cfg, grid.n, m, grid.dims)
    if variant is not None:
        return (None,) + compiler.compile_nonperiodic(grid, m, variant, plan,
                                                      filter_a=cfg["filter_a"],
                                                      extended=extended, spectrum=spectrum)
    if spectrum is None:
        spectrum = fourier.dft_coefficients(grid)
    spec = compiler.window_spectrum(spectrum, m, cfg["filter_a"])
    return (spec,) + compiler.compile_spec(spec, plan, source=grid)


def _build(cfg: dict):
    """Sample, analyze, and compile per the merged configuration."""
    _require(cfg, "n", "m")
    fdef = _function_def(cfg)
    variant = _nonperiodic_variant(cfg, fdef)
    grid = _sample(cfg, fdef, int(cfg["m"]), variant)
    return (grid, variant) + _compile(cfg, grid, int(cfg["m"]), variant)


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _gate_level(circ: cir.Circuit, report: compiler.CompileReport):
    """The circuit with its opaque loader gates decomposed, and its report with
    depth and gate counts refreshed to match; unchanged if nothing is opaque."""
    if not report.contains_opaque:
        return circ, report
    circ = cir.peephole_cancel_cnots(decompose_opaque(circ))
    return circ, replace(report, depth=cir.depth(circ), gate_counts=cir.gate_counts(circ))


def _emit(cfg: dict, circ: cir.Circuit, report: compiler.CompileReport, **extra) -> int:
    """Export the gate-level form (``_gate_level``) and print its report with
    ``extra`` fields added."""
    targets = {t.strip() for t in str(cfg["emit"]).split(",") if t.strip()}
    unknown = targets - {"json", "qasm", "none"}
    if unknown:
        raise ConfigError(f"unknown emit target(s) {sorted(unknown)}")
    out = Path(cfg["out_dir"])
    prefix = cfg["prefix"]
    circ, report = _gate_level(circ, report)
    report_dict = {**report.to_dict(include_timing=bool(cfg["timing"])), **extra}
    if "json" in targets:
        _write(out / f"{prefix}circuit.json", cir.to_json(circ) + "\n")
        _write(out / f"{prefix}report.json", dumps(report_dict, indent=2, sort_keys=True) + "\n")
    if "qasm" in targets:
        _write(out / f"{prefix}circuit.qasm", cir.export_qasm(circ))
    print(dumps(report_dict, indent=2, sort_keys=True))
    return 0


def cmd_compile(cfg: dict) -> int:
    circ, report = _build(cfg)[-2:]  # drop the sampled grid before exporting
    return _emit(cfg, circ, report)


def cmd_simulate(cfg: dict) -> int:
    grid, variant, spec, circ, report = _build(cfg)
    cap = _capacity(cfg)
    state = simulator.run(circ, max_qubits=cap)

    result = {"report": report.to_dict(include_timing=bool(cfg["timing"]))}
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

    compare = cfg["compare_state"]
    if compare:
        other = simulator.load_statevector(compare)
        result["fidelity_vs_file"] = simulator.fidelity(state, other)

    state_out = cfg["state_out"]
    if state_out:
        simulator.dump_statevector(state, state_out)

    if cfg["shots"]:
        hist = simulator.sample(state, int(cfg["shots"]), int(cfg["seed"]))
        target_probs = np.abs(grid.samples.reshape(-1)) ** 2
        measured = hist.probabilities(2**state.num_qubits)  # marginal over a mirror ancilla
        empirical = measured.reshape(-1, len(target_probs)).sum(axis=0)
        result["classical_fidelity_vs_function"] = simulator.classical_fidelity(
            empirical, target_probs)
        hist_out = cfg["hist_out"]
        if hist_out:
            _write(Path(hist_out), simulator.histogram_to_csv(hist))
    print(dumps(result, indent=2, sort_keys=True))
    return 0


SWEEP_COLUMNS = "m,exact_infidelity,bound,depth,single_qubit,two_qubit,compile_seconds"


def cmd_sweep(cfg: dict) -> int:
    _require(cfg, "n", "m_range")
    lo, hi = _parse_range(cfg["m_range"])
    fdef = _function_def(cfg)
    variant = _nonperiodic_variant(cfg, fdef)
    grid = _sample(cfg, fdef, hi, variant)  # a bad top of the range fails before sampling
    extended = None if variant is None else fourier.mirror_extend(grid)
    spectrum = fourier.dft_coefficients(grid if extended is None else extended)
    rows = [SWEEP_COLUMNS]
    for m in range(lo, hi + 1):
        _, report = _gate_level(*_compile(cfg, grid, m, variant, spectrum, extended)[1:])
        bound = "" if report.analytic_bound is None else _fmt(report.analytic_bound)
        rows.append(",".join([
            str(m), _fmt(report.exact_infidelity), bound, str(report.depth),
            str(report.gate_counts.single_qubit), str(report.gate_counts.two_qubit),
            _fmt(report.compile_wall_time),
        ]))
    _deliver_csv(cfg, rows)
    return 0


def cmd_image(cfg: dict) -> int:
    _require(cfg, "pgm", "m")
    img = frqi.read_pgm(cfg["pgm"])
    m = int(cfg["m"])
    plan = _plan(cfg, img.n, m, 2)
    circ, report = frqi.compile_frqi(img, m, plan)
    extra = {"image_side": img.side}
    if cfg["simulate"]:
        state = simulator.run(circ, max_qubits=plan.max_qubits)
        extra["fidelity_vs_truncated_frqi"] = simulator.fidelity(
            state, frqi.frqi_truncated_target(img, m))
        extra["fidelity_vs_exact_frqi"] = simulator.fidelity(state, frqi.frqi_target(img))
    return _emit(cfg, circ, report, **extra)


def _deliver_csv(cfg: dict, rows):
    text = "\n".join(rows) + "\n"
    out = cfg["out"]
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
    _add_load_flags(p)
    p.add_argument("--filter-a", dest="filter_a", type=float,
                   help="Lanczos sigma-filter exponent")
    p.add_argument("--nonperiodic", choices=["auto", "none", "disentangle", "measure"])
    p.add_argument("--seed", type=int)


def _add_load_flags(p: argparse.ArgumentParser):
    p.add_argument("--loader", choices=["ucr", "schmidt"])
    p.add_argument("--max-qubits", dest="max_qubits", type=int)
    p.add_argument("--config", help="JSON config file (flags override it)")


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
    _add_load_flags(p)
    p.add_argument("--simulate", action="store_const", const=True,
                   help="also simulate and report FRQI fidelities")
    _add_emit_flags(p)
    p.set_defaults(func=cmd_image)
    for p in sub.choices.values():  # a config file's values are checked against these
        p.set_defaults(flags={a.dest: a for a in p._actions})
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
    except (FSLError, ValueError, ArithmeticError, OSError) as exc:
        _report_error(exc)
        return 3


def _report_error(exc: Exception):
    sys.stderr.write(dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
