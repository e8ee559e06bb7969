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
import contextlib
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


# ---------------------------------------------------------------------------
# Configuration

_DEFAULTS = {
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
    """The builtin or expression the job names; a flag it would ignore (a
    --param with --expr, a --dims unlike the builtin's D) is rejected."""
    name, expr, dims = cfg["function"], cfg["expr"], cfg["dims"]
    if bool(name) == bool(expr):
        raise ConfigError("exactly one of --function or --expr is required")
    if name:
        try:
            fdef = funcs.builtin(name, _parse_params(cfg["param"]),
                                 sqrt_mode=bool(cfg["sqrt_mode"]))
        except UnknownFunction as exc:
            raise ConfigError(str(exc))
        if dims not in (None, fdef.dims):
            raise ConfigError(f"{name} has D={fdef.dims}, got --dims {dims}")
        return fdef
    if cfg["param"]:
        raise ConfigError("--param sets a builtin's parameters; --expr takes none")
    try:
        return funcs.expression(expr, dims=1 if dims is None else dims,
                                sqrt_mode=bool(cfg["sqrt_mode"]))
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


def _loads(cfg: dict, ms):
    """Sample, analyze and compile one load per m in ``ms``: the grid, the
    variant, the plan at the largest m and an iterator of one (spec, circuit,
    report) per m of the source: the grid or, with a variant, its mirror
    extension.  The grid is sampled once its D*n wires (n+1 with a variant)
    fit at the largest m, and the source's spectrum is taken once, up to the
    largest m, with the bits of a transform up to each m (a row is one compile).
    Each load is compiled as it is read, so a sweep does not keep every m's
    circuit, and the spectrum is freed with the iterator."""
    fdef = _function_def(cfg)
    variant = _nonperiodic_variant(cfg, fdef)
    plan = _plan(cfg, int(cfg["n"]), max(ms), fdef.dims)
    compiler.check_capacity(plan, lead=int(variant is not None))
    grid = funcs.sample(fdef, plan.n)
    source = grid if variant is None else fourier.mirror_extend(grid)
    spectrum = fourier.spectrum(source, max(ms))

    def load(m: int):
        spec = fourier.truncate(spectrum, m, cfg["filter_a"])
        return (spec,) + compiler.compile_spec(spec, replace(plan, n=source.n, m=m), source, variant)

    return grid, variant, plan, map(load, ms)


_WRITE_CHUNK = 1 << 20  # characters encoded per write


def _open(path: Path):
    """``path`` opened for writing text, its directory created first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w")


def _write(path: Path, text: str):
    """Write ``text`` to ``path`` in slices of ``_WRITE_CHUNK`` characters, so
    a large text needs no encoded full-size copy."""
    with _open(path) as fh:
        for start in range(0, len(text), _WRITE_CHUNK):
            fh.write(text[start:start + _WRITE_CHUNK])


def _emit_targets(cfg: dict) -> set:
    """The ``--emit`` targets; commands read them before any sampling or
    compiling, so a bad one fails at once."""
    targets = {t.strip() for t in str(cfg["emit"]).split(",") if t.strip()}
    unknown = targets - {"json", "qasm", "none"}
    if unknown:
        raise ConfigError(f"unknown emit target(s) {sorted(unknown)}")
    return targets


def _emit(cfg: dict, targets: set, circ: cir.Circuit, report: compiler.CompileReport,
          **extra) -> int:
    """Export the circuit to ``targets`` and print its report with ``extra``
    fields added."""
    out = Path(cfg["out_dir"])
    prefix = cfg["prefix"]
    report_dict = {**report.to_dict(include_timing=bool(cfg["timing"])), **extra}
    with contextlib.ExitStack() as stack:
        files = {t: stack.enter_context(_open(out / f"{prefix}circuit.{t}"))
                 for t in ("json", "qasm") if t in targets}
        cir.write_circuit(circ, files.get("json"), files.get("qasm"))
        if "json" in files:
            files["json"].write("\n")
    if "json" in targets:
        _write(out / f"{prefix}report.json", dumps(report_dict, indent=2, sort_keys=True) + "\n")
    print(dumps(report_dict, indent=2, sort_keys=True))
    return 0


def cmd_compile(cfg: dict) -> int:
    targets = _emit_targets(cfg)
    _require(cfg, "n", "m")
    *_, [(_, circ, report)] = _loads(cfg, [int(cfg["m"])])  # the grid is dropped before export
    return _emit(cfg, targets, circ, report)


def cmd_simulate(cfg: dict) -> int:
    _require(cfg, "n", "m")
    grid, variant, plan, [(spec, circ, report)] = _loads(cfg, [int(cfg["m"])])
    state = simulator.run(circ, max_qubits=plan.max_qubits)

    result = {"report": report.to_dict(include_timing=bool(cfg["timing"]))}
    # Each reference state is built for its one fidelity and freed right after it.
    if variant is not None:
        block0 = fourier._unit(state.amplitudes.reshape(2, -1)[0].copy())
        result["ancilla_zero_population"] = simulator.reduced_population(state, 0, 0)
        result["data_register_fidelity_vs_exact"] = abs(fourier._overlap(grid.samples, block0)) ** 2
    else:
        result["fidelity_vs_truncated"] = simulator.fidelity(
            state, compiler.target_state(spec, grid.n))
        result["fidelity_vs_exact"] = simulator.fidelity(
            state, simulator.Statevector(grid.dims * grid.n, grid.samples.reshape(-1)))

    compare = cfg["compare_state"]
    if compare:
        other = simulator.load_statevector(compare, state.num_qubits)
        result["fidelity_vs_file"] = simulator.fidelity(state, other)

    state_out = cfg["state_out"]
    if state_out:
        Path(state_out).parent.mkdir(parents=True, exist_ok=True)
        simulator.dump_statevector(state, state_out)

    if cfg["shots"] is not None:
        hist = simulator.sample(state, int(cfg["shots"]), int(cfg["seed"]))
        target_probs = np.abs(grid.samples.reshape(-1)) ** 2
        # one row per mirror-ancilla outcome; outcome 1 complements the data register
        measured = hist.probabilities(2**state.num_qubits).reshape(-1, len(target_probs))
        measured[1:] = measured[1:, ::-1]
        result["classical_fidelity_vs_function"] = simulator.classical_fidelity(
            measured.sum(axis=0), target_probs)
        hist_out = cfg["hist_out"]
        if hist_out:
            _write(Path(hist_out), simulator.histogram_to_csv(hist))
    print(dumps(result, indent=2, sort_keys=True))
    return 0


SWEEP_COLUMNS = "m,exact_infidelity,bound,depth,single_qubit,two_qubit,compile_seconds"


def cmd_sweep(cfg: dict) -> int:
    _require(cfg, "n", "m_range")
    lo, hi = _parse_range(cfg["m_range"])
    rows = [SWEEP_COLUMNS]
    for m, (_, _, report) in enumerate(_loads(cfg, range(lo, hi + 1))[-1], lo):
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
    targets = _emit_targets(cfg)
    pixels = frqi.pgm_pixels(Path(cfg["pgm"]).read_bytes())
    plan = _plan(cfg, len(pixels).bit_length() - 1, int(cfg["m"]), 2)
    compiler.check_capacity(plan, lead=1)  # before any pixel is decoded
    img = frqi.decode_pgm(pixels)
    circ, report = frqi.compile_frqi(img, plan.m, plan)
    extra = {"image_side": img.side}
    if cfg["simulate"]:
        state = simulator.run(circ, max_qubits=plan.max_qubits)
        extra["fidelity_vs_truncated_frqi"] = simulator.fidelity(
            state, frqi.frqi_truncated_target(img, plan.m))
        extra["fidelity_vs_exact_frqi"] = simulator.fidelity(state, frqi.frqi_target(img))
    return _emit(cfg, targets, circ, report, **extra)


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


class _Parser(argparse.ArgumentParser):
    """argparse's own errors (an unknown subcommand, a flag value of the wrong
    type) keep the error contract: one JSON ``ConfigError`` object on stderr and
    exit code 2, raised as ``SystemExit`` as argparse does.  Subcommand parsers
    take this class too."""

    def error(self, message):
        self.exit(2, _error_line(ConfigError(message)))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _join_dash_values(parser: argparse.ArgumentParser, argv: list) -> list:
    """Join ``--flag -value`` into ``--flag=-value``, which argparse reads as a value,
    where the flag takes one and ``-value`` is neither ``--`` nor a subcommand flag.
    A flag may be a unique prefix of a long one, as argparse reads it; an ambiguous
    prefix is left for argparse to report."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = getattr(sub.choices.get(argv[0] if argv else ""), "_option_string_actions", {})

    def named(arg):  # the flags ``arg`` may name: itself, or the long flags it begins
        return [arg] if arg in flags else \
            [f for f in flags if arg.startswith("--") and f.startswith(arg)]

    out = []
    for arg in argv:
        flag = named(out[-1]) if out else []
        if len(flag) == 1 and flags[flag[0]].nargs is None \
                and arg.startswith("-") and arg != "--" and not named(arg):
            arg = out.pop() + "=" + arg
        out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_dash_values(parser, sys.argv[1:] if argv is None else argv))
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


def _error_line(exc: Exception) -> str:
    return dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"


def _report_error(exc: Exception):
    sys.stderr.write(_error_line(exc))


if __name__ == "__main__":
    sys.exit(main())
