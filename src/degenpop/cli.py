"""Command-line front end.

Subcommands map onto the library: ``simulate`` runs a configured model
(analytic, numeric, or differential compare), ``design three-state``,
``design n-state`` and ``design two-state`` print one transfer design
each and ``table`` tabulates the three-state ones up to a product of
10**6, and ``leakage``/``flatness``/``kick`` run the standard scans.
Every ``simulate`` run has one row source, ``rows(lo, hi)``, and its CSV
or JSON writer and its summary line read only that: an analytic run's
propagates the rows asked for, a numeric or compare run's slices its
trajectory.  Argparse checks every flag.  Of the global flags, ``--out``
sends any command's result to a file instead of stdout (for ``simulate``,
in place of the configured path); ``--config`` and ``--tol`` belong to
``simulate``, and any other command given either exits 2.  ``main`` builds
the parser once per process.  All file output is plain CSV or JSON so
external tools can plot it; identical inputs produce byte-identical output.

Exit codes: 0 success, 2 usage or configuration error, 3 numeric
failure (including a compare run exceeding its tolerance).  ``main``
alone maps exceptions to them, by one rule: a ``ValueError`` (every
value-style library error, a malformed JSON file) or an ``OSError``
exits 2; any other ``DegenpopError`` or an ``ArithmeticError`` exits 3.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import json
import math
import sys

import numpy as np

from . import analytic, control, numeric
from .coupling import (CouplingModel, standard_2state, standard_3state,
                       symmetric_nstate)
from .dressed import decompose_general
from .errors import ConfigError, DegenpopError
from .pulses import PULSE_KINDS, HarmonicPulse, Pulse, RectKickPulse

_USAGE_EXIT = 2
_NUMERIC_EXIT = 3
_TOL = 1e-6  # compare tolerance when --tol is not given

_MODEL_KEYS = {"n", "alpha", "beta", "eps", "energies"}
_RUN_KEYS = {"mode", "t_end", "dt", "samples"}
_OUTPUT_KEYS = {"path", "format"}
# each section's keys; the pulse's are narrowed to its kind's own later
_SECTIONS = {"model": _MODEL_KEYS, "run": _RUN_KEYS, "output": _OUTPUT_KEYS,
             "pulse": {"kind"}.union(*(cls.schema for cls in PULSE_KINDS.values()))}
# most rows a run or a kick width may hold.  An analytic CSV run holds only
# its times (8 B a row) and propagates a block at a time; numeric, compare
# and JSON runs hold every row's trajectory arrays (~144 B at n = 3)
_MAX_ROWS = 10 ** 7
# largest table --max-product: 10**6 enumerates 1 279 703 designs, which
# took 9.4 s and a 513 MB peak on a 2-vCPU VM; both grow with the product
_MAX_PRODUCT = 10 ** 6


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        given = [flag for flag, value in (("--config", args.config), ("--tol", args.tol))
                 if value is not None]
        if given and args.command != "simulate":
            parser.error(f"only simulate takes {' and '.join(given)}")
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (DegenpopError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="degenpop",
        description="Simulate and design coherent population transfer in "
                    "degenerate few-state systems.")
    parser.add_argument("--config", help="path to a JSON run configuration (simulate only)")
    parser.add_argument("--out", help="write the result to this file instead of stdout "
                                      "(simulate: in place of output.path)")
    parser.add_argument("--tol", type=float,
                        help=f"tolerance for compare runs (simulate only; default {_TOL:g})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a configured model")
    p.add_argument("--mode", choices=["analytic", "numeric", "compare"],
                   help="override the run mode in the config")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("design", help="print one transfer design")
    family = p.add_subparsers(dest="family", required=True)
    f = family.add_parser("three-state", help="three states, quantum numbers n1 and n2")
    f.add_argument("--n1", type=int, required=True)
    f.add_argument("--n2", type=int, required=True)
    f.add_argument("--sign", type=int, choices=[1, -1], default=1,
                   help="branch of the design (default 1)")
    f = family.add_parser("n-state", help="symmetric n states, quantum number n0")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--n0", type=int, required=True)
    f = family.add_parser("two-state", help="two states, target amplitude v")
    f.add_argument("--v", type=float, required=True, help="two-state target amplitude")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("table", help="tabulate three-state designs as CSV")
    p.add_argument("--max-product", type=int, required=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("leakage", help="scan transfer loss versus splitting")
    p.add_argument("--ratios", type=_floats, required=True,
                   help="comma-separated carrier-to-splitting ratios")
    p.set_defaults(func=cmd_leakage)

    p = sub.add_parser("flatness", help="carrier frequency for a flat top")
    p.add_argument("--pcr", type=float, required=True,
                   help="tolerated transfer dip")
    p.add_argument("--ts", type=float, required=True,
                   help="half-width of the hold window")
    p.set_defaults(func=cmd_flatness)

    p = sub.add_parser("kick", help="rectangular-kick convergence scan")
    p.add_argument("--A0", type=float, required=True, dest="a0")
    p.add_argument("--widths", type=_floats, required=True,
                   help="comma-separated kick widths, decreasing")
    p.add_argument("--t0", type=float, default=None, help="kick center time")
    p.add_argument("--n", type=int, default=2, choices=[2, 3])
    p.add_argument("--alpha", type=float, default=None,
                   help="1-2 coupling ratio for the 3-state kick model (default 0)")
    p.set_defaults(func=cmd_kick)
    return parser


def cmd_simulate(args) -> int:
    if not args.config:
        raise ConfigError("simulate requires --config")
    tol = _TOL if args.tol is None else args.tol
    if not 0.0 <= tol < math.inf:
        raise ConfigError(f"--tol must be finite and non-negative, got {tol}")
    with open(args.config) as fh:
        model, run = _validate_config(json.load(fh), args.mode)
    max_dev = None
    if run["mode"] == "analytic":
        times = np.linspace(0.0, run["t_end"], run["samples"])
        # rows are propagated when a writer asks for them
        rows = analytic.trajectory_rows(model, decompose_general(model), times)
    else:
        traj = numeric.integrate(model, run["dt"], run["t_end"])
        if run["mode"] == "compare":
            degenerate = model.with_energies(np.zeros(model.n))
            ref = analytic.trajectory(degenerate, decompose_general(model), traj.times)
            max_dev = numeric.compare(traj, ref)
        times, rows = traj.times, traj.rows

    out_path = args.out or run["path"]
    if run["format"] == "csv":
        with open(out_path, "w", newline="") as fh:
            closure_error = analytic.write_csv(rows, times.size, fh)
    else:
        whole = rows(0, times.size)
        _emit(json.dumps({"t": whole.times.tolist(), "P": whole.probabilities.tolist(),
                          "closure": whole.closure.tolist()}, sort_keys=True), out_path)
        closure_error = whole.closure_error
    t_ref = model.pulse.reference_time(float(times[-1]))
    idx = _nearest(times, t_ref)
    summary = {"t0": times[idx], "P2(t0)": rows(idx, idx + 1).probabilities[0, 1],
               "closure_max_err": closure_error, "max_dev": max_dev}
    print(" ".join(f"{k}={v:.17g}" for k, v in summary.items() if v is not None))
    if max_dev is not None and max_dev > tol:
        print(f"error: max deviation {max_dev:.17g} exceeds tolerance "
              f"{tol:.17g}", file=sys.stderr)
        return _NUMERIC_EXIT
    return 0


def cmd_design(args) -> int:
    if args.family == "two-state":
        line = f"A_t0={control.target_2state(args.v):.3f}"
    else:
        d = (control.design_3state(args.n1, args.n2, args.sign)
             if args.family == "three-state" else control.design_nstate(args.n, args.n0))
        line = f"A_t0={d.action_area:.3f} alpha={d.alpha:.3f} beta={d.beta:g}"
    _emit(line + "\n", args.out)
    return 0


def cmd_table(args) -> int:
    if args.max_product > _MAX_PRODUCT:
        raise ConfigError(f"--max-product must be at most {_MAX_PRODUCT}")
    designs = control.enumerate_designs(args.max_product)
    if not designs:
        print(f"warning: no valid designs with product <= {args.max_product}",
              file=sys.stderr)
    _emit(control.designs_to_csv(designs), args.out)
    return 0


def cmd_leakage(args) -> int:
    model = standard_2state(0.0, 0.0, HarmonicPulse(chi=0.5 * math.pi, omega=1.0))
    _emit(_csv("ratio,leakage", numeric.leakage_scan(model, args.ratios)), args.out)
    return 0


def cmd_flatness(args) -> int:
    _emit(f"omega={analytic.flatness_frequency(args.pcr, args.ts):.5f}\n", args.out)
    return 0


def cmd_kick(args) -> int:
    widths = args.widths
    # checked before the default t0 and the first kick are derived from widths[0]
    if not all(0.0 < w < math.inf for w in widths):
        raise ConfigError(f"--widths must be finite and positive, got {widths}")
    if args.n == 2 and args.alpha is not None:
        raise ConfigError("--alpha applies to the 3-state kick model (--n 3) only")
    t0 = args.t0 if args.t0 is not None else max(1.0, widths[0])
    kick = RectKickPulse(area=args.a0, center=t0, width=widths[0])
    # a width w takes about (t0 + w/2)/w steps
    smallest = min(widths)
    if (t0 + 0.5 * smallest) / smallest > _MAX_ROWS:
        raise ConfigError(f"--widths: a kick of width {smallest:g} at t0={t0:g} "
                          f"takes more than {_MAX_ROWS} steps")
    model = (standard_2state(0.0, 0.0, kick) if args.n == 2
             else standard_3state(0.0 if args.alpha is None else args.alpha, 1.0,
                                  np.zeros(3), kick))
    _emit(_csv("width,P2_final", numeric.kick_convergence(model, widths)), args.out)
    return 0


def _validate_config(raw, mode_override=None):
    """The model of a JSON configuration, and its run and output settings."""
    raw = _section(raw, "configuration", _SECTIONS)
    sec = {key: _section(raw.get(key), key, keys) for key, keys in _SECTIONS.items()}
    model = _build_model(sec["model"], _build_pulse(sec["pulse"]))
    run = sec["run"]
    mode = mode_override or run.get("mode")
    if mode not in ("analytic", "numeric", "compare"):
        raise ConfigError("run.mode must be analytic, numeric, or compare")
    t_end = _number(run, "t_end", "run")
    if t_end < 0:
        raise ConfigError("run.t_end must be non-negative")
    samples = _number(run, "samples", "run", 1001, kind=int)
    if not 1 <= samples <= _MAX_ROWS:
        raise ConfigError(f"run.samples must be an integer in [1, {_MAX_ROWS}]")
    dt = None
    if mode != "analytic":
        dt = _number(run, "dt", "run")
        if dt <= 0:
            raise ConfigError("run.dt must be positive")
        if t_end / dt > _MAX_ROWS:
            raise ConfigError(f"run.t_end/run.dt exceeds {_MAX_ROWS} steps")
    path, fmt = sec["output"].get("path"), sec["output"].get("format", "csv")
    if not (isinstance(path, str) and path):
        raise ConfigError("output.path must be a non-empty string")
    if fmt not in ("csv", "json"):
        raise ConfigError("output.format must be csv or json")
    return model, {"mode": mode, "t_end": t_end, "dt": dt, "samples": samples,
                   "path": path, "format": fmt}


def _build_pulse(sec: dict) -> Pulse:
    kind = sec.get("kind")
    cls = PULSE_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown pulse kind {kind!r}")
    sec = dict(_section(sec, "pulse", {"kind", *cls.schema}))
    for key, expected in cls.schema.items():
        if expected is float:
            sec[key] = _number(sec, key, "pulse")
    return cls.from_dict(sec)


def _build_model(sec: dict, pulse: Pulse) -> CouplingModel:
    n = _number(sec, "n", "model", kind=int)
    if n < 2:
        raise ConfigError("model.n must be at least 2")
    if n == 2:
        if {"alpha", "beta"} & set(sec):
            raise ConfigError("model.alpha and model.beta do not apply at n=2")
        model = standard_2state(*_vector(sec, "eps", 2), pulse)
    else:
        alpha = _number(sec, "alpha", "model")
        beta = _number(sec, "beta", "model", 1.0)
        if n == 3:
            model = standard_3state(alpha, beta, _vector(sec, "eps", 3), pulse)
        elif beta != 1:
            raise ConfigError("model.beta must be 1 in the symmetric n >= 4 model")
        else:
            model = symmetric_nstate(n, alpha, _number(sec, "eps", "model", 0.0),
                                     pulse)
    if "energies" in sec:
        model = model.with_energies(_vector(sec, "energies", model.n))
    return model


def _vector(sec: dict, key: str, n: int) -> np.ndarray:
    """``model.<key>`` (default 0) as n numbers: one repeated, or a list of n."""
    value = sec.get(key, 0)
    values = value if isinstance(value, list) else [value] * n
    if len(values) != n:
        raise ConfigError(f"model.{key} must be a number or a list of {n}")
    return np.array([_number({key: v}, key, "model") for v in values])


def _number(sec: dict, key: str, where: str, default=None, kind=float):
    """``sec[key]`` as a finite JSON number, or an integer when ``kind`` is
    int; ``default`` when the key is absent, which is an error without one.
    A JSON boolean is not a number, though Python's bool is an int."""
    if key not in sec:
        if default is None:
            raise ConfigError(f"{where}.{key} is required")
        return default
    value = sec[key]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int and not (number and isinstance(value, int)):
        raise ConfigError(f"{where}.{key} must be an integer")
    if not (number and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{where}.{key} must be a finite number")
    return kind(value)


def _section(value, where: str, allowed) -> dict:
    """``value``, which must be a JSON object whose keys lie in ``allowed``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} section must be a JSON object")
    unknown = set(value) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    return value


def _nearest(times: np.ndarray, t: float) -> int:
    """``np.argmin(np.abs(times - t))``, the first of the times nearest ``t``,
    for finite non-decreasing ``times`` (as ``np.linspace`` and
    :func:`numeric.integrate` give them): the distance falls up to ``t``'s
    insertion point and rises after it, so a bisection finds the least."""
    i = int(np.searchsorted(times, t))
    if i == times.size or i and not abs(times[i - 1] - t) > abs(times[i] - t):
        d = abs(times[i - 1] - t)
        i = bisect.bisect_left(range(i), True, key=lambda k: not abs(times[k] - t) > d)
    return i


def _csv(header: str, rows) -> str:
    """CSV text: the header, then each row's two numbers at full precision."""
    return "".join([header + "\n", *(f"{a:.17g},{b:.17g}\n" for a, b in rows)])


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _floats(raw: str) -> list[float]:
    """Comma-separated numbers, read as an argparse ``type``."""
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not values:
        raise argparse.ArgumentTypeError("expected one or more numbers")
    return values


if __name__ == "__main__":
    sys.exit(main())
