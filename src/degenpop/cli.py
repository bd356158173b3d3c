"""Command-line front end.

Subcommands map onto the library: ``simulate`` runs a configured model
(analytic, numeric, or differential compare), ``design`` and ``table``
expose the transfer design rules, and ``leakage``/``flatness``/``kick``
run the standard scans.  All file output is plain CSV or JSON so
external tools can plot it; identical inputs produce byte-identical
output.

Exit codes: 0 success, 2 usage or configuration error, 3 numeric
failure (including a compare run exceeding its tolerance).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import analytic, control, numeric
from .coupling import (CouplingModel, standard_2state, standard_3state,
                       symmetric_nstate)
from .dressed import decompose_general
from .errors import (ConfigError, DegenpopError, DomainError,
                     InvalidQuantumNumbers, PointwiseUndefined,
                     UnresolvedTimescale)
from .pulses import (PULSE_KINDS, HarmonicPulse, Pulse, RectKickPulse,
                     pulse_from_dict)

_USAGE_EXIT = 2
_NUMERIC_EXIT = 3
# failures caused by the input: the configuration, the arguments or a file
_USAGE_ERRORS = (ConfigError, InvalidQuantumNumbers, DomainError,
                 PointwiseUndefined, UnresolvedTimescale, OSError,
                 json.JSONDecodeError)

_CONFIG_KEYS = {"model", "pulse", "run", "output"}
_MODEL_KEYS = {"n", "alpha", "beta", "eps", "energies", "reduced_multiplicity"}
_RUN_KEYS = {"mode", "t_end", "dt", "samples"}
_OUTPUT_KEYS = {"path", "format"}
# most rows a run may hold: each costs a few hundred bytes in memory
_MAX_ROWS = 10 ** 7


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (DegenpopError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _NUMERIC_EXIT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenpop",
        description="Simulate and design coherent population transfer in "
                    "degenerate few-state systems.")
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--out", help="override the output file path")
    parser.add_argument("--tol", type=float, default=1e-6,
                        help="tolerance for compare runs (default 1e-6)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a configured model")
    p.add_argument("--mode", choices=["analytic", "numeric", "compare"],
                   help="override the run mode in the config")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("design", help="print one transfer design")
    p.add_argument("family", choices=["three-state", "n-state", "two-state"])
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--sign", type=int, default=1, choices=[1, -1])
    p.add_argument("--n", type=int)
    p.add_argument("--n0", type=int)
    p.add_argument("--v", type=float, help="two-state target amplitude")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("table", help="tabulate three-state designs as CSV")
    p.add_argument("--max-product", type=int, required=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("leakage", help="scan transfer loss versus splitting")
    p.add_argument("--ratios", required=True,
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
    p.add_argument("--widths", required=True,
                   help="comma-separated kick widths, decreasing")
    p.add_argument("--t0", type=float, default=None, help="kick center time")
    p.add_argument("--n", type=int, default=2, choices=[2, 3])
    p.add_argument("--alpha", type=float, default=0.0,
                   help="1-2 coupling ratio for the 3-state kick model")
    p.set_defaults(func=cmd_kick)
    return parser


def cmd_simulate(args) -> int:
    if not args.config:
        raise ConfigError("simulate requires --config")
    if not 0.0 <= args.tol < math.inf:
        raise ConfigError(f"--tol must be finite and non-negative, got {args.tol}")
    with open(args.config) as fh:
        raw = json.load(fh)
    model, run, output = _validate_config(raw, mode_override=args.mode)
    mode = run["mode"]
    max_dev = None
    if mode == "analytic":
        basis = decompose_general(model)
        times = np.linspace(0.0, run["t_end"], run["samples"])
        traj = analytic.trajectory(model, basis, times)
    else:
        traj = numeric.integrate(model, run["dt"], run["t_end"])
        if mode == "compare":
            basis = decompose_general(model)
            degenerate = model.with_energies(np.zeros(model.n))
            ref = analytic.trajectory(degenerate, basis, traj.times)
            max_dev = numeric.compare(traj, ref)

    _write_output(traj, args.out or output["path"], output["format"])
    t_ref = model.pulse.reference_time(float(traj.times[-1]))
    idx = int(np.argmin(np.abs(traj.times - t_ref)))
    t0, p2 = traj.times[idx], traj.probabilities[idx, 1]
    closure_err = float(np.max(np.abs(traj.closure - 1.0)))
    summary = (f"t0={t0:.17g} P2(t0)={p2:.17g} "
               f"closure_max_err={closure_err:.17g}")
    if max_dev is not None:
        summary += f" max_dev={max_dev:.17g}"
    print(summary)
    if max_dev is not None and max_dev > args.tol:
        print(f"error: max deviation {max_dev:.17g} exceeds tolerance "
              f"{args.tol:.17g}", file=sys.stderr)
        return _NUMERIC_EXIT
    return 0


def cmd_design(args) -> int:
    if args.family == "three-state":
        if args.n1 is None or args.n2 is None:
            raise ConfigError("three-state design needs --n1 and --n2")
        d = control.design_3state(args.n1, args.n2, args.sign)
        print(f"A_t0={d.action_area:.3f} alpha={d.alpha:.3f} beta={d.beta:g}")
    elif args.family == "n-state":
        if args.n is None or args.n0 is None:
            raise ConfigError("n-state design needs --n and --n0")
        d = control.design_nstate(args.n, args.n0)
        print(f"A_t0={d.action_area:.3f} alpha={d.alpha:.3f} beta={d.beta:g}")
    else:
        if args.v is None:
            raise ConfigError("two-state design needs --v")
        d = control.two_state_design(args.v)
        print(f"A_t0={d.action_area:.3f}")
    return 0


def cmd_table(args) -> int:
    designs = control.enumerate_designs(args.max_product)
    if not designs:
        print(f"warning: no valid designs with product <= {args.max_product}",
              file=sys.stderr)
    _emit(control.designs_to_csv(designs), args.out)
    return 0


def cmd_leakage(args) -> int:
    ratios = _parse_floats(args.ratios, "ratios")
    pulse = HarmonicPulse(chi=0.5 * math.pi, omega=1.0)

    def family(omega21: float) -> CouplingModel:
        return standard_2state(0.0, 0.0, pulse).with_energies([0.0, omega21])

    rows = numeric.leakage_scan(family, ratios)
    lines = ["ratio,leakage"]
    lines += [f"{r:.17g},{dp:.17g}" for r, dp in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_flatness(args) -> int:
    omega = analytic.flatness_frequency(args.pcr, args.ts)
    print(f"omega={omega:.5f}")
    return 0


def cmd_kick(args) -> int:
    widths = _parse_floats(args.widths, "widths")
    if not widths:
        raise ConfigError("need at least one width")
    if not all(math.isfinite(w) for w in widths):
        raise ConfigError("widths must be finite")
    t0 = args.t0 if args.t0 is not None else max(1.0, widths[0])
    try:
        placeholder = RectKickPulse(area=args.a0, center=t0, width=widths[0])
        if args.n == 2:
            model = standard_2state(0.0, 0.0, placeholder)
        else:
            model = standard_3state(args.alpha, 1.0, np.zeros(3), placeholder)
    except ValueError as exc:
        raise ConfigError(f"invalid kick: {exc}") from exc
    rows = numeric.kick_convergence(model, args.a0, t0, widths)
    lines = ["width,P2_final"]
    lines += [f"{w:.17g},{p2:.17g}" for w, p2 in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _validate_config(raw, mode_override=None):
    """The model, the run and the output sections of a JSON configuration."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    _reject_unknown(raw, _CONFIG_KEYS, "top level")
    for key in ("model", "pulse", "run", "output"):
        if key not in raw:
            raise ConfigError(f"missing '{key}' section")
        if not isinstance(raw[key], dict):
            raise ConfigError(f"'{key}' must be an object")

    pulse = _build_pulse(raw["pulse"])
    model = _build_model(raw["model"], pulse)
    run = dict(raw["run"])
    _reject_unknown(run, _RUN_KEYS, "run")
    if mode_override is not None:
        run["mode"] = mode_override
    mode = run.get("mode")
    if mode not in ("analytic", "numeric", "compare"):
        raise ConfigError("run.mode must be analytic, numeric, or compare")
    if "t_end" not in run:
        raise ConfigError("run.t_end is required")
    t_end = _as_number(run["t_end"], "run.t_end")
    if t_end < 0:
        raise ConfigError("run.t_end must be non-negative")
    samples = run.get("samples", 1001)
    if not isinstance(samples, int) or not 1 <= samples <= _MAX_ROWS:
        raise ConfigError(f"run.samples must be an integer in [1, {_MAX_ROWS}]")
    dt = None
    if mode in ("numeric", "compare"):
        if "dt" not in run:
            raise ConfigError(f"run.dt is required for {mode} runs")
        dt = _as_number(run["dt"], "run.dt")
        if dt <= 0:
            raise ConfigError("run.dt must be positive")
        if t_end / dt > _MAX_ROWS:
            raise ConfigError(f"run.t_end/run.dt exceeds {_MAX_ROWS} steps")

    output = dict(raw["output"])
    _reject_unknown(output, _OUTPUT_KEYS, "output")
    if "path" not in output or not isinstance(output["path"], str):
        raise ConfigError("output.path is required")
    fmt = output.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError("output.format must be csv or json")

    return (model, {"mode": mode, "t_end": t_end, "dt": dt, "samples": samples},
            {"path": output["path"], "format": fmt})


def _build_pulse(section) -> Pulse:
    sec = dict(section)
    kind = sec.get("kind")
    cls = PULSE_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown pulse kind {kind!r}")
    _reject_unknown(sec, {"kind", *cls.schema}, "pulse")
    for key, expected in cls.schema.items():
        if expected is float and key in sec:
            sec[key] = _as_number(sec[key], f"pulse.{key}")
    try:
        return pulse_from_dict(sec)
    except KeyError as exc:
        raise ConfigError(
            f"pulse.{exc.args[0]} is required for kind {kind!r}") from exc
    except (ValueError, TypeError, IndexError) as exc:
        raise ConfigError(f"invalid pulse: {exc}") from exc


def _build_model(section, pulse: Pulse) -> CouplingModel:
    sec = dict(section)
    _reject_unknown(sec, _MODEL_KEYS, "model")
    if "n" not in sec or not isinstance(sec["n"], int):
        raise ConfigError("model.n must be an integer")
    n = sec["n"]
    eps = sec.get("eps", 0)
    multiplicity = sec.get("reduced_multiplicity")
    try:
        if n == 2:
            for key in ("alpha", "beta", "reduced_multiplicity"):
                if key in sec:
                    raise ConfigError(f"model.{key} does not apply at n=2")
            e = _vector(eps, 2, "model.eps")
            model = standard_2state(e[0], e[1], pulse)
        elif n == 3 and multiplicity is None:
            if "alpha" not in sec:
                raise ConfigError("model.alpha is required at n=3")
            beta = _as_number(sec.get("beta", 1.0), "model.beta")
            model = standard_3state(_as_number(sec["alpha"], "model.alpha"),
                                    beta, _vector(eps, 3, "model.eps"), pulse)
        else:
            if n < 3:
                raise ConfigError("model.n must be at least 2")
            if multiplicity is not None and multiplicity != n - 2:
                raise ConfigError(
                    "model.reduced_multiplicity must equal n - 2")
            if "beta" in sec and sec["beta"] != 1:
                raise ConfigError("the symmetric manifold model fixes beta=1")
            if "alpha" not in sec:
                raise ConfigError("model.alpha is required")
            model = symmetric_nstate(n, _as_number(sec["alpha"], "model.alpha"),
                                     _as_number(eps, "model.eps"), pulse)
        if "energies" in sec:
            model = model.with_energies(
                _vector(sec["energies"], model.n, "model.energies"))
    except (ValueError, TypeError, OverflowError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid model: {exc}") from exc
    return model


def _vector(value, n: int, name: str) -> np.ndarray:
    """A number repeated n times, or a list of n numbers."""
    values = value if isinstance(value, list) else [value] * n
    if len(values) != n:
        raise ConfigError(f"{name} must be a number or a list of {n}")
    return np.array([_as_number(v, name) for v in values])


def _as_number(value, name: str) -> float:
    if not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number")
    return float(value)


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def _write_output(traj, path: str, fmt: str) -> None:
    if fmt == "csv":
        text = analytic.trajectory_to_csv(traj)
    else:
        doc = {
            "t": traj.times.tolist(),
            "P": traj.probabilities.tolist(),
            "closure": traj.closure.tolist(),
        }
        text = json.dumps(doc, sort_keys=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_floats(raw: str, name: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"invalid {name}: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
