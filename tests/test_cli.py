import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import trajectory_to_csv_rows

from degenpop import analytic, cli, numeric
from degenpop.coupling import standard_2state, symmetric_nstate
from degenpop.dressed import decompose_general
from degenpop.pulses import PULSE_KINDS, HarmonicPulse, SampledPulse


def write_config(tmp_path, mode="numeric", energies=0, **extra):
    cfg = {
        "model": {"n": 3, "alpha": 0.3, "beta": 1.0, "eps": 0, "energies": energies},
        "pulse": {"kind": "harmonic", "chi": 1.0, "omega": 1.0},
        "run": {"mode": mode, "t_end": 0.5 * math.pi, "dt": 0.005},
        "output": {"path": str(tmp_path / "out.csv"), "format": "csv"},
    }
    for section, values in extra.items():
        cfg[section].update(values)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run_twice(argv, out):
    """Exit codes and output bytes of two identical runs."""
    codes, texts = [], []
    for _ in range(2):
        out.unlink(missing_ok=True)
        codes.append(cli.main(argv))
        texts.append(out.read_bytes())
    return codes, texts


def test_leakage_exits_zero_and_repeats_bytes(tmp_path):
    out = tmp_path / "leakage.csv"
    codes, texts = run_twice(["--out", str(out), "leakage",
                                        "--ratios", "1,10,inf"], out)
    assert codes == [0, 0]
    assert texts[0] == texts[1]
    lines = texts[0].decode().splitlines()
    assert lines[0] == "ratio,leakage"
    assert [float(line.split(",")[0]) for line in lines[1:]] == [1.0, 10.0, math.inf]


def test_empty_ratios_exit_two_and_name_the_flag(tmp_path, capsys):
    out = tmp_path / "leakage.csv"
    assert cli.main(["--out", str(out), "leakage", "--ratios", ","]) == 2
    assert "--ratios" in capsys.readouterr().err
    assert not out.exists()


def test_empty_widths_exit_two_and_name_the_flag(tmp_path, capsys):
    out = tmp_path / "kick.csv"
    assert cli.main(["--out", str(out), "kick", "--A0", "1", "--widths", ","]) == 2
    assert "--widths" in capsys.readouterr().err
    assert not out.exists()


def test_blank_ratio_entries_print_the_same_bytes(capsys):
    assert cli.main(["leakage", "--ratios", "1,10"]) == 0
    plain = capsys.readouterr().out
    assert cli.main(["leakage", "--ratios", ",1,,10,"]) == 0
    assert capsys.readouterr().out == plain
    assert plain.startswith("ratio,leakage\n") and plain.count("\n") == 3


def test_simulate_csv_file_is_the_row_oracle_text(tmp_path, capsys):
    rows = 2 * analytic._CSV_BLOCK_ROWS + 1
    config = write_config(tmp_path, mode="analytic", run={"t_end": 6.0, "samples": rows})
    assert cli.main(["--config", str(config), "simulate"]) == 0
    model, run = cli._validate_config(json.loads(config.read_text()))
    traj = analytic.trajectory(model, decompose_general(model),
                               np.linspace(0.0, run["t_end"], run["samples"]))
    assert (tmp_path / "out.csv").read_bytes() == trajectory_to_csv_rows(traj).encode()


def test_kick_exits_zero_and_repeats_bytes(tmp_path):
    out = tmp_path / "kick.csv"
    argv = ["--out", str(out), "kick", "--A0", "1.5707963267948966",
            "--widths", "0.4,0.1", "--n", "3", "--alpha", "0.2"]
    codes, texts = run_twice(argv, out)
    assert codes == [0, 0]
    assert texts[0] == texts[1]
    assert texts[0].decode().splitlines()[0] == "width,P2_final"


@pytest.mark.parametrize("mode", ["numeric", "compare"])
def test_simulate_integrator_modes_exit_zero_and_repeat_bytes(tmp_path, capsys, mode):
    config = write_config(tmp_path, mode=mode)
    codes, texts = run_twice(["--config", str(config), "simulate"],
                             tmp_path / "out.csv")
    assert codes == [0, 0]
    assert texts[0] == texts[1]
    rows = texts[0].decode().splitlines()
    assert rows[0] == "t,P1,P2,P3,closure"
    assert len(rows) == 1 + 1 + math.ceil(0.5 * math.pi / 0.005 - 1e-9)
    summary = capsys.readouterr().out
    assert ("max_dev=" in summary) == (mode == "compare")


def test_summary_reports_the_time_of_its_row(tmp_path, capsys):
    # the quarter period pi/2 lies past t_end = 1, so the last row is reported
    config = write_config(tmp_path, mode="analytic", run={"t_end": 1.0, "samples": 11})
    assert cli.main(["--config", str(config), "simulate"]) == 0
    fields = dict(f.split("=") for f in capsys.readouterr().out.split())
    last = (tmp_path / "out.csv").read_text().splitlines()[-1].split(",")
    assert fields["t0"] == last[0] == "1"
    assert fields["P2(t0)"] == last[2]


def test_cli_import_needs_no_scipy():
    code = "import sys, degenpop.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_mode_flag_overrides_config(tmp_path):
    config = write_config(tmp_path, mode="analytic", run={"samples": 11})
    assert cli.main(["--config", str(config), "simulate", "--mode", "numeric"]) == 0
    assert len((tmp_path / "out.csv").read_text().splitlines()) > 12


def test_simulate_without_config_exits_two(capsys):
    assert cli.main(["simulate"]) == 2
    assert "requires --config" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["top", "model", "pulse", "run", "output"])
def test_unknown_config_key_exits_two(tmp_path, capsys, section):
    config = write_config(tmp_path)
    raw = json.loads(config.read_text())
    (raw if section == "top" else raw[section])["bogus"] = 1
    config.write_text(json.dumps(raw))
    assert cli.main(["--config", str(config), "simulate"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_missing_config_file_exits_two(tmp_path):
    assert cli.main(["--config", str(tmp_path / "absent.json"), "simulate"]) == 2


def test_compare_beyond_tolerance_exits_three(tmp_path, capsys):
    config = write_config(tmp_path, mode="compare", energies=[0.0, 0.2, -0.1])
    assert cli.main(["--tol", "1e-30", "--config", str(config), "simulate"]) == 3
    assert "exceeds tolerance" in capsys.readouterr().err
    assert (tmp_path / "out.csv").exists()


def test_bad_widths_exit_two(tmp_path):
    out = tmp_path / "kick.csv"
    assert cli.main(["--out", str(out), "kick", "--A0", "1.0", "--widths", "0.1,0.4"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("widths", ["1e-9", "0.4,1e-9"])
def test_kick_width_beyond_the_step_bound_exits_two_and_names_the_flag(tmp_path, capsys,
                                                                        widths):
    # integrating to t0 + 1e-9/2 in 1e-9 steps would take 10**9 steps
    out = tmp_path / "kick.csv"
    assert cli.main(["--out", str(out), "kick", "--A0", "1", "--widths", widths]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --widths: ") and str(cli._MAX_ROWS) in err
    assert not out.exists()


def test_kick_step_bound_reads_the_smallest_width(tmp_path, capsys, monkeypatch):
    # at t0 = 1 a width w takes about (1 + w/2)/w steps: 5.5 at 0.2, 10.5 at 0.1
    monkeypatch.setattr(cli, "_MAX_ROWS", 10)
    argv = ["--out", str(tmp_path / "kick.csv"), "kick", "--A0", "1", "--t0", "1"]
    assert cli.main([*argv, "--widths", "0.4,0.2"]) == 0
    assert cli.main([*argv, "--widths", "0.4,0.2,0.1"]) == 2
    assert "width 0.1 " in capsys.readouterr().err


@pytest.mark.parametrize("widths", ["0", "-1", "0.4,0", "0.4,-1e-9"])
def test_kick_nonpositive_width_exits_two_with_one_message(tmp_path, capsys, widths):
    # the first width and a later one fail alike, before any kick is built
    out = tmp_path / "kick.csv"
    assert cli.main(["--out", str(out), "kick", "--A0", "1", "--widths", widths]) == 2
    parsed = [float(w) for w in widths.split(",")]
    assert capsys.readouterr() == ("", f"error: --widths must be finite and positive, "
                                       f"got {parsed}\n")
    assert not out.exists()


def test_design_nstate_prints_corrected_design(capsys):
    # n = 4: s = 1/2, A(t0) = pi sqrt(9/37) = 1.5494, alpha = -1/6
    assert cli.main(["design", "n-state", "--n", "4", "--n0", "1"]) == 0
    assert capsys.readouterr().out == "A_t0=1.549 alpha=-0.167 beta=1\n"


PULSE_VARIANTS = {
    "rect_kick": {"kind": "rect_kick", "A0": 1.0, "t0": 1.0, "width": 0.5},
    "delta_kick": {"kind": "delta_kick", "A0": 1.0, "t0": 1.0},
    "custom_sampled": {"kind": "custom_sampled",
                       "samples": [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]},
}
NUMERIC_KEYS = (
    [("model", key, "harmonic")
     for key in ("n", "alpha", "beta", "eps", "energies", "reduced_multiplicity")]
    + [("pulse", key, "harmonic") for key in ("chi", "omega")]
    + [("pulse", key, kind) for kind, sec in PULSE_VARIANTS.items()
       for key in sec if key != "kind"]
    + [("pulse", "samples[1][1]", "custom_sampled")]
    + [("run", key, "harmonic") for key in ("t_end", "dt", "samples")]
)


def write_variant_config(tmp_path, kind):
    """A valid config whose pulse is of the given kind, read in full."""
    # an instantaneous kick cannot be integrated, so it runs analytic
    config = write_config(tmp_path, mode="analytic" if kind == "delta_kick" else "compare")
    raw = json.loads(config.read_text())
    if kind != "harmonic":
        raw["pulse"] = json.loads(json.dumps(PULSE_VARIANTS[kind]))
    return config, raw


@pytest.mark.parametrize("kind", ["harmonic", *PULSE_VARIANTS])
def test_pulse_variant_configs_exit_zero(tmp_path, kind):
    config, raw = write_variant_config(tmp_path, kind)
    config.write_text(json.dumps(raw))
    assert cli.main(["--config", str(config), "simulate"]) == 0


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, True],
                         ids=["inf", "-inf", "nan", "true"])
@pytest.mark.parametrize("section,key,kind", NUMERIC_KEYS,
                         ids=[f"{s}.{k}-{p}" for s, k, p in NUMERIC_KEYS])
def test_nonfinite_config_number_exits_two(tmp_path, capsys, section, key, kind, value):
    config, raw = write_variant_config(tmp_path, kind)
    if key == "samples[1][1]":
        raw["pulse"]["samples"][1][1] = value
    else:
        raw[section][key] = value
    config.write_text(json.dumps(raw))  # writes Infinity, -Infinity, NaN, true
    assert cli.main(["--config", str(config), "simulate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert key.split("[")[0] in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("args,name", [
    (["--A0", "inf", "--widths", "0.4"], "A0"),
    (["--A0", "nan", "--widths", "0.4"], "A0"),
    (["--A0", "1.0", "--widths", "inf"], "width"),
    (["--A0", "1.0", "--widths", "0.4", "--t0=-inf"], "t0"),
    (["--A0", "1.0", "--widths", "0.4", "--n", "3", "--alpha", "nan"], "finite"),
], ids=["A0-inf", "A0-nan", "widths-inf", "t0--inf", "alpha-nan"])
def test_nonfinite_kick_argument_exits_two(tmp_path, capsys, args, name):
    out = tmp_path / "kick.csv"
    assert cli.main(["--out", str(out), "kick", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert not out.exists()


def test_alpha_on_the_2state_kick_model_exits_two_and_names_the_flag(tmp_path, capsys):
    out = tmp_path / "kick.csv"
    argv = ["--out", str(out), "kick", "--A0", "1", "--widths", "0.4", "--n", "2"]
    assert cli.main([*argv, "--alpha", "0.7"]) == 2
    assert "--alpha" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(argv) == 0


def test_nonfinite_width_error_does_not_blame_default_t0(tmp_path, capsys):
    out = tmp_path / "kick.csv"
    assert cli.main(["--out", str(out), "kick", "--A0", "1", "--widths", "inf"]) == 2
    err = capsys.readouterr().err
    assert "widths" in err and "t0" not in err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_invalid_tolerance_exits_two(tmp_path, capsys, tol):
    config = write_config(tmp_path, mode="compare")
    assert cli.main([f"--tol={tol}", "--config", str(config), "simulate"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.csv").exists()


OTHER_COMMANDS = {
    "design": ["design", "two-state", "--v", "1"],
    "table": ["table", "--max-product", "30"],
    "leakage": ["leakage", "--ratios", "10"],
    "flatness": ["flatness", "--pcr", "1", "--ts", "1"],
    "kick": ["kick", "--A0", "1", "--widths", "0.4"],
}


@pytest.mark.parametrize("flags", [["--config", "absent.json"], ["--tol", "nan"],
                                   ["--tol", "1e-6", "--config", "absent.json"]],
                         ids=["config", "tol", "both"])
@pytest.mark.parametrize("command", sorted(OTHER_COMMANDS))
def test_simulate_flags_on_another_command_exit_two(tmp_path, capsys, command, flags):
    out = tmp_path / "out.txt"
    assert cli.main([*flags, "--out", str(out), *OTHER_COMMANDS[command]]) == 2
    err = capsys.readouterr().err
    assert "only simulate takes" in err
    assert all(flag in err for flag in flags if flag.startswith("--"))
    assert not out.exists()
    # the same command without them still runs
    assert cli.main(["--out", str(out), *OTHER_COMMANDS[command]]) == 0


def test_main_reuses_one_parser(tmp_path):
    assert cli._build_parser() is cli._build_parser()
    config = write_config(tmp_path, mode="compare")
    # a flag given to one call does not carry over to the next
    assert cli.main(["--tol", "1e-30", "--config", str(config), "simulate"]) == 3
    assert cli.main(["--config", str(config), "simulate"]) == 0
    assert cli.main(OTHER_COMMANDS["flatness"]) == 0


@pytest.mark.parametrize("mode", ["numeric", "compare"])
def test_delta_kick_cannot_be_integrated_exits_two(tmp_path, capsys, mode):
    config, raw = write_variant_config(tmp_path, "delta_kick")
    raw["run"]["mode"] = mode
    config.write_text(json.dumps(raw))
    assert cli.main(["--config", str(config), "simulate"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.csv").exists()


def test_analytic_run_with_split_energies_exits_two(tmp_path, capsys, monkeypatch):
    # raised before the output file is opened, or a CSV worker forked
    def no_fork():
        raise AssertionError("forked before the model was checked")

    monkeypatch.setattr(analytic, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", no_fork)
    for fmt in ("csv", "json"):
        out = tmp_path / f"out.{fmt}"
        config = write_config(tmp_path, mode="analytic", energies=[0.0, 3.0, 0.0],
                              run={"samples": 3 * analytic._CSV_BLOCK_ROWS},
                              output={"path": str(out), "format": fmt})
        assert cli.main(["--config", str(config), "simulate"]) == 2
        assert capsys.readouterr() == ("", "error: closed-form propagation needs equal "
                                           "energies, got energies=[0.0, 3.0, 0.0]\n")
        assert not out.exists()


def _nearest_cases():
    b = 1 << 16
    grid, edge = np.linspace(0.0, 6.0, 200_000), np.arange(2.0 * b)
    ties = np.array([0.0, 1.0, 1.0, 2.0])
    cases = {
        "before-grid": (grid, -1.0), "first": (grid, 0.0), "inside": (grid, 0.5 * math.pi),
        "past-grid": (grid, 7.0), "repeated": (ties, 1.0), "halfway": (ties, 0.5),
        # equally near the last time of one search block and the first of the next
        "across-blocks": (edge, b - 0.5), "next-block": (edge, b + 0.25),
        "all-distances-equal": (np.linspace(0.0, 1e-300, 3 * b), 1.5),
        "nan": (np.array([3.0]), math.nan),
    }
    return [pytest.param(times, t, id=name) for name, (times, t) in cases.items()]


@pytest.mark.parametrize("times,t", _nearest_cases())
def test_nearest_is_the_argmin_of_the_distance(times, t):
    assert cli._nearest(times, t) == int(np.argmin(np.abs(times - t)))


TINY = 5e-324  # the smallest subnormal: one ulp of every time below 2**-1022
NEAREST_TIMES = st.one_of(
    st.floats(-1e3, 1e3, allow_subnormal=False),
    st.sampled_from([0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308, 1e300]))


@st.composite
def sorted_grids(draw):
    """Non-decreasing finite grids: drawn times with repeats, a subnormal
    run, a ``linspace``, or a grid of :func:`numeric.integrate` over a
    sampled pulse whose breakpoints lie one ulp apart."""
    kind = draw(st.sampled_from(["drawn", "subnormal", "linspace", "integrate"]))
    if kind == "drawn":
        times = draw(st.lists(NEAREST_TIMES, min_size=1, max_size=40))
        times += draw(st.lists(st.sampled_from(times), max_size=10))  # repeats
        return np.sort(np.array(times))
    if kind == "subnormal":
        steps = draw(st.lists(st.integers(0, 3), min_size=1, max_size=40))
        return (np.cumsum(steps) - draw(st.integers(0, 3 * len(steps)))) * TINY
    if kind == "linspace":
        return np.linspace(draw(st.floats(-10, 0)), draw(st.floats(0, 10)),
                           draw(st.integers(1, 2000)))
    # a flat envelope, so interpolating across one ulp stays finite
    ulps = np.cumsum(draw(st.lists(st.integers(1, 4), min_size=1, max_size=12)))
    ends = np.concatenate([[0], ulps]) * TINY
    pulse = SampledPulse(ends, np.full(ends.size, 0.5))
    end = float(ends[-1]) + draw(st.integers(0, 3)) * TINY
    model = standard_2state(0.0, 0.0, pulse)
    times = numeric.integrate(model, numeric.resolution_bound(model), end).times
    assert (times[1:] >= times[:-1]).all()
    return times


@settings(max_examples=500, deadline=None)
@given(times=sorted_grids(),
       t=st.one_of(NEAREST_TIMES, st.sampled_from([math.nan, math.inf, -math.inf]),
                   st.floats(allow_nan=False, allow_infinity=False)))
def test_nearest_is_the_argmin_on_any_sorted_grid(times, t):
    assert cli._nearest(times, t) == int(np.argmin(np.abs(times - t)))


def fd_inode(fd):
    """The inode behind a file descriptor, or None when it is closed."""
    try:
        return os.fstat(fd).st_ino
    except OSError:
        return None


@pytest.mark.parametrize("fd", [0, 1])
def test_integer_samples_file_exits_two_and_leaves_fd_open(tmp_path, capsys, fd):
    config, raw = write_variant_config(tmp_path, "custom_sampled")
    raw["pulse"] = {"kind": "custom_sampled", "samples_file": fd}
    config.write_text(json.dumps(raw))
    before = fd_inode(fd)
    assert cli.main(["--config", str(config), "simulate"]) == 2
    assert fd_inode(fd) == before
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("pulse", [
    {"kind": "custom_sampled", "samples": [[0, 1], [1]]},
    {"kind": "custom_sampled", "samples": [[0, 1], [1, 1]], "samples_file": "absent.csv"},
], ids=["ragged", "samples-and-file"])
def test_malformed_samples_exit_two_and_name_the_key(tmp_path, capsys, pulse):
    config, raw = write_variant_config(tmp_path, "custom_sampled")
    raw["pulse"] = pulse
    config.write_text(json.dumps(raw))
    assert cli.main(["--config", str(config), "simulate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "samples" in err
    assert not (tmp_path / "out.csv").exists()


def test_kick_support_error_names_the_flags(tmp_path, capsys):
    out = tmp_path / "kick.csv"
    argv = ["--out", str(out), "kick", "--A0", "1", "--widths", "0.4", "--t0", "0.1"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: kick support must lie in t >= 0: t0=0.1, width=0.4\n"
    assert not out.exists()


def test_kick_height_overflow_exits_two_and_names_the_flags(tmp_path, capsys):
    out = tmp_path / "kick.csv"
    argv = ["--out", str(out), "kick", "--A0", "1e308", "--t0", "1e-299", "--widths", "1e-300"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: kick height must be finite: A0=1e+308, width=1e-300\n"
    assert not out.exists()


@pytest.mark.parametrize("values, message", [
    ([0.3, -0.7, 0.9], "error: sample slopes |dV/dt| must be finite: samples\n"),
    # flat, so every slope is finite; the grid's lo + k h overshoots a segment end
    ([0.3, 0.3, 0.3], "error: integrate's time grid must be non-decreasing: "
                      "at dt=5e-323, t_end=1.0257e-320 a segment's steps overshoot its end\n"),
])
def test_subnormal_sampled_run_exits_two(tmp_path, capsys, values, message):
    config = tmp_path / "subnormal.json"
    samples = [[t, v] for t, v in zip([3.765e-321, 3.819e-321, 8.009e-321], values)]
    config.write_text(json.dumps({
        "model": {"n": 3, "alpha": 0.3},
        "pulse": {"kind": "custom_sampled", "samples": samples},
        "run": {"mode": "numeric", "t_end": 1.0257e-320, "dt": 5e-323},
        "output": {"path": str(tmp_path / "out.csv")}}))
    assert cli.main(["--config", str(config), "simulate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("kind,key,value", [
    ("harmonic", "chi", "1.5"),
    ("harmonic", "omega", "1"),
    ("rect_kick", "width", "0.5"),
    ("custom_sampled", "samples", [["0", "0"], ["1", "1"]]),
])
def test_pulse_number_given_as_string_exits_two(tmp_path, capsys, kind, key, value):
    config, raw = write_variant_config(tmp_path, kind)
    raw["pulse"][key] = value
    config.write_text(json.dumps(raw))
    assert cli.main(["--config", str(config), "simulate"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.csv").exists()


SECTION_KEYS = {
    "model": sorted(cli._MODEL_KEYS),
    "run": sorted(cli._RUN_KEYS),
    "output": sorted(cli._OUTPUT_KEYS),
}
DELETE = object()
FUZZ_VALUES = st.one_of(
    st.just(DELETE), st.none(), st.booleans(), st.integers(-3, 5),
    st.sampled_from([10 ** 12, 10 ** 400, 0.0, -1.0, 1e-3, 0.5, 2.5, 1e300, -1e300,
                     math.inf, -math.inf, math.nan]),
    st.sampled_from(["", "x", "1.5", "harmonic", "rect_kick", "delta_kick",
                     "custom_sampled", "analytic", "numeric", "compare", "json"]),
    st.lists(st.sampled_from([0.0, 1.0, 2.0, math.nan, "x", None]), max_size=3),
    st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf]),
                      min_size=1, max_size=2), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["harmonic", *PULSE_VARIANTS]),
       edits=st.lists(st.tuples(st.sampled_from(["model", "pulse", "run", "output"]),
                                st.integers(0, 7), FUZZ_VALUES), min_size=1, max_size=4),
       section=st.sampled_from([None, "model", "pulse", "run", "output"]),
       section_value=FUZZ_VALUES)
def test_fuzzed_configs_exit_zero_or_two_without_traceback(kind, edits, section,
                                                           section_value):
    """Any config exits 0 or 2 and writes nothing when it exits 2.

    ``--tol`` is wide open, so a compare run whose fuzzed energies are
    split cannot fail its tolerance: that is exit 3 by design.
    """
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config, raw = write_variant_config(tmp, kind)
        raw["run"]["dt"], raw["run"]["t_end"] = 1e-3, 1.0
        keys = dict(SECTION_KEYS, pulse=["kind", *PULSE_KINDS[kind].schema])
        for where, pick, value in edits:
            key = keys[where][pick % len(keys[where])]
            if value is DELETE:
                raw[where].pop(key, None)
            else:
                raw[where][key] = value
        if section is not None and section_value is not DELETE:
            raw[section] = section_value
        config.write_text(json.dumps(raw))
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)  # a fuzzed output path is relative to here
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main(["--tol", "1e300", "--config", str(config),
                                 "simulate"])
        finally:
            os.chdir(cwd)
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ")
            assert sorted(p.name for p in tmp.iterdir()) == ["config.json"]


@pytest.mark.parametrize("section,edit,key", [
    ("pulse", {"chi": DELETE}, "pulse.chi"),
    ("pulse", {"kind": "custom_sampled", "chi": DELETE, "omega": DELETE}, "samples"),
    ("run", {"t_end": -1.0}, "run.t_end"),
    ("run", {"dt": 0}, "run.dt"),
    ("run", {"dt": -0.1}, "run.dt"),
    ("model", {"alpha": "0.3"}, "model.alpha"),
    ("model", {"n": 1}, "model.n"),
    ("model", {"n": 4, "beta": 2.0}, "model.beta"),
    ("model", {"reduced_multiplicity": 1}, "reduced_multiplicity"),
], ids=["pulse.chi-missing", "samples-missing", "t_end-negative", "dt-zero",
        "dt-negative", "alpha-string", "n-one", "beta-at-n4", "reduced_multiplicity"])
def test_rejected_config_names_its_key(tmp_path, capsys, section, edit, key):
    config = write_config(tmp_path)
    raw = json.loads(config.read_text())
    for name, value in edit.items():
        if value is DELETE:
            del raw[section][name]
        else:
            raw[section][name] = value
    config.write_text(json.dumps(raw))
    assert cli.main(["--config", str(config), "simulate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not (tmp_path / "out.csv").exists()


def test_unrepresentable_state_count_exits_two(tmp_path, capsys):
    config = write_config(tmp_path, model={"n": 10 ** 400, "beta": 1.0, "energies": 0})
    assert cli.main(["--config", str(config), "simulate"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


ONE_LINE_RESULTS = [
    (["flatness", "--pcr", "1", "--ts", "1"], "omega=1.12838\n"),
    (["design", "two-state", "--v", "1"], "A_t0=1.571\n"),
    (["design", "three-state", "--n1", "1", "--n2", "5"],
     "A_t0=1.656 alpha=-2.530 beta=1\n"),
    (["design", "n-state", "--n", "4", "--n0", "-1"], "A_t0=-1.549 alpha=-0.167 beta=1\n"),
]


@pytest.mark.parametrize("argv,expected", ONE_LINE_RESULTS)
def test_one_line_subcommands_print_their_result(capsys, argv, expected):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv,expected", ONE_LINE_RESULTS,
                         ids=["flatness", "two-state", "three-state", "n-state"])
def test_one_line_subcommands_write_their_result_to_out(tmp_path, capsys, argv, expected):
    out = tmp_path / "result.txt"
    assert cli.main(["--out", str(out), *argv]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == expected.encode()


# every byte of `table --max-product 30`
TABLE_30 = """\
n1n2,n1,n2,ne,no,noprime,A_t0,alpha
5,1,5,2,-1,3,1.656,-2.530
5,5,1,2,3,-1,1.656,2.530
9,3,3,2,1,1,2.221,0.000
11,1,11,4,-3,7,2.456,-4.264
11,11,1,4,7,-3,2.456,4.264
17,1,17,6,-5,11,3.053,-5.488
17,17,1,6,11,-5,3.053,5.488
23,1,23,8,-7,15,3.551,-6.487
23,23,1,8,15,-7,3.551,6.487
27,3,9,4,-1,5,3.848,-1.633
27,9,3,4,5,-1,3.848,1.633
29,1,29,10,-9,19,3.988,-7.353
29,29,1,10,19,-9,3.988,7.353
"""


def test_table_prints_thirteen_designs(capsys):
    assert cli.main(["table", "--max-product", "30"]) == 0
    assert capsys.readouterr().out == TABLE_30


def test_table_past_the_product_bound_exits_two_before_enumerating(capsys, monkeypatch):
    products = []
    monkeypatch.setattr(cli.control, "enumerate_designs", lambda p: products.append(p) or [])
    assert cli.main(["table", "--max-product", "1000001"]) == 2
    assert capsys.readouterr() == ("", "error: --max-product must be at most 1000000\n")
    assert cli.main(["table", "--max-product", "1000000"]) == 0
    assert products == [10 ** 6]


@pytest.mark.parametrize("argv,line", [
    (["n-state", "--n", "4", "--n0", "1", "--n1", "3"],
     "degenpop: error: unrecognized arguments: --n1 3"),
    (["two-state", "--v", "1", "--sign", "-1"],
     "degenpop: error: unrecognized arguments: --sign -1"),
    (["three-state", "--n1", "1", "--n2", "5", "--v", "0.3"],
     "degenpop: error: unrecognized arguments: --v 0.3"),
    (["three-state", "--n1", "1", "--n2", "5", "--n", "4"],
     "degenpop design three-state: error: ambiguous option: --n could match --n1, --n2"),
], ids=["n1-to-n-state", "sign-to-two-state", "v-to-three-state", "n-to-three-state"])
def test_design_rejects_a_flag_of_another_family(capsys, argv, line):
    assert cli.main(["design", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1] == line


@pytest.mark.parametrize("argv,flag", [
    (["three-state", "--n1", "1"], "--n2"),
    (["n-state", "--n0", "1"], "--n"),
    (["two-state"], "--v"),
], ids=["three-state", "n-state", "two-state"])
def test_design_missing_flag_exits_two_and_names_it(capsys, argv, flag):
    assert cli.main(["design", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1].endswith(
        f"error: the following arguments are required: {flag}")


def test_design_nstate_below_three_states_exits_two(capsys):
    assert cli.main(["design", "n-state", "--n", "2", "--n0", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("n,n0", [(10 ** 400, 1), (5, 10 ** 400 + 1), (5, -10 ** 400 - 1)],
                         ids=["n", "n0", "negative-n0"])
def test_design_nstate_huge_integer_exits_two(capsys, n, n0):
    assert cli.main(["design", "n-state", "--n", str(n), f"--n0={n0}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2**53" in err


@pytest.mark.parametrize("n1,n2", [(10 ** 400 + 1, 10 ** 400 + 3), (2 ** 53 + 1, 2 ** 53 + 1)],
                         ids=["1e400", "2**53+1"])
def test_design_3state_huge_integer_exits_two_and_names_n1(capsys, n1, n2):
    assert cli.main(["design", "three-state", "--n1", str(n1), "--n2", str(n2)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: n1 ") and "2**53" in err


def library_trajectory(model, t_end, samples):
    return analytic.trajectory(model, decompose_general(model),
                               np.linspace(0.0, t_end, samples))


def test_json_output_is_the_library_trajectory_and_repeats_bytes(tmp_path, capsys):
    config = write_config(tmp_path, mode="analytic", run={"t_end": 3.0, "samples": 37},
                          output={"path": str(tmp_path / "out.json"), "format": "json"})
    codes, texts = run_twice(["--config", str(config), "simulate"], tmp_path / "out.json")
    assert codes == [0, 0] and texts[0] == texts[1]
    doc = json.loads(texts[0])
    assert list(doc) == ["P", "closure", "t"]
    assert len(doc["t"]) == len(doc["P"]) == len(doc["closure"]) == 37
    model, run = cli._validate_config(json.loads(config.read_text()))
    traj = library_trajectory(model, run["t_end"], run["samples"])
    assert doc["t"] == traj.times.tolist()
    assert doc["P"] == traj.probabilities.tolist()
    assert doc["closure"] == traj.closure.tolist()


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("extra,omega", [
    (1, 1.0), (1, math.pi / 6.0), (1, 0.2), (5, 0.2),
], ids=["first-block", "middle-block", "last-one-row-block", "last-partial-block"])
def test_streamed_summary_and_csv_are_the_whole_trajectory_ones(
        tmp_path, capsys, monkeypatch, cpus, extra, omega):
    # 3 blocks and a partial one; t0 = pi/(2 omega) lies in the first, the
    # second, or past t_end = 6, which reports the last row
    monkeypatch.setattr(analytic, "_usable_cpus", lambda: cpus)
    samples = 3 * analytic._CSV_BLOCK_ROWS + extra
    config = write_config(tmp_path, mode="analytic", run={"t_end": 6.0, "samples": samples},
                          pulse={"omega": omega})
    assert cli.main(["--config", str(config), "simulate"]) == 0
    model, run = cli._validate_config(json.loads(config.read_text()))
    traj = library_trajectory(model, 6.0, samples)
    idx = int(np.argmin(np.abs(traj.times - model.pulse.reference_time(6.0))))
    assert idx // analytic._CSV_BLOCK_ROWS == (0 if omega == 1.0 else 1 if omega > 0.2 else 3)
    assert capsys.readouterr().out == (
        f"t0={traj.times[idx]:.17g} P2(t0)={traj.probabilities[idx, 1]:.17g} "
        f"closure_max_err={np.max(np.abs(traj.closure - 1.0)):.17g}\n")
    assert (tmp_path / "out.csv").read_bytes() == analytic.trajectory_to_csv(traj).encode()


ROW_SOURCE_MODELS = {2: {"n": 2, "eps": [0.1, -0.2]},
                     3: {"n": 3, "alpha": 0.3, "beta": 1.0},
                     5: {"n": 5, "alpha": -0.2, "beta": 1.0, "eps": 0.1}}


@pytest.mark.parametrize("samples", [1, 4097, 8193])  # 8193: a one-row last block
@pytest.mark.parametrize("n", sorted(ROW_SOURCE_MODELS))
def test_csv_and_json_runs_read_one_row_source(tmp_path, capsys, n, samples):
    summaries = {}
    for fmt in ("csv", "json"):
        config = write_config(tmp_path, mode="analytic", run={"t_end": 6.0, "samples": samples},
                              output={"path": str(tmp_path / f"out.{fmt}"), "format": fmt})
        raw = json.loads(config.read_text())
        raw["model"] = ROW_SOURCE_MODELS[n]
        config.write_text(json.dumps(raw))
        assert cli.main(["--config", str(config), "simulate"]) == 0
        summaries[fmt] = capsys.readouterr().out
    assert summaries["csv"] == summaries["json"]
    lines = (tmp_path / "out.csv").read_text().splitlines()[1:]
    table = np.array([[float(v) for v in line.split(",")] for line in lines])
    doc = json.loads((tmp_path / "out.json").read_text())
    for key, column in (("t", table[:, 0]), ("P", table[:, 1:-1]), ("closure", table[:, -1])):
        assert np.array(doc[key]).tobytes() == column.tobytes()


@pytest.mark.parametrize("n", [2, 6])
def test_simulate_2state_and_nstate_configs_are_the_library_models(tmp_path, capsys, n):
    model_section = ({"n": 2, "eps": [0.1, -0.2]} if n == 2
                     else {"n": 6, "alpha": -0.2, "beta": 1.0, "eps": 0.1})
    config = write_config(tmp_path, mode="analytic", run={"t_end": 4.0, "samples": 101})
    raw = json.loads(config.read_text())
    raw["model"] = model_section
    config.write_text(json.dumps(raw))
    assert cli.main(["--config", str(config), "simulate"]) == 0
    pulse = HarmonicPulse(chi=1.0, omega=1.0)
    model = (standard_2state(0.1, -0.2, pulse) if n == 2
             else symmetric_nstate(6, -0.2, 0.1, pulse))
    traj = library_trajectory(model, 4.0, 101)
    assert (tmp_path / "out.csv").read_text() == trajectory_to_csv_rows(traj)
    assert traj.probabilities.shape == (101, 2 if n == 2 else 3)


@pytest.mark.parametrize("run,key", [
    ({"mode": "analytic", "samples": 0}, "run.samples"),
    ({"mode": "analytic", "samples": cli._MAX_ROWS + 1}, "run.samples"),
    ({"mode": "numeric", "t_end": 1.0, "dt": 0.99e-7}, "run.t_end/run.dt"),
], ids=["samples-0", "samples-past-max", "steps-past-max"])
def test_too_many_rows_exit_two_and_name_the_key(tmp_path, capsys, run, key):
    config = write_config(tmp_path, run=run)
    assert cli.main(["--config", str(config), "simulate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} ") and str(cli._MAX_ROWS) in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("error", [ArithmeticError, OverflowError, ZeroDivisionError])
def test_arithmetic_error_in_a_command_exits_three(monkeypatch, capsys, error):
    def fail(*args):
        raise error("no finite result")

    monkeypatch.setattr(cli.analytic, "flatness_frequency", fail)
    assert cli.main(["flatness", "--pcr", "1", "--ts", "1"]) == 3
    assert capsys.readouterr() == ("", "error: no finite result\n")
