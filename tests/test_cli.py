import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenpop import cli
from degenpop.pulses import PULSE_KINDS


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


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("section,key,kind", NUMERIC_KEYS,
                         ids=[f"{s}.{k}-{p}" for s, k, p in NUMERIC_KEYS])
def test_nonfinite_config_number_exits_two(tmp_path, capsys, section, key, kind, value):
    config, raw = write_variant_config(tmp_path, kind)
    if key == "samples[1][1]":
        raw["pulse"]["samples"][1][1] = value
    else:
        raw[section][key] = value
    config.write_text(json.dumps(raw))  # writes Infinity, -Infinity, NaN
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


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_invalid_tolerance_exits_two(tmp_path, capsys, tol):
    config = write_config(tmp_path, mode="compare")
    assert cli.main([f"--tol={tol}", "--config", str(config), "simulate"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("mode", ["numeric", "compare"])
def test_delta_kick_cannot_be_integrated_exits_two(tmp_path, capsys, mode):
    config, raw = write_variant_config(tmp_path, "delta_kick")
    raw["run"]["mode"] = mode
    config.write_text(json.dumps(raw))
    assert cli.main(["--config", str(config), "simulate"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out.csv").exists()


def test_analytic_run_with_split_energies_exits_two(tmp_path, capsys):
    config = write_config(tmp_path, mode="analytic", energies=[0.0, 3.0, 0.0])
    assert cli.main(["--config", str(config), "simulate"]) == 2
    assert "energies" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


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


@pytest.mark.parametrize("argv,expected", [
    (["flatness", "--pcr", "1", "--ts", "1"], "omega=1.12838\n"),
    (["design", "two-state", "--v", "1"], "A_t0=1.571\n"),
    (["design", "three-state", "--n1", "1", "--n2", "5"],
     "A_t0=1.656 alpha=-2.530 beta=1\n"),
])
def test_one_line_subcommands_print_their_result(capsys, argv, expected):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


def test_table_prints_thirteen_designs(capsys):
    assert cli.main(["table", "--max-product", "30"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "n1n2,n1,n2,ne,no,noprime,A_t0,alpha"
    assert len(rows) == 1 + 13
    assert rows[1] == "5,1,5,2,-1,3,1.656,-2.530"


def test_design_nstate_below_three_states_exits_two(capsys):
    assert cli.main(["design", "n-state", "--n", "2", "--n0", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("n,n0", [(10 ** 400, 1), (5, 10 ** 400 + 1), (5, -10 ** 400 - 1)],
                         ids=["n", "n0", "negative-n0"])
def test_design_nstate_huge_integer_exits_two(capsys, n, n0):
    assert cli.main(["design", "n-state", "--n", str(n), f"--n0={n0}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2**53" in err
