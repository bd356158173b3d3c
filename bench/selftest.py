"""Self-tests of the benchmark itself; not part of the repository's tests.

    python3 -m pytest -q bench/selftest.py

The file name does not match ``test_*.py``, so the repository's own test
run does not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from degenpop import analytic, control, coupling, dressed  # noqa: E402

WORK_COUNTS = ("cli.calls", "control.designs", "coupling.models", "dressed.decompositions",
               "dressed.errors", "pulses.action_samples", "analytic.samples", "numeric.steps")


def test_self_times_of_nested_spans():
    S = tracing.Span
    spans = [
        S("cli.main", 0, 100, None),
        S("dressed.decompose_general", 10, 40, 0),
        S("analytic.trajectory", 15, 25, 1),
        S("analytic.trajectory", 50, 70, 0),
        S("numeric.integrate", 200, 260, None),
        S("numeric.compare", 210, 240, 4),  # overlapping children are
        S("numeric.compare", 230, 250, 4),  # covered once, not twice
    ]
    assert tracing.self_times(spans) == [50, 20, 10, 20, 20, 30, 20]


def test_layer_totals_split_self_time_by_layer():
    tr = tracing.Tracer()
    tr.spans = [
        tracing.Span("cli.main", 0, 5_000_000, None),
        tracing.Span("analytic.trajectory", 1_000_000, 3_000_000, 0),
        tracing.Span("pulses.action_values", 1_000_000, 1_500_000, 1),
    ]
    values, top_ms = tr.layer_totals()
    assert values["cli.self_ms"] == 3.0
    assert values["analytic.propagate_ms"] == 1.5
    assert values["pulses.action_ms"] == 0.5
    assert top_ms == 5.0


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail([float(x) for x in range(1, 101)])
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    value, pct, beyond = run.tail([float(x) for x in range(1, 401)])
    assert (value, pct, beyond) == (390.0, 97.5, 10)


def test_tail_of_few_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail([float(x) for x in range(1, 100)]) == (99.0, 100.0, 0)


def test_times_are_divided_by_the_probed_speed():
    m = {"tally": Counter({workloads.PASS: 4}), "plain": [4.0, 8.0],
         "ops": [[1.0, 3.0], [2.0, 6.0]], "speeds": [1.0, 2.0]}  # pass 2 on a 2x slower processor
    metrics, _ = run.end_to_end(m, 0.2)
    assert metrics["wall_s"][0] == 0.004
    assert metrics["op_p50_ms"][0] == 2.0
    assert metrics["op_tail_ms"][0] == 3.0


class _Tiny(workloads.Workload):
    """A pass of a few cheap library calls through the wrapped names."""

    ops = ["op"]

    def run(self, op):
        d = control.design_3state(1, 5)
        model = coupling.standard_3state(d.alpha, 1.0, np.zeros(3),
                                         control.pulse_for_design(d, 1.0))
        return analytic.trajectory(model, dressed.decompose_general(model),
                                   np.linspace(0.0, 1.0, 8))

    def check(self, op, result):
        return workloads.PASS


def _wrapped_names():
    return [(owner, attr) for owner, attr, _, _ in tracing._entry_points()]


def test_wrappers_restored_after_traced_run():
    before = [(o, a, o.__dict__[a] if isinstance(o, type) else getattr(o, a))
              for o, a in _wrapped_names()]
    tracer = tracing.Tracer()
    m = run.measure(_Tiny(), 0.0, tracer)
    assert not tracer.installed
    for owner, attr, original in before:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is original, f"{attr} left wrapped"
    layers = m["layers"][0]
    assert layers["dressed.decompositions"] == 1
    assert layers["analytic.samples"] == 8
    assert layers["dressed.decompose_ms"] > 0


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("bench")


def _traced_counts(name: str, seed: int, workdir: Path) -> dict:
    wl = workloads.WORKLOADS[name]()
    wl.setup(seed, workdir / f"{name}-{seed}")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tally: Counter = Counter()
        run.run_pass(wl, tally)
    finally:
        tracer.restore()
    assert tally["fail"] == 0
    values, _ = tracer.layer_totals()
    return {k: values[k] for k in WORK_COUNTS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_work_counts_identical_on_two_seeds(name, workdir):
    for seed in (1, 2):
        (workdir / f"{name}-{seed}").mkdir()
    assert _traced_counts(name, 1, workdir) == _traced_counts(name, 2, workdir)


def _setup(name: str, workdir: Path, tag: str = "perturb"):
    wl = workloads.WORKLOADS[name]()
    path = workdir / f"{name}-{tag}"
    path.mkdir()
    wl.setup(3, path)
    return wl


def test_design_sweep_population_off_by_1e6_fails(workdir):
    wl = _setup("design_sweep", workdir)
    op = next(o for o in wl.ops if o.kind == "design3")
    traj = wl.run(op)
    assert wl.check(op, traj) == workloads.PASS
    unchecked = next(k for k in range(1, wl.SAMPLES) if k not in op.check_idx)
    for k in (unchecked, wl.SAMPLES - 1):
        probs = traj.probabilities.copy()
        probs[k, 1] += 1e-6
        assert wl.check(op, dataclasses.replace(traj, probabilities=probs)) == workloads.FAIL


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text().splitlines(keepends=True)
    edit(lines)
    path.write_text("".join(lines))


def test_dense_trajectory_population_off_by_1e6_fails(workdir):
    wl = _setup("dense_trajectory", workdir)
    result = wl.run("simulate")
    assert wl.check("simulate", result) == workloads.PASS
    row = min(wl.rows) + 1  # line 0 is the header

    def bump(lines):
        vals = [float(x) for x in lines[row].split(",")]
        vals[2] += 1e-6
        lines[row] = ",".join(f"{v:.17g}" for v in vals) + "\n"

    _rewrite(wl.out, bump)
    wl.digest = None  # judge by the tolerance checks, not the byte comparison
    assert wl.check("simulate", result) == workloads.FAIL


def test_integrator_scans_population_off_by_1e6_fails(workdir):
    wl = _setup("integrator_scans", workdir)

    def bump_csv(lines):
        key, val = lines[1].rstrip("\n").split(",")
        lines[1] = f"{key},{float(val) + 1e-6:.17g}\n"

    for op, path in (("leakage", wl.leak_out), ("kick", wl.kick_out)):
        result = wl.run(op)
        assert wl.check(op, result) == workloads.PASS
        _rewrite(path, bump_csv)
        assert wl.check(op, result) == workloads.FAIL

    assert wl.check("kick", RuntimeError("raised inside degenpop")) == workloads.FAIL
    result = wl.run("compare")
    assert wl.check("compare", result) == workloads.PASS
    doc = json.loads(wl.compare_out.read_text())
    doc["P"][-1][1] += 1e-6
    wl.compare_out.write_text(json.dumps(doc))
    assert wl.check("compare", result) == workloads.FAIL
    wl.compare_out.unlink()
    assert wl.check("compare", result) == workloads.FAIL


@pytest.mark.parametrize("name", ["dense_trajectory", "integrator_scans"])
def test_command_that_writes_nothing_fails_on_second_pass(name, workdir, monkeypatch):
    wl = _setup(name, workdir, "silent")
    tally: Counter = Counter()
    run.run_pass(wl, tally)
    assert tally == Counter({workloads.PASS: len(wl.ops)})
    printed = {tuple(wl.argvs[op]): wl.run(op)[1] for op in wl.ops}

    def silent_main(argv):  # prints what the real command printed, writes no file
        print(printed[tuple(argv)], end="")
        return 0

    monkeypatch.setattr(workloads.cli, "main", silent_main)
    tally.clear()
    run.run_pass(wl, tally)
    assert tally == Counter({workloads.FAIL: len(wl.ops)})
