import io
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (CLOSURE_TOL, delta_kick_response, flat_top_quartic, leakage_estimate,
                     probabilities_2state, probabilities_at, probabilities_cosine_form,
                     probabilities_nstate_sym, trajectory_to_csv_rows)
from scipy.linalg import expm

from degenpop import analytic
from degenpop.analytic import (_CSV_BLOCK_ROWS, Trajectory, amplitudes_many,
                               flatness_frequency, trajectory, trajectory_rows,
                               trajectory_to_csv, write_csv)
from degenpop.control import design_3state, pulse_for_design
from degenpop.coupling import (CouplingModel, standard_2state, standard_3state,
                               symmetric_nstate)
from degenpop.dressed import decompose_general
from degenpop.errors import DimensionTooSmall, DomainError, OutOfDomain
from degenpop.pulses import DeltaKickPulse, HarmonicPulse

SQRT2 = math.sqrt(2.0)
PULSE = HarmonicPulse(chi=1.0, omega=1.0)


def basis_2state(eps1, eps2):
    return decompose_general(standard_2state(eps1, eps2, PULSE))


def basis_3state(alpha, beta, eps):
    return decompose_general(standard_3state(alpha, beta, eps, PULSE))


def basis_nstate(n, alpha, eps):
    return decompose_general(symmetric_nstate(n, alpha, eps, PULSE))


def test_amplitudes_start_in_state_one():
    for basis in (basis_2state(0.0, 0.3),
                  basis_3state(0.2, 1.0, [0.0, 0.1, -0.1]),
                  basis_nstate(6, -1.0, 0.0)):
        a = amplitudes_many(basis, [0.0])[0]
        e1 = np.zeros(basis.n, dtype=complex)
        e1[0] = 1.0
        assert np.allclose(a, e1, atol=1e-12)


def test_amplitudes_2state_quarter_turn():
    b = basis_2state(0.0, 0.0)
    a = amplitudes_many(b, [0.5 * math.pi])[0]
    assert np.allclose(a, [0.0, -1.0j], atol=1e-12)


def test_amplitudes_3state_complete_transfer():
    b = basis_3state(0.0, 1.0, [0.0, 0.0, 0.0])
    a = amplitudes_many(b, [math.pi / SQRT2])[0]
    assert abs(abs(a[1]) - 1.0) < 1e-12
    assert abs(a[0]) < 1e-12
    assert abs(a[2]) < 1e-12


def test_amplitudes_many_matches_expm():
    w = np.array([[0.0, 0.4, 0.9], [0.4, 0.2, 1.0], [0.9, 1.0, -0.1]])
    b = basis_3state(0.4, 0.9, np.diag(w))
    actions = np.linspace(0.0, 5.0, 23)
    many = amplitudes_many(b, actions)
    for k, a in enumerate(actions):
        assert np.max(np.abs(many[k] - expm(-1j * a * w)[:, 0])) <= 1e-13


def test_probabilities_at_zero_action():
    b = basis_2state(0.0, 1.0)
    assert np.allclose(probabilities_at(b, 0.0), [1.0, 0.0], atol=1e-12)


def test_probabilities_equipartition_point():
    b = basis_3state(0.0, 1.0, [0.0, 0.0, 0.0])
    p = probabilities_at(b, math.pi / (2.0 * SQRT2))
    assert np.allclose(p, [0.25, 0.25, 0.5], atol=1e-12)


def test_probabilities_table_row_rounded_values():
    # 3-decimal design values still give transfer within 1e-6
    b = basis_3state(-2.530, 1.0, [0.0, 0.0, 0.0])
    p = probabilities_at(b, 1.656)
    assert p[1] >= 1.0 - 1e-6


def test_probabilities_closure_check_rejects_bad_weight():
    b = basis_nstate(6, -1.0, 0.0)
    probabilities_at(b, 1.3)
    # the same phase weights read with multiplicity 2 instead of 4
    with pytest.raises(ArithmeticError):
        probabilities_at(replace(b, scale=np.sqrt([1.0, 1.0, 2.0])), 1.3)


PIN_MODELS = {
    "2state": standard_2state(0.0, 0.3, PULSE),
    "3state-design": standard_3state(-2.530, 1.0, np.zeros(3), HarmonicPulse(1.656, 1.0)),
    "3state-eps": standard_3state(0.4, 0.9, [0.0, 0.2, -0.1], HarmonicPulse(2.0, 1.3)),
    "nstate": symmetric_nstate(6, -1.0, 0.0, PULSE),
    "kick": standard_2state(0.0, 0.0, DeltaKickPulse(0.5 * math.pi, 1.0)),
}


@pytest.mark.parametrize("name", sorted(PIN_MODELS))
def test_probabilities_at_is_the_propagated_row_and_closure_rule(name):
    model = PIN_MODELS[name]
    basis = decompose_general(model)
    # the same phase weights read with the wrong multiplicities, which the
    # closure rule must catch wherever the weighted states are populated
    tampered = replace(basis, scale=np.sqrt(np.arange(1.0, model.n + 1.0)))
    for t in (0.0, 0.4, 1.0, 2.7, 11.0):
        traj = trajectory(model, basis, [t])
        assert (probabilities_at(basis, model.pulse.action(t)).tobytes()
                == traj.probabilities[0].tobytes())
        for b, closure in ((basis, traj.closure),
                           (tampered, traj.probabilities @ tampered.scale ** 2)):
            try:
                probabilities_at(b, model.pulse.action(t))
                closed = True
            except ArithmeticError:
                closed = False
            assert closed == (replace(traj, closure=closure).closure_error <= CLOSURE_TOL)
        assert traj.closure_error <= CLOSURE_TOL


def test_cosine_form_matches_squared_amplitudes():
    rng = np.random.default_rng(17)
    probes = 0
    while probes < 1000:
        alpha, beta = rng.uniform(-3, 3, 2)
        eps = rng.uniform(-1, 1, 3)
        b = basis_3state(alpha, beta, eps)
        for action in rng.uniform(0.0, 8.0, 5):
            p = probabilities_at(b, float(action))
            for state in (1, 2, 3):
                q = probabilities_cosine_form(b, float(action), state)
                assert abs(p[state - 1] - q) <= 1e-12
            probes += 5


def test_probabilities_2state_matches_propagation():
    actions = np.linspace(0.0, 3.0 * math.pi, 301)
    p = np.abs(amplitudes_many(basis_2state(0.0, 0.0), actions)) ** 2
    assert np.max(np.abs(p - probabilities_2state(actions))) <= 1e-12


def test_probabilities_2state_values():
    assert np.allclose(probabilities_2state(0.5 * math.pi), [0.0, 1.0],
                       atol=1e-12)
    assert np.allclose(probabilities_2state(0.0), [1.0, 0.0], atol=0)
    assert np.allclose(probabilities_2state(0.25 * math.pi), [0.5, 0.5],
                       atol=1e-12)


def test_trajectory_rejects_split_energies():
    model = standard_2state(0.0, 0.0, PULSE).with_energies([0.0, 3.0])
    with pytest.raises(DomainError, match=r"energies=\[0\.0, 3\.0\]"):
        trajectory(model, decompose_general(model), [0.0, 1.0])


def test_trajectory_takes_equal_energies_as_a_global_phase():
    model = standard_2state(0.0, 0.0, PULSE)
    times = np.linspace(0.0, 3.0, 7)
    ref = trajectory(model, decompose_general(model), times)
    shifted = trajectory(model.with_energies([2.5, 2.5]), decompose_general(model), times)
    assert np.array_equal(shifted.probabilities, ref.probabilities)


def test_probabilities_nstate_sym_endpoints():
    assert np.allclose(probabilities_nstate_sym(3, 0.0), [1.0, 0.0, 0.0],
                       atol=1e-12)
    p = probabilities_nstate_sym(3, 2.0 * math.pi)
    assert abs(p[0]) < 1e-12
    assert abs(p[1] - 1.0) < 1e-12
    p = probabilities_nstate_sym(3, math.pi)
    assert np.allclose(p, [0.25, 0.25, 0.5], atol=1e-12)


def test_probabilities_nstate_sym_closure_identity():
    for n in (3, 4, 5, 10, 100):
        theta = np.linspace(0.0, 4.0 * math.pi, 100)
        p = probabilities_nstate_sym(n, theta)
        total = p[:, 0] + p[:, 1] + (n - 2) * p[:, 2]
        assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_probabilities_nstate_sym_manifold_share_shrinks():
    theta = np.linspace(0.0, 2.0 * math.pi, 200)
    p = probabilities_nstate_sym(10 ** 4, theta)
    assert np.max((10 ** 4 - 2) * p[:, 2]) <= 0.5 + 1e-12
    p502 = probabilities_nstate_sym(502, math.pi)
    assert p502[2] <= 1e-3


@pytest.mark.parametrize("n", [3, 4, 5, 9])
def test_probabilities_nstate_sym_matches_propagated_star_model(n):
    # states 1 and 2 couple with strength 1 to each manifold state and to
    # nothing else: alpha = 0, no self coupling, no coupling in the manifold
    r = np.zeros((n, n))
    r[:2, 2:] = r[2:, :2] = 1.0
    model = CouplingModel(n, r, np.zeros(n), np.zeros(n), PULSE)
    actions = np.linspace(0.0, 3.0, 301)
    p = np.abs(amplitudes_many(decompose_general(model), actions)) ** 2
    theta = 2.0 * math.sqrt(2.0 * (n - 2)) * actions
    want = probabilities_nstate_sym(n, theta)
    assert np.max(np.abs(p[:, :3] - want)) <= 1e-12
    assert np.max(np.abs(p[:, 2:] - want[:, 2:])) <= 1e-12  # every manifold state


def test_probabilities_nstate_sym_rejects_small_n():
    with pytest.raises(DimensionTooSmall):
        probabilities_nstate_sym(2, 1.0)


def test_trajectory_2state_peaks_at_quarter_periods():
    pulse = HarmonicPulse(chi=0.5 * math.pi, omega=1.0)
    model = standard_2state(0.0, 0.0, pulse)
    basis = decompose_general(model)
    times = np.linspace(0.0, pulse.period, 401)
    traj = trajectory(model, basis, times)
    p2 = traj.probabilities[:, 1]
    assert abs(p2[100] - 1.0) < 1e-12   # T/4
    assert abs(p2[300] - 1.0) < 1e-12   # 3T/4
    assert np.argmax(p2) in (100, 300)
    assert np.max(np.abs(traj.closure - 1.0)) <= 1e-9


def test_trajectory_empty_times():
    pulse = HarmonicPulse(chi=1.0, omega=1.0)
    model = standard_2state(0.0, 0.0, pulse)
    traj = trajectory(model, decompose_general(model), [])
    assert traj.times.size == 0
    assert traj.probabilities.shape[0] == 0


def test_trajectory_rejects_negative_times():
    pulse = HarmonicPulse(chi=1.0, omega=1.0)
    model = standard_2state(0.0, 0.0, pulse)
    with pytest.raises(OutOfDomain):
        trajectory(model, decompose_general(model), [-1.0, 0.0])


@pytest.mark.parametrize("times", [[0.0, math.nan, 1.0], [0.0, 1.0, math.inf],
                                   [math.nan], [-math.inf, 0.0]],
                         ids=["nan", "inf", "only-nan", "-inf"])
def test_trajectory_rejects_non_finite_times(times):
    model = standard_2state(0.0, 0.0, PULSE)
    with pytest.raises(OutOfDomain, match="finite"):
        trajectory(model, decompose_general(model), times)


def test_trajectory_rejects_decreasing_times():
    model = standard_2state(0.0, 0.0, PULSE)
    with pytest.raises(OutOfDomain, match="non-decreasing"):
        trajectory(model, decompose_general(model), [0.0, 2.0, 1.0])


@pytest.mark.parametrize("times", [[5.0, -1.0], [1.0, math.nan, 0.0]],
                         ids=["negative", "nan"])
def test_trajectory_out_of_order_and_out_of_domain_reports_the_domain(times):
    model = standard_2state(0.0, 0.0, PULSE)
    with pytest.raises(OutOfDomain, match="finite"):
        trajectory(model, decompose_general(model), times)


@pytest.mark.parametrize("times", [0.5, [[0.0, 1.0]]], ids=["scalar", "2-d"])
def test_trajectory_rejects_a_grid_that_is_not_1d(times):
    model = standard_2state(0.0, 0.0, PULSE)
    with pytest.raises(OutOfDomain, match="1-d"):
        trajectory(model, decompose_general(model), times)


def test_trajectory_one_sample_and_repeated_times():
    model = standard_2state(0.0, 0.0, PULSE)
    basis = decompose_general(model)
    grid = trajectory(model, basis, [0.0, 0.7, 0.7, 1.2])
    one = trajectory(model, basis, [0.7])
    assert one.probabilities.shape == (1, 2)
    assert np.array_equal(one.probabilities[0], grid.probabilities[1])
    assert np.array_equal(grid.probabilities[1], grid.probabilities[2])


def test_trajectory_side_band_count_grows_with_alpha():
    def maxima_count(n1, n2):
        design = design_3state(n1, n2)
        pulse = pulse_for_design(design, 1.0)
        model = standard_3state(design.alpha, 1.0, np.zeros(3), pulse)
        basis = decompose_general(model)
        times = np.linspace(0.0, pulse.quarter_period, 2001)
        p1 = trajectory(model, basis, times).probabilities[:, 0]
        inner = p1[1:-1]
        return int(np.sum((inner > p1[:-2]) & (inner > p1[2:])))

    assert maxima_count(35, 1) > maxima_count(3, 3)


def test_trajectory_reduced_closure_weighted():
    pulse = HarmonicPulse(chi=2.0, omega=1.0)
    model = symmetric_nstate(8, -5.0 / 3.0, 0.0, pulse)
    basis = decompose_general(model)
    times = np.linspace(0.0, pulse.period, 300)
    traj = trajectory(model, basis, times)
    assert np.max(np.abs(traj.closure - 1.0)) <= 1e-9
    plain = np.sum(traj.probabilities, axis=1)
    assert np.max(np.abs(plain - 1.0)) > 1e-3  # unweighted sum is not conserved


def test_trajectory_csv_format():
    pulse = HarmonicPulse(chi=1.0, omega=1.0)
    model = standard_2state(0.0, 0.0, pulse)
    traj = trajectory(model, decompose_general(model), [0.0, 1.0])
    text = trajectory_to_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,P1,P2,closure"
    assert len(lines) == 3
    assert lines[1].startswith("0,1,")


def _random_model(n):
    a = np.random.default_rng(n).uniform(-2.0, 2.0, (n, n))
    r = a + a.T
    return CouplingModel(n, r, np.diag(r).copy(), np.zeros(n), PULSE)


def _random_trajectory(n, rows):
    model = _random_model(n)
    return trajectory(model, decompose_general(model), np.linspace(0.0, 7.0, rows))


def _written(rows, count):
    fh = io.StringIO()
    error = write_csv(rows, count, fh)
    return fh.getvalue(), error


@pytest.mark.parametrize("n", [2, 3, 5])
def test_trajectory_csv_matches_row_oracle_across_blocks(n, tmp_path):
    b = _CSV_BLOCK_ROWS
    out = tmp_path / "traj.csv"
    for rows in (0, 1, b - 1, b, b + 1, 2 * b + 1):
        traj = _random_trajectory(n, rows)
        text = trajectory_to_csv(traj)
        assert text == trajectory_to_csv_rows(traj)
        assert text.count("\n") == rows + 1
        with open(out, "w", newline="") as fh:
            write_csv(traj.rows, rows, fh)
        assert out.read_text() == text
        # pieces that start mid-block, and a stop past the last row
        cuts = [0, 1, b // 2, b + 3, 2 * b + 1, 3 * b]
        assert "".join(trajectory_to_csv(traj.rows(lo, hi), lo == 0)
                       for lo, hi in zip(cuts, cuts[1:])) == text


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_block_slices_propagate_bitwise_as_the_whole_grid(n):
    # the invariant write_csv's streamed rows rest on
    b = _CSV_BLOCK_ROWS
    model = _random_model(n)
    basis = decompose_general(model)
    for count in (1, b, b + 1, 200_000):
        times = np.linspace(0.0, 7.0, count)
        whole = trajectory(model, basis, times)
        rows = trajectory_rows(model, basis, times)
        for lo in range(0, count, b):
            hi = min(lo + b, count)
            for piece in (rows(lo, hi), trajectory(model, basis, times[lo:hi])):
                _assert_rows_are(piece, whole, lo, hi)
        for k in {0, b - 1, b, count // 2, count - 1}:
            if k < count:
                assert np.array_equal(rows(k, k + 1).amplitudes, whole.amplitudes[k:k + 1])


def _assert_rows_are(piece, whole, lo, hi):
    assert np.array_equal(piece.times, whole.times[lo:hi])
    assert np.array_equal(piece.amplitudes, whole.amplitudes[lo:hi])
    assert np.array_equal(piece.probabilities, whole.probabilities[lo:hi])
    assert np.array_equal(piece.closure, whole.closure[lo:hi])


@pytest.mark.parametrize("n", [2, 3, 5, 7])
@pytest.mark.parametrize("count", [4097, 8193])
def test_any_cut_propagates_bitwise_as_the_whole_grid(n, count):
    # a row's rounding depends on that row alone: random cuts, single rows
    # anywhere, and a one-row last block
    model = _random_model(n)
    basis = decompose_general(model)
    times = np.linspace(0.0, 7.0, count)
    whole = trajectory(model, basis, times)
    rows = trajectory_rows(model, basis, times)
    rng = np.random.default_rng(count + n)
    cuts = np.unique(np.concatenate([[0, count - 1, count], rng.integers(0, count, 12)]))
    singles = np.concatenate([[0, count - 1], rng.integers(0, count, 24)])
    for lo, hi in [*zip(cuts, cuts[1:]), *zip(singles, singles + 1)]:
        _assert_rows_are(rows(lo, hi), whole, lo, hi)
        _assert_rows_are(trajectory(model, basis, times[lo:hi]), whole, lo, hi)


@pytest.mark.parametrize("n", [2, 3, 5, 7, 12])
def test_one_action_is_bitwise_its_row_of_a_batch(n):
    basis = decompose_general(_random_model(n))
    actions = np.random.default_rng(n).uniform(-9.0, 9.0, 300)
    batch = amplitudes_many(basis, actions)
    assert batch.flags.c_contiguous and batch.shape == (300, n)
    for k in range(0, 300, 7):
        assert np.array_equal(amplitudes_many(basis, [actions[k]]), batch[k:k + 1])


def test_trajectory_rows_raises_before_propagating(monkeypatch):
    model = _random_model(3)
    basis = decompose_general(model)
    monkeypatch.setattr(analytic, "amplitudes_many", None)  # any propagation fails
    with pytest.raises(DomainError, match="equal energies"):
        trajectory_rows(model.with_energies(np.array([0.0, 0.1, 0.0])), basis, [0.0, 1.0])
    with pytest.raises(OutOfDomain, match="non-decreasing"):
        trajectory_rows(model, basis, [0.0, 2.0, 1.0])


def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(analytic, "_usable_cpus", lambda: count)


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_write_csv_matches_row_oracle_for_any_worker_count(n, cpus, tmp_path, monkeypatch):
    _usable_cpus(monkeypatch, cpus)
    b = _CSV_BLOCK_ROWS
    model = _random_model(n)
    basis = decompose_general(model)
    out = tmp_path / "traj.csv"
    for rows in (0, 1, b, b + 1, 2 * b + 1, 5 * b + 3):
        times = np.linspace(0.0, 7.0, rows)
        traj = trajectory(model, basis, times)
        for source in (traj.rows, trajectory_rows(model, basis, times)):
            with open(out, "w", newline="") as fh:
                error = write_csv(source, rows, fh)
            assert out.read_text() == trajectory_to_csv_rows(traj)
            assert error == traj.closure_error


@pytest.mark.parametrize("cpus", [1, 3])
def test_write_csv_returns_the_largest_closure_error_of_any_range(cpus, monkeypatch):
    _usable_cpus(monkeypatch, cpus)
    traj = _random_trajectory(3, 3 * _CSV_BLOCK_ROWS)
    closure = np.ones(traj.times.size)
    closure[[5, 2 * _CSV_BLOCK_ROWS + 7]] = (1.0 + 2.0 ** -40, 1.0 - 2.0 ** -30)
    source = replace(traj, closure=closure).rows
    assert _written(source, closure.size)[1] == 2.0 ** -30  # in the last worker's range
    closure[_CSV_BLOCK_ROWS + 1] = math.nan
    assert math.isnan(_written(source, closure.size)[1])


def test_write_csv_to_a_string_buffer(monkeypatch):
    _usable_cpus(monkeypatch, 3)
    traj = _random_trajectory(3, 2 * _CSV_BLOCK_ROWS + 1)
    assert _written(traj.rows, traj.times.size)[0] == trajectory_to_csv(traj)


def test_write_csv_formats_a_range_here_when_its_fork_fails(monkeypatch):
    _usable_cpus(monkeypatch, 3)

    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    traj = _random_trajectory(2, 3 * _CSV_BLOCK_ROWS)
    assert _written(traj.rows, traj.times.size) == (trajectory_to_csv(traj), traj.closure_error)


def test_write_csv_worker_failure_raises_and_leaves_no_child(monkeypatch):
    _usable_cpus(monkeypatch, 3)
    parent, format_rows = os.getpid(), analytic.trajectory_to_csv

    def fail_in_worker(traj, header=True):
        if os.getpid() != parent:
            raise RuntimeError("worker formatter failed")
        return format_rows(traj, header)

    monkeypatch.setattr(analytic, "trajectory_to_csv", fail_in_worker)
    traj = _random_trajectory(3, 3 * _CSV_BLOCK_ROWS)
    with pytest.raises(OSError, match="exited with status 1"):
        write_csv(traj.rows, traj.times.size, io.StringIO())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_write_csv_failing_target_leaves_no_child(monkeypatch):
    _usable_cpus(monkeypatch, 3)

    class Full(io.StringIO):
        def write(self, text):
            raise OSError("no space left")

    traj = _random_trajectory(3, 3 * _CSV_BLOCK_ROWS)
    with pytest.raises(OSError, match="no space left"):
        write_csv(traj.rows, traj.times.size, Full())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_write_csv_holds_one_block_not_the_whole_text(tmp_path):
    # 200 000 rows are ~19 MB of text and 35 MB to build as one string, and
    # their trajectory arrays ~25 MB; streamed, the peak is a block's
    # trajectory, text and numbers
    model = standard_3state(0.3, 1.0, np.zeros(3), PULSE)
    times = np.linspace(0.0, 6.0, 200_000)
    rows = trajectory_rows(model, decompose_general(model), times)
    tracemalloc.start()
    try:
        with open(tmp_path / "dense.csv", "w", newline="") as fh:
            write_csv(rows, times.size, fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20
    assert (tmp_path / "dense.csv").stat().st_size > 15 * 2 ** 20


FINITE = st.one_of(st.sampled_from([5e-324, -0.0, 0.1, 1.0, 1e308]),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def trajectories(draw):
    rows, n = draw(st.integers(0, 30)), draw(st.integers(1, 5))
    times = np.array(draw(st.lists(FINITE, min_size=rows, max_size=rows)))
    probs = np.array(draw(st.lists(FINITE, min_size=rows * n, max_size=rows * n)))
    closure = np.array(draw(st.lists(FINITE, min_size=rows, max_size=rows)))
    return Trajectory(times, np.zeros((rows, n), complex),
                      probs.reshape(rows, n), closure)


@settings(max_examples=300, deadline=None)
@given(traj=trajectories())
def test_trajectory_csv_matches_row_oracle_on_any_floats(traj):
    assert trajectory_to_csv(traj) == trajectory_to_csv_rows(traj)


def test_flat_top_quartic_values():
    assert flat_top_quartic(1.0, 0.0) == 1.0
    assert abs(flat_top_quartic(1.0, 0.1) - (1.0 - math.pi ** 2 / 16.0 * 1e-4)) < 1e-15
    assert abs(flat_top_quartic(0.5, 1.0) - (1.0 - math.pi ** 2 / 16.0 * 0.0625)) < 1e-15


def test_flat_top_error_is_sixth_order():
    def err(u):
        exact = math.sin(0.5 * math.pi * math.cos(u)) ** 2
        return abs(exact - flat_top_quartic(1.0, u))

    r1 = err(0.04) / err(0.02)
    r2 = err(0.08) / err(0.04)
    assert 48.0 <= r1 <= 80.0
    assert 48.0 <= r2 <= 80.0


def test_leakage_estimate_values():
    assert leakage_estimate(0.0, 1.0) == 0.0
    # (1/4)(pi/2)^6 r^2 = pi^6/256 r^2 = 3.755427... r^2
    assert abs(leakage_estimate(0.01, 1.0) - 3.75543e-4) < 1e-8
    assert abs(leakage_estimate(0.1, 1.0) - 3.75543e-2) < 1e-6


def test_flatness_frequency_values():
    assert abs(flatness_frequency(1e-4, 1.0) - 0.11284) < 1e-5
    assert abs(flatness_frequency(1.0, 1.0) - 1.12838) < 1e-5
    assert abs(flatness_frequency(0.01, 2.0) - 0.5 * flatness_frequency(0.01, 1.0)) < 1e-14


def test_flatness_frequency_domain():
    for bad in (0.0, -0.1, 1.5, math.nan):
        with pytest.raises(DomainError):
            flatness_frequency(bad, 1.0)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            flatness_frequency(0.5, bad)


def test_delta_kick_response_step():
    assert np.allclose(delta_kick_response(0.5, 1.0), [1.0, 0.0], atol=0)
    assert np.allclose(delta_kick_response(1.0, 1.0), [0.0, 1.0], atol=0)
    assert np.allclose(delta_kick_response(1.5, 1.0), [0.0, 1.0], atol=0)
    arr = delta_kick_response(np.array([0.0, 0.999, 1.0, 2.0]), 1.0)
    assert np.array_equal(arr[:, 1], [0.0, 0.0, 1.0, 1.0])


@pytest.mark.parametrize("t0", [0.3, 1.0, 2.5])
def test_delta_kick_response_is_the_propagated_kick(t0):
    model = standard_2state(0.0, 0.0, DeltaKickPulse(0.5 * math.pi, t0))
    times = np.array([0.0, 0.5 * t0, np.nextafter(t0, 0.0), t0,
                      np.nextafter(t0, math.inf), 1.5 * t0, 3.0 * t0])
    probs = trajectory(model, decompose_general(model), times).probabilities
    assert np.max(np.abs(probs - delta_kick_response(times, t0))) <= 1e-15


def harmonic_dip_p2(omega, tau):
    """Propagated P2 at ``tau`` past the quarter period of a full harmonic transfer."""
    pulse = HarmonicPulse(chi=0.5 * math.pi * omega, omega=omega)
    model = standard_2state(0.0, 0.0, pulse)
    return trajectory(model, decompose_general(model),
                      [pulse.quarter_period + tau]).probabilities[0, 1]


@pytest.mark.parametrize("omega", [1.0, 2.0])
@pytest.mark.parametrize("u", [0.02, 0.1, 0.2])
def test_flat_top_quartic_is_the_propagated_dip_to_sixth_order(omega, u):
    # the quartic falls short of the exact P2 by pi^2 u^6/96 + O(u^8)
    gap = harmonic_dip_p2(omega, u / omega) - flat_top_quartic(omega, u / omega)
    assert 0.0 < gap <= 1.1 * math.pi ** 2 * u ** 6 / 96.0


@pytest.mark.parametrize("t_s", [0.5, 1.0])
@pytest.mark.parametrize("p_cr", [1e-6, 1e-4, 1e-2])
def test_flatness_frequency_holds_the_propagated_dip_at_p_cr(p_cr, t_s):
    # the dip at the window edge is p_cr - (2/(3 pi)) p_cr^1.5 + O(p_cr^2)
    dip = 1.0 - harmonic_dip_p2(flatness_frequency(p_cr, t_s), t_s)
    assert 0.0 < p_cr - dip <= 0.3 * p_cr ** 1.5
