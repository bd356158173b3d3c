import math

import numpy as np
import pytest
from scipy.integrate import quad

from degenpop.errors import OutOfDomain, PointwiseUndefined, Unattainable
from degenpop.pulses import (ACTION_SOLVE_TOL, DeltaKickPulse, HarmonicPulse,
                             RectKickPulse, SampledPulse, action_values,
                             load_sampled_csv, pulse_from_dict)


def test_harmonic_envelope_at_zero():
    p = HarmonicPulse(chi=1.0, omega=1.0)
    assert p.value(0.0) == 1.0


def test_harmonic_envelope_at_half_period():
    omega = 2.0
    p = HarmonicPulse(chi=0.5 * math.pi * omega, omega=omega)
    v = p.value(math.pi / omega)
    assert abs(v - (-0.5 * math.pi * omega)) < 1e-12


def test_rect_kick_envelope_height():
    p = RectKickPulse(area=math.pi / math.sqrt(2), center=5.0, width=0.1)
    assert abs(p.value(5.0) - math.pi / math.sqrt(2) / 0.1) < 1e-12
    assert p.value(4.9) == 0.0
    assert p.value(5.1) == 0.0


def test_envelope_negative_time_rejected():
    p = HarmonicPulse(chi=1.0, omega=1.0)
    with pytest.raises(OutOfDomain):
        p.value(-0.1)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("pulse", [
    HarmonicPulse(1.0, 1.0), DeltaKickPulse(1.0, 1.0), RectKickPulse(1.0, 1.0, 0.5),
    SampledPulse(np.array([0.0, 1.0]), np.array([0.0, 1.0])),
], ids=["harmonic", "delta_kick", "rect_kick", "sampled"])
def test_non_finite_times_rejected(pulse, t):
    times = np.array([0.0, t])
    with pytest.raises(OutOfDomain, match="finite"):
        pulse.action_values(times)
    if not isinstance(pulse, DeltaKickPulse):  # has no pointwise value at all
        with pytest.raises(OutOfDomain, match="finite"):
            pulse.values(times)


def test_delta_kick_has_no_pointwise_value():
    p = DeltaKickPulse(area=1.0, center=1.0)
    with pytest.raises(PointwiseUndefined):
        p.value(1.0)


def test_omega_must_be_positive():
    with pytest.raises(ValueError):
        HarmonicPulse(chi=1.0, omega=0.0)


def test_rect_width_must_be_positive():
    with pytest.raises(ValueError):
        RectKickPulse(area=1.0, center=1.0, width=0.0)


def test_rect_support_must_be_nonnegative():
    with pytest.raises(ValueError):
        RectKickPulse(area=1.0, center=0.01, width=0.1)


@pytest.mark.parametrize("make, names", [
    (lambda: HarmonicPulse(10 ** 400, 1.0), "chi"),
    (lambda: HarmonicPulse("1", 1.0), "chi"),
    (lambda: HarmonicPulse(1.0, math.nan), "omega"),
    (lambda: HarmonicPulse(1j, None), "chi, omega"),
    (lambda: DeltaKickPulse(-math.inf, 1.0), "A0"),
    (lambda: RectKickPulse(1.0, 10 ** 400, 0.1), "t0"),
    (lambda: RectKickPulse(math.nan, 1.0, math.inf), "A0, width"),
    (lambda: SampledPulse(np.array([0.0, 1.0]), np.array([0.0, math.nan])), "samples"),
], ids=["huge-int", "string", "nan", "complex-and-none", "-inf", "huge-int-center",
        "two-names", "sampled"])
def test_non_finite_pulse_parameters_are_named(make, names):
    # a ValueError naming the fields, never numpy's TypeError or an OverflowError
    with pytest.raises(ValueError, match=f"^pulse parameters must be finite: {names}$"):
        make()


def test_finite_parameters_of_any_real_type_accepted():
    assert HarmonicPulse(10 ** 300, 1).chi == 10 ** 300
    assert HarmonicPulse(np.float64(2.0), np.int64(3)).period == 2.0 * math.pi / 3.0
    assert RectKickPulse(True, 1.0, 0.5).height == 2.0


def test_harmonic_action_quarter_period():
    p = HarmonicPulse(chi=0.5 * math.pi, omega=1.0)
    assert abs(p.action(p.quarter_period) - 0.5 * math.pi) < 1e-15


def test_action_zero_at_time_zero():
    pulses = [
        HarmonicPulse(1.0, 1.0),
        DeltaKickPulse(2.0, 1.0),
        RectKickPulse(1.0, 1.0, 0.5),
        SampledPulse(np.array([0.0, 1.0]), np.array([1.0, 1.0])),
    ]
    for p in pulses:
        assert p.action(0.0) == 0.0


def test_delta_kick_action_step():
    p = DeltaKickPulse(area=2.221, center=1.0)
    assert p.action(0.999) == 0.0
    assert p.action(1.0) == 2.221
    assert p.action(1.5) == 2.221


def test_rect_kick_action_ramp():
    p = RectKickPulse(area=2.0, center=1.0, width=0.5)
    assert p.action(p.left) == 0.0
    assert abs(p.action(1.0) - 1.0) < 1e-12
    assert p.action(p.right) == 2.0
    assert p.action(3.0) == 2.0


def test_sampled_action_matches_trapezoid():
    t = np.array([0.0, 1.0, 2.0, 4.0])
    v = np.array([0.0, 2.0, 2.0, 0.0])
    p = SampledPulse(t, v)
    assert abs(p.action(1.0) - 1.0) < 1e-12
    assert abs(p.action(2.0) - 3.0) < 1e-12
    assert abs(p.action(4.0) - 5.0) < 1e-12
    assert abs(p.action(10.0) - 5.0) < 1e-12


def test_sampled_starting_after_zero_has_zero_lead_in():
    p = SampledPulse(np.array([2.0, 3.0]), np.array([1.0, 1.0]))
    assert p.action(1.0) == 0.0
    assert abs(p.action(3.0) - 1.0) < 1e-12


def test_sampled_times_must_increase():
    with pytest.raises(ValueError):
        SampledPulse(np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0]))


def test_action_values_vectorized():
    p = HarmonicPulse(chi=2.0, omega=1.0)
    t = np.linspace(0.0, 10.0, 101)
    expected = np.array([p.action(float(ti)) for ti in t])
    assert np.allclose(action_values(p, t), expected, atol=1e-15)


def test_harmonic_action_periodic():
    p = HarmonicPulse(chi=1.3, omega=2.7)
    t = np.linspace(0.0, 3.0, 37)
    assert np.allclose(action_values(p, t + p.period), action_values(p, t),
                       atol=1e-9)


def test_quadrature_matches_harmonic_closed_form():
    p = HarmonicPulse(chi=1.0, omega=1.0)
    for t in np.linspace(0.5, 20.0 * math.pi, 9):
        q, _ = quad(p.value, 0.0, float(t), epsabs=1e-12, limit=200)
        assert abs(q - p.action(float(t))) < 1e-9


def test_rect_action_matches_delta_outside_support():
    delta = DeltaKickPulse(area=1.3, center=2.0)
    for w in (0.5, 0.1, 0.01):
        rect = RectKickPulse(area=1.3, center=2.0, width=w)
        for t in (0.0, 2.0 - w, 2.0 + w, 5.0):
            assert rect.action(t) == delta.action(t)


def test_solve_action_harmonic_peak():
    p = HarmonicPulse(chi=0.5 * math.pi, omega=1.0)
    t = p.invert_action(0.5 * math.pi)
    assert abs(t - 0.5 * math.pi) < 1e-9
    assert abs(p.action(t) - 0.5 * math.pi) <= 1e-12


def test_solve_action_harmonic_peak_tolerance():
    p = HarmonicPulse(chi=0.5 * math.pi, omega=1.0)
    peak = p.chi / p.omega
    assert p.invert_action(peak + ACTION_SOLVE_TOL) == p.quarter_period
    with pytest.raises(Unattainable):
        p.invert_action(peak + 2.0 * ACTION_SOLVE_TOL)
    # just below the flat peak the root is well before the quarter period
    t = p.invert_action(peak - ACTION_SOLVE_TOL)
    assert abs(t - (p.quarter_period - math.sqrt(2.0 * ACTION_SOLVE_TOL / p.chi))) < 1e-9
    assert abs(p.action(t) - (peak - ACTION_SOLVE_TOL)) <= 1e-15


def test_solve_action_zero_target():
    p = HarmonicPulse(chi=1.0, omega=1.0)
    assert p.invert_action(0.0) == 0.0


def test_solve_action_unattainable():
    p = HarmonicPulse(chi=1.0, omega=1.0)
    with pytest.raises(Unattainable):
        p.invert_action(2.0)


def test_solve_action_midrange():
    p = HarmonicPulse(chi=2.0, omega=3.0)
    for target in (0.1, 0.3, 0.6):
        t = p.invert_action(target)
        assert abs(p.action(t) - target) <= 1e-12


def test_solve_action_sampled():
    p = SampledPulse(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0]))
    t = p.invert_action(1.5)
    assert abs(t - 1.5) < 1e-9


def test_solve_action_sampled_flat_end():
    t = np.linspace(0.0, 0.5 * math.pi, 1001)
    p = SampledPulse(t, np.cos(t))
    assert p.invert_action(p.action(t[-1])) == t[-1]
    for target in (0.1, 0.5, 0.999):
        root = p.invert_action(target)
        assert abs(p.action(root) - target) <= 1e-15


def test_solve_action_sampled_segment_root():
    # A(t) = t + t^2/2 on [0, 1]: the root of A = 1/2 is sqrt(2) - 1
    p = SampledPulse(np.array([-1.0, 1.0, 3.0]), np.array([0.0, 2.0, 2.0]))
    assert abs(p.invert_action(0.5) - (math.sqrt(2.0) - 1.0)) < 1e-15
    assert p.invert_action(1.5) == 1.0


def test_solve_action_rejects_kicks():
    for p in (DeltaKickPulse(1.0, 1.0), RectKickPulse(1.0, 1.0, 0.5)):
        with pytest.raises(OutOfDomain):
            p.invert_action(0.5)


def test_solve_action_negative_target_rejected():
    with pytest.raises(OutOfDomain):
        HarmonicPulse(1.0, 1.0).invert_action(-0.5)


@pytest.mark.parametrize("pulse", [
    HarmonicPulse(1.0, 1.0),
    DeltaKickPulse(1.0, 1.0),
    RectKickPulse(1.0, 1.0, 0.5),
    SampledPulse(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0])),
], ids=lambda p: p.kind)
def test_solve_action_nan_target_rejected(pulse):
    with pytest.raises(OutOfDomain):
        pulse.invert_action(math.nan)


def test_action_nondecreasing_where_envelope_nonnegative():
    p = HarmonicPulse(chi=1.7, omega=1.0)
    t = np.linspace(0.0, p.quarter_period, 200)
    a = action_values(p, t)
    assert np.all(np.diff(a) >= 0)


def test_sampled_csv_roundtrip(tmp_path):
    p = SampledPulse(np.array([0.0, 0.1, 1.5]), np.array([0.0, 2.0, 1.0 / 3.0]))
    path = tmp_path / "pulse.csv"
    rows = "".join(f"{t:.17g},{v:.17g}\n" for t, v in zip(p.times, p.values_))
    path.write_text("t,V\n" + rows)
    q = load_sampled_csv(path)
    assert q.times.tobytes() == p.times.tobytes()
    assert q.values_.tobytes() == p.values_.tobytes()


def test_sampled_csv_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,value\n0,1\n1,1\n")
    with pytest.raises(ValueError):
        load_sampled_csv(path)


@pytest.mark.parametrize("text", ["t,V\n0,0\n1\n2,0\n", "t,V\n0,0\n1,1,1\n2,0\n"],
                         ids=["one-field", "three-fields"])
def test_sampled_csv_row_must_hold_two_fields(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="samples_file row"):
        load_sampled_csv(path)


def test_sampled_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("t,V\n0,0\n\n1,1\n")
    assert np.array_equal(load_sampled_csv(path).times, [0.0, 1.0])


def test_sampled_csv_path_must_be_a_path():
    with pytest.raises(ValueError, match="samples_file"):
        load_sampled_csv(3)


def test_sampled_dict_without_samples_names_both_keys():
    with pytest.raises(ValueError, match="samples or samples_file"):
        pulse_from_dict({"kind": "custom_sampled"})
