import math

import numpy as np
import pytest
from oracles import load_sampled_csv_by_rows
from scipy.integrate import quad

from degenpop.coupling import CouplingModel, standard_3state
from degenpop.errors import (ConfigError, DegenpopError, DomainError, OutOfDomain,
                             PointwiseUndefined, Unattainable)
from degenpop.pulses import (ACTION_SOLVE_TOL, DeltaKickPulse, HarmonicPulse,
                             RectKickPulse, SampledPulse, action_values,
                             load_sampled_csv)


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


def test_delta_kick_has_no_peak():
    with pytest.raises(PointwiseUndefined):
        DeltaKickPulse(area=1.0, center=1.0).peak


def test_rect_kick_peak_is_its_height_in_magnitude():
    assert RectKickPulse(area=-2.0, center=1.0, width=0.5).peak == 4.0


@pytest.mark.parametrize("pulse, cuts", [
    (DeltaKickPulse(1.3, 2.0), (2.0,)), (RectKickPulse(1.3, 2.0, 0.5), (1.75, 2.25)),
], ids=["delta_kick", "rect_kick"])
def test_kick_breakpoints_are_where_its_action_jumps_or_bends(pulse, cuts):
    assert pulse.breakpoints() == cuts


def test_omega_must_be_positive():
    with pytest.raises(ValueError):
        HarmonicPulse(chi=1.0, omega=0.0)


def test_rect_width_must_be_positive():
    with pytest.raises(ValueError):
        RectKickPulse(area=1.0, center=1.0, width=0.0)


def test_rect_support_must_be_nonnegative():
    with pytest.raises(ValueError):
        RectKickPulse(area=1.0, center=0.01, width=0.1)


@pytest.mark.parametrize("make, message", [
    (lambda: HarmonicPulse(1.0, 0.0), "omega must be positive: omega=0.0"),
    (lambda: DeltaKickPulse(1.0, -0.5), "kick center must be positive: t0=-0.5"),
    (lambda: RectKickPulse(1.0, 1.0, 0.0), "width must be positive: width=0.0"),
    (lambda: RectKickPulse(1.0, 0.1, 0.4), "kick support must lie in t >= 0: t0=0.1, width=0.4"),
], ids=["omega", "kick-center", "kick-width", "kick-support"])
def test_pulse_domain_errors_name_the_config_key_and_value(make, message):
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value) == message


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


def test_rect_kick_of_negative_area_mirrors_the_positive_ramp():
    t = np.linspace(0.0, 2.0, 101)
    up, down = RectKickPulse(2.0, 1.0, 0.5), RectKickPulse(-2.0, 1.0, 0.5)
    assert np.array_equal(down.action_values(t), -up.action_values(t))
    assert down.action(0.0) == 0.0 and down.action(2.0) == -2.0


@pytest.mark.parametrize("start", [-1.0, -0.25, 0.0, 0.5])
def test_sampled_action_subtracts_the_lead_in_bit_exactly(start):
    times = np.array([start, 0.6, 1.1, 2.0, 3.0])
    p = SampledPulse(times, np.array([0.3, 0.9, -0.2, 0.4, 0.0]))
    t = np.linspace(0.0, 3.5, 71)
    lead_in = p._integral_from_first_sample(np.zeros_like(t))
    assert np.array_equal(p.action_values(t), p._integral_from_first_sample(t) - lead_in)
    assert p.action(0.0) == 0.0


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


@pytest.mark.parametrize("target", [0.0, ACTION_SOLVE_TOL])
def test_solve_action_sampled_target_within_tolerance_of_zero_is_time_zero(target):
    p = SampledPulse(np.array([-1.0, 1.0, 3.0]), np.array([0.0, 2.0, 2.0]))
    assert p.invert_action(target) == 0.0


def test_solve_action_sampled_end_tolerance():
    p = SampledPulse(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 1.0]))
    assert p.invert_action(2.0 + ACTION_SOLVE_TOL) == 2.0
    with pytest.raises(Unattainable):
        p.invert_action(2.0 + 2.0 * ACTION_SOLVE_TOL)


def test_solve_action_sampled_rejects_a_non_monotone_action():
    p = SampledPulse(np.array([0.0, 1.0, 2.0]), np.array([1.0, -1.0, -1.0]))
    with pytest.raises(OutOfDomain, match="not monotone"):
        p.invert_action(0.1)


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
    with pytest.raises(ValueError, match="samples_file line 3: row must hold the two fields t,V"):
        load_sampled_csv(path)


def test_sampled_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("t,V\n0,0\n\n1,1\n")
    assert np.array_equal(load_sampled_csv(path).times, [0.0, 1.0])


@pytest.mark.parametrize("rows", [2, 3, 17, 1001, 10_000])
@pytest.mark.parametrize("fmt", ["{!r}", "{:.17g}"], ids=["repr", "17g"])
def test_sampled_csv_reads_the_bits_of_the_row_reader(tmp_path, fmt, rows):
    rng = np.random.default_rng(rows)
    t = np.cumsum(rng.exponential(size=rows)) * 10.0 ** rng.integers(-6, 6) - rng.random()
    v = rng.normal(size=rows) * 10.0 ** rng.integers(-320, 300, size=rows)
    v[:2] = -0.0, 5e-324
    path = tmp_path / "samples.csv"
    rows = "".join(f"{fmt.format(a)},{fmt.format(b)}\n" for a, b in zip(t.tolist(), v.tolist()))
    path.write_text("t,V\n" + rows)
    new, old = load_sampled_csv(path), load_sampled_csv_by_rows(path)
    assert new.times.tobytes() == old.times.tobytes() == t.tobytes()
    assert new.values_.tobytes() == old.values_.tobytes() == v.tobytes()


# the errors that name a row by its file line, the header being line 1
_NUMBERS = "^samples_file line {}: values must be numbers$"
_ROW = "^samples_file line {}: row must hold the two fields t,V$"
_ROWS = "^samples_file line {}: rows must hold the two fields t,V, not {}$"
# file text -> the sample times it gives, or the error type and text it raises
_FORMATS = {
    "quoted-fields": ('t,V\n"0","1"\n"1",2\n', [0.0, 1.0]),
    "quoted-header": ('"t","V"\n0,1\n1,2\n', [0.0, 1.0]),
    "padded": (" t , V \n 0 , 1 \n1,\t2\n", [0.0, 1.0]),
    "blank-lines": ("t,V\n\n0,1\n\n\n1,2\n\n", [0.0, 1.0]),
    "crlf": ("t,V\r\n0,1\r\n1,2\r\n", [0.0, 1.0]),
    "cr": ("t,V\r0,1\r1,2\r", [0.0, 1.0]),
    "no-final-newline": ("t,V\n0,1\n1,2", [0.0, 1.0]),
    "signs-exponents": ("t,V\n-1e-3,+2.5E2\n.5,5.\n", [-0.001, 0.5]),
    "whitespace-line": ("t,V\n0,1\n  \n1,2\n", (ConfigError, _ROW.format(3))),
    "three-columns": ("t,V\n0,1,2\n1,2,3\n", (ConfigError, _ROWS.format(2, 3))),
    "three-columns-one-row": ("t,V\n0,1,2\n", (ConfigError, _ROWS.format(2, 3))),
    "three-columns-after-blank-lines": ("t,V\n\n\n0,1,2\n1,2,3\n",
                                        (ConfigError, _ROWS.format(4, 3))),
    "one-column": ("t,V\n0\n1\n", (ConfigError, _ROWS.format(2, 1))),
    "empty-field": ("t,V\n0,\n1,2\n", (ConfigError, _NUMBERS.format(2))),
    # the first row's numbers are read before its field count
    "comment-line": ("t,V\n# note\n0,1\n1,2\n", (ConfigError, _NUMBERS.format(2))),
    "comment-line-later": ("t,V\n0,1\n# note\n1,2\n", (ConfigError, _ROW.format(3))),
    "comment-after-row": ("t,V\n0,1 # note\n1,2\n", (ConfigError, _NUMBERS.format(2))),
    # numpy numbers the rows without the blank lines, from 0 in a value error
    # and from 1 in a field-count error; each error names the file line
    "number-after-blank-lines": ("t,V\n\n0,1\n\n\n1,a\n", (ConfigError, _NUMBERS.format(6))),
    "row-after-blank-line": ("t,V\n0,1\n\n1,2,3\n", (ConfigError, _ROW.format(4))),
    "number-in-first-row": ("t,V\n0,a\n1,2\n", (ConfigError, _NUMBERS.format(2))),
    "quoted-number": ('t,V\n"0","1"\n"1","x"\n', (ConfigError, _NUMBERS.format(3))),
    "unbalanced-quote": ('t,V\n0,1\n"1,2\n3,4\n', (ConfigError, _ROW.format(3))),
    "crlf-number": ("t,V\r\n0,1\r\n\r\n1,a\r\n", (ConfigError, _NUMBERS.format(4))),
    "cr-row": ("t,V\r0,1\r\r1,2,3\r", (ConfigError, _ROW.format(4))),
    "one-row": ("t,V\n0,1\n", (ConfigError, "at least 2 samples")),
    "header-only": ("t,V\n", (ConfigError, "at least 2 samples")),
    "blank-lines-only": ("t,V\n\n\n", (ConfigError, "at least 2 samples")),
    "empty-file": ("", (ConfigError, "header")),
    "blank-first-line": ("\nt,V\n0,1\n1,2\n", (ConfigError, "header")),
    "semicolons": ("t;V\n0;1\n1;2\n", (ConfigError, "header")),
    "unbalanced-header-quote": ('t,V"\n0,1\n1,2\n', (ConfigError, "header")),
    "not-finite": ("t,V\n0,inf\n1,nan\n", (DomainError, "finite")),
    "decreasing": ("t,V\n1,0\n0,0\n", (DomainError, "increasing")),
    # Python's float reads these two, NumPy's parser does not
    "underscore": ("t,V\n1_0,1\n20,2\n", (ConfigError, _NUMBERS.format(2))),
    "fullwidth-digit": ("t,V\n\uff10,1\n1,2\n", (ConfigError, _NUMBERS.format(2))),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(_FORMATS))
def test_sampled_csv_format_verdicts(tmp_path, name):
    text, verdict = _FORMATS[name]
    path = tmp_path / "samples.csv"
    path.write_text(text, newline="")
    if isinstance(verdict, list):
        assert load_sampled_csv(path).times.tolist() == verdict
        assert load_sampled_csv_by_rows(path).times.tolist() == verdict
        return
    kind, message = verdict
    with pytest.raises(kind, match=message):
        load_sampled_csv(path)
    if name not in ("underscore", "fullwidth-digit"):
        with pytest.raises(kind):
            load_sampled_csv_by_rows(path)


# 898 rows of 10 bytes: they run past the first 8 KiB that a text file decodes at once
_PLAIN_ROWS = b"".join(b"%4d,%4d\n" % (k, k % 7) for k in range(2, 900))


@pytest.mark.parametrize("data", [
    b"t,\xffV\n0,1\n1,2\n" + _PLAIN_ROWS,
    b"t,V\n0,1\n1,\xff2\n" + _PLAIN_ROWS,
    b"t,V\n0,1\n1,2\n" + _PLAIN_ROWS + b"900,\xff\n",
], ids=["header", "early-row", "late-row"])
def test_sampled_csv_that_is_not_text_names_the_key(tmp_path, data):
    path = tmp_path / "samples.csv"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match="^samples_file is not text: .*0xff"):
        load_sampled_csv(path)


def test_sampled_csv_path_must_be_a_path():
    with pytest.raises(ValueError, match="samples_file"):
        load_sampled_csv(3)


def test_sampled_dict_without_samples_names_both_keys():
    with pytest.raises(ValueError, match="samples or samples_file"):
        SampledPulse.from_dict({"kind": "custom_sampled"})


def _csv(text):
    def load(tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text(text)
        return load_sampled_csv(path)
    return load


_HARMONIC = HarmonicPulse(chi=1.0, omega=1.0)
_Z2, _R2 = np.zeros(2), np.array([[0.0, 1.0], [1.0, 0.0]])
# every rejection of a model or pulse parameter (DomainError) and of the
# samples/samples_file format (ConfigError)
_REJECTIONS = {
    "r-not-finite": (DomainError, "must be finite",
                     lambda _: CouplingModel(2, [[math.nan, 1.0], [1.0, 0.0]], _Z2, _Z2,
                                             _HARMONIC)),
    "r-shape": (DomainError, "n-by-n",
                lambda _: CouplingModel(2, np.zeros((3, 3)), _Z2, _Z2, _HARMONIC)),
    "eps-length": (DomainError, "length n",
                   lambda _: CouplingModel(2, _R2, np.zeros(3), _Z2, _HARMONIC)),
    "reduced-rows": (DomainError, "exactly 3 rows",
                     lambda _: CouplingModel(2, _R2, _Z2, _Z2, _HARMONIC,
                                             reduced_multiplicity=2)),
    "reduced-multiplicity": (DomainError, ">= 2",
                             lambda _: CouplingModel(3, np.eye(3), np.ones(3), np.zeros(3),
                                                     _HARMONIC, reduced_multiplicity=1)),
    "structure-rule": (DomainError, "structure rule",
                       lambda _: CouplingModel(2, [[0.0, 1.0], [2.0, 0.0]], _Z2, _Z2,
                                               _HARMONIC)),
    "3state-eps": (DomainError, "length 3",
                   lambda _: standard_3state(0.3, 1.0, [0.0, 0.0], _HARMONIC)),
    "not-finite": (DomainError, "finite: chi", lambda _: HarmonicPulse(math.nan, 1.0)),
    "omega": (DomainError, "omega", lambda _: HarmonicPulse(1.0, 0.0)),
    "kick-center": (DomainError, "center", lambda _: DeltaKickPulse(1.0, 0.0)),
    "kick-width": (DomainError, "width", lambda _: RectKickPulse(1.0, 1.0, 0.0)),
    "kick-support": (DomainError, "support", lambda _: RectKickPulse(1.0, 0.1, 1.0)),
    "kick-height": (DomainError, r"kick height must be finite: A0=1e\+308, width=1e-300",
                    lambda _: RectKickPulse(1e308, 1e-299, 1e-300)),
    "samples-shape": (DomainError, "at least 2", lambda _: SampledPulse([0.0], [1.0])),
    "samples-finite": (DomainError, "finite: samples",
                       lambda _: SampledPulse([0.0, math.nan], [1.0, 1.0])),
    "samples-order": (DomainError, "increasing",
                      lambda _: SampledPulse([1.0, 0.0], [1.0, 1.0])),
    # 1.0 over a subnormal spacing overflows
    "samples-slope": (DomainError, r"slopes \|dV/dt\| must be finite: samples",
                      lambda _: SampledPulse([3.765e-321, 3.819e-321, 8.009e-321],
                                             [0.3, -0.7, 0.9])),
    "no-samples": (ConfigError, "samples or samples_file",
                   lambda _: SampledPulse.from_dict({"kind": "custom_sampled"})),
    "samples-pairs": (ConfigError, "pairs of numbers",
                      lambda _: SampledPulse.from_dict({"samples": [[0, True], [1, 1]]})),
    "samples-ragged": (ConfigError, "samples must be",
                       lambda _: SampledPulse.from_dict({"samples": [[0, 1], [1]]})),
    "samples-and-file": (ConfigError, "samples or samples_file",  # the file does not exist
                         lambda tmp: SampledPulse.from_dict({"samples": [[0, 1], [1, 1]],
                                                             "samples_file": str(tmp / "x")})),
    "file-path": (ConfigError, "path string", lambda _: load_sampled_csv(3)),
    "file-header": (ConfigError, "header", _csv("time,value\n0,1\n1,1\n")),
    "file-fields": (ConfigError, "two fields", _csv("t,V\n0,1,2\n1,1\n")),
    "file-numbers": (ConfigError, "must be numbers", _csv("t,V\n0,a\n1,1\n")),
    "file-one-sample": (ConfigError, "at least 2 samples", _csv("t,V\n0,1\n")),
}


@pytest.mark.parametrize("name", sorted(_REJECTIONS))
def test_every_parameter_rejection_is_a_typed_value_error(name, tmp_path):
    kind, message, build = _REJECTIONS[name]
    with pytest.raises(kind, match=message) as info:
        build(tmp_path)
    # DomainError and ConfigError keep ValueError's exit code 2 at the CLI
    assert isinstance(info.value, DegenpopError) and isinstance(info.value, ValueError)
