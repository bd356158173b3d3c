"""The pulse protocol: a config pulse section read back, and a new envelope as one class."""

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from degenpop import cli
from degenpop.analytic import trajectory
from degenpop.coupling import standard_3state
from degenpop.dressed import decompose_general
from degenpop.errors import OutOfDomain
from degenpop.numeric import integrate, resolution_bound
from degenpop.pulses import (PULSE_KINDS, STEPS_PER_PERIOD, DeltaKickPulse,
                             HarmonicPulse, Pulse, RectKickPulse, SampledPulse)

FINITE = st.floats(-1e12, 1e12, allow_nan=False)
POSITIVE = st.floats(1e-12, 1e12, exclude_min=True)


def rect_kicks():
    # the support [center - width/2, center + width/2] must start at t >= 0
    return st.builds(lambda area, width, lead: RectKickPulse(area, lead + width, width),
                     FINITE, POSITIVE, st.floats(0.0, 1e6))


def sampled_pulses():
    # gaps wide enough that no slope |dV/dt| between FINITE values overflows
    times = st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=8, unique=True).filter(
        lambda t: np.diff(np.sort(t)).min() > 1e-290)
    return times.flatmap(lambda t: st.lists(FINITE, min_size=len(t), max_size=len(t)).map(
        lambda v: SampledPulse(np.sort(t), np.array(v))))


PULSES = st.one_of(st.builds(HarmonicPulse, FINITE, POSITIVE),
                   st.builds(DeltaKickPulse, FINITE, POSITIVE),
                   rect_kicks(), sampled_pulses())


def assert_same_bits(a, b):
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        x, y = np.asarray(getattr(a, field.name)), np.asarray(getattr(b, field.name))
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field.name


def pulse_section(pulse):
    """The config ``pulse`` section that describes ``pulse``, written out by hand."""
    if isinstance(pulse, SampledPulse):
        return {"kind": pulse.kind,
                "samples": np.column_stack([pulse.times, pulse.values_]).tolist()}
    fields = (getattr(pulse, f.name) for f in dataclasses.fields(pulse))
    return {"kind": pulse.kind, **dict(zip(pulse.schema, fields))}


@given(PULSES)
def test_every_pulse_kind_reads_back_from_a_config_section_bit_exactly(pulse):
    section = json.loads(json.dumps(pulse_section(pulse)))
    assert_same_bits(cli._build_pulse(section), pulse)


@dataclass(frozen=True)
class Sin2Pulse(Pulse):
    """``V(t) = chi sin^2(omega t)``, with ``A(t) = chi (t/2 - sin(2 omega t)/(4 omega))``."""

    kind = "sin2"
    schema = {"chi": float, "omega": float}

    chi: float
    omega: float

    @property
    def peak(self):
        return abs(self.chi)

    @property
    def max_step(self):
        return math.pi / self.omega / STEPS_PER_PERIOD

    def values(self, t):
        return self.chi * np.sin(self.omega * np.asarray(t, dtype=float)) ** 2

    def action_values(self, t):
        t = np.asarray(t, dtype=float)
        return self.chi * (0.5 * t - np.sin(2.0 * self.omega * t) / (4.0 * self.omega))


def test_new_envelope_integrates_at_its_resolution_bound():
    model = standard_3state(0.3, 1.0, np.zeros(3), Sin2Pulse(1.3, 0.7))
    traj = integrate(model, resolution_bound(model), 6.0)
    ref = trajectory(model, decompose_general(model), traj.times)
    assert np.max(np.abs(traj.amplitudes - ref.amplitudes)) < 1e-9


@pytest.mark.parametrize("times", [[-1.0, math.nan], [0.0, math.inf], [1.0, math.nan, 2.0],
                                   [2.0, 1.0]], ids=["negative-nan", "inf", "nan", "decreasing"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # Sin2Pulse at inf
def test_trajectory_checks_times_of_an_envelope_that_does_not(times):
    # Sin2Pulse.action_values checks no times; trajectory checks them itself
    model = standard_3state(0.3, 1.0, np.zeros(3), Sin2Pulse(1.3, 0.7))
    with pytest.raises(OutOfDomain, match="finite, non-negative, non-decreasing"):
        trajectory(model, decompose_general(model), times)


def test_new_envelope_runs_from_the_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(PULSE_KINDS, Sin2Pulse.kind, Sin2Pulse)
    out = tmp_path / "out.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"n": 3, "alpha": 0.3, "beta": 1.0},
        "pulse": {"kind": "sin2", "chi": 1.3, "omega": 0.7},
        "run": {"mode": "compare", "t_end": 2.0, "dt": 0.005},
        "output": {"path": str(out), "format": "csv"},
    }))
    assert cli.main(["--config", str(config), "simulate"]) == 0
    assert capsys.readouterr().out.startswith("t0=2 ")
    assert out.read_text().startswith("t,P1,P2,P3,closure\n")
