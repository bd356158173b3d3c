"""The pulse protocol: JSON round trips, and a new envelope as one class."""

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
from degenpop.coupling import CouplingModel, standard_3state, symmetric_nstate
from degenpop.dressed import decompose_general
from degenpop.errors import OutOfDomain
from degenpop.numeric import integrate, resolution_bound
from degenpop.pulses import (PULSE_KINDS, STEPS_PER_PERIOD, DeltaKickPulse,
                             HarmonicPulse, Pulse, RectKickPulse, SampledPulse,
                             pulse_from_dict)

FINITE = st.floats(-1e12, 1e12, allow_nan=False)
POSITIVE = st.floats(1e-12, 1e12, exclude_min=True)


def rect_kicks():
    # the support [center - width/2, center + width/2] must start at t >= 0
    return st.builds(lambda area, width, lead: RectKickPulse(area, lead + width, width),
                     FINITE, POSITIVE, st.floats(0.0, 1e6))


def sampled_pulses():
    times = st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=8, unique=True)
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


def through_json(d):
    return json.loads(json.dumps(d))


@given(PULSES)
def test_every_pulse_kind_roundtrips_bit_exactly(pulse):
    assert_same_bits(pulse_from_dict(through_json(pulse.to_dict())), pulse)


@st.composite
def coupling_models(draw):
    pulse = draw(PULSES)
    if draw(st.booleans()):
        n = draw(st.integers(4, 9))
        model = symmetric_nstate(n, draw(FINITE), draw(FINITE), pulse)
    else:
        n = draw(st.integers(2, 5))
        upper = draw(st.lists(FINITE, min_size=n * (n + 1) // 2,
                              max_size=n * (n + 1) // 2))
        r = np.zeros((n, n))
        r[np.triu_indices(n)] = upper
        r = r + np.triu(r, 1).T
        model = CouplingModel(n, r, np.diag(r).copy(), np.zeros(n), pulse)
    energies = draw(st.lists(FINITE, min_size=model.n, max_size=model.n))
    return model.with_energies(energies)


@given(coupling_models())
def test_coupling_model_roundtrips_bit_exactly(model):
    back = CouplingModel.from_dict(through_json(model.to_dict()))
    assert (back.n, back.reduced_multiplicity) == (model.n, model.reduced_multiplicity)
    for name in ("r", "eps", "energies"):
        assert getattr(back, name).tobytes() == getattr(model, name).tobytes(), name
    assert_same_bits(back.pulse, model.pulse)


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


def test_new_envelope_roundtrips_once_registered(monkeypatch):
    monkeypatch.setitem(PULSE_KINDS, Sin2Pulse.kind, Sin2Pulse)
    pulse = Sin2Pulse(1.3, 0.7)
    assert pulse.to_dict() == {"kind": "sin2", "chi": 1.3, "omega": 0.7}
    assert pulse_from_dict(through_json(pulse.to_dict())) == pulse


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
