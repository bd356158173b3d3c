import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from degenpop import numeric
from degenpop.analytic import trajectory
from degenpop.coupling import standard_2state, standard_3state, symmetric_nstate
from degenpop.dressed import decompose_general
from degenpop.errors import DomainError, PointwiseUndefined, UnresolvedTimescale
from degenpop.numeric import integrate, kick_convergence, leakage_scan, resolution_bound
from degenpop.pulses import (DeltaKickPulse, HarmonicPulse, RectKickPulse,
                             SampledPulse)


def dop853(model, times):
    """Amplitudes on ``times`` by DOP853 at rtol = atol = 1e-13."""
    n = model.n

    def rhs(t, y):
        a = y[:n] + 1j * y[n:]
        da = -1j * (model.energies * a + model.pulse.value(t) * (model.r @ a))
        return np.concatenate([da.real, da.imag])

    y0 = np.zeros(2 * n)
    y0[0] = 1.0
    sol = solve_ivp(rhs, (0.0, float(times[-1])), y0, method="DOP853",
                    rtol=1e-13, atol=1e-13, t_eval=times)
    return (sol.y[:n] + 1j * sol.y[n:]).T


def rk4_reference(model, dt, t_end):
    """Classical RK4 from the ground state, one Python step at a time.

    Steps are carved into segments between envelope breakpoints and
    sampled at ``lo + k h``; this is the grid ``integrate`` keeps.  A
    rectangular kick is read at segment midpoints, away from its edges.
    """
    pulse = model.pulse
    cuts = sorted({b for b in pulse.breakpoints() if 0.0 < b < t_end})
    edges = [0.0, *cuts, t_end] if t_end > 0.0 else [0.0]
    r = model.r.astype(complex)

    def deriv(t, a, v):
        v = pulse.value(t) if v is None else v
        return -1j * (model.energies * a + v * (r @ a))

    a = np.zeros(model.n, dtype=complex)
    a[0] = 1.0
    times, amps = [0.0], [a]
    for lo, hi in zip(edges[:-1], edges[1:]):
        nsteps = max(1, math.ceil((hi - lo) / dt - 1e-9))
        h = (hi - lo) / nsteps
        flat = isinstance(pulse, RectKickPulse)
        v = pulse.value(0.5 * (lo + hi)) if flat else None
        for k in range(nsteps):
            t = lo + k * h
            k1 = deriv(t, a, v)
            k2 = deriv(t + 0.5 * h, a + 0.5 * h * k1, v)
            k3 = deriv(t + 0.5 * h, a + 0.5 * h * k2, v)
            k4 = deriv(t + h, a + h * k3, v)
            a = a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            times.append(lo + (k + 1) * h)
            amps.append(a)
    return np.array(times), np.array(amps)


def split_3state():
    pulse = HarmonicPulse(chi=1.3, omega=0.7)
    return standard_3state(0.4, 0.8, [0.1, -0.2, 0.3], pulse).with_energies(
        [0.0, 0.5, -0.3])


def split_reduced_5state():
    pulse = HarmonicPulse(chi=1.1, omega=0.9)
    return symmetric_nstate(5, 0.3, 0.1, pulse).with_energies([0.0, 0.4, -0.2])


def sampled_cosine(samples=1001, chi=0.8):
    t = np.linspace(0.0, 4.0 * math.pi, samples)
    return SampledPulse(t, chi * np.cos(t))


@pytest.mark.parametrize("build", [split_3state, split_reduced_5state])
def test_harmonic_split_energies_match_dop853(build):
    model = build()
    traj = integrate(model, resolution_bound(model), 8.0)
    ref = dop853(model, traj.times)
    assert np.max(np.abs(traj.amplitudes - ref)) < 1e-9
    assert np.max(np.abs(traj.closure - 1.0)) < 1e-12


def test_rect_kick_is_exact():
    a0 = 1.1
    for model in (standard_2state(0.0, 0.0, RectKickPulse(a0, 1.0, 0.1)),
                  standard_3state(0.3, 1.0, np.zeros(3), RectKickPulse(a0, 1.0, 0.1))):
        traj = integrate(model, resolution_bound(model), 1.05)
        assert np.max(np.abs(traj.amplitudes[-1] - expm(-1j * a0 * model.r)[:, 0])) < 1e-12


@settings(max_examples=200, deadline=None)
@given(area=st.floats(-3.0, 3.0), width=st.floats(0.01, 1.0), gap=st.floats(0.0, 2.0),
       tail=st.floats(0.0, 1.0), alpha=st.floats(-1.0, 1.0),
       energies=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_rect_kick_bound_is_its_width_and_exact_there(area, width, gap, tail, alpha,
                                                      energies):
    pulse = RectKickPulse(area, 0.5 * width + gap, width)
    model = standard_3state(alpha, 1.0, np.zeros(3), pulse).with_energies(energies)
    assert resolution_bound(model) == width
    traj = integrate(model, width, pulse.right + tail)
    h0 = np.diag(model.energies)
    u = (expm(-1j * (traj.times[-1] - pulse.right) * h0)
         @ expm(-1j * width * (h0 + pulse.height * model.r)) @ expm(-1j * pulse.left * h0))
    assert np.max(np.abs(traj.amplitudes[-1] - u[:, 0])) < 1e-12


def test_rect_kick_with_split_energies_matches_expm_per_segment():
    pulse = RectKickPulse(0.9, 1.0, 0.2)
    model = standard_3state(0.3, 1.0, np.zeros(3), pulse).with_energies([0.0, 0.7, -0.4])
    traj = integrate(model, 0.001, 1.5)
    h0 = np.diag(model.energies)
    u = (expm(-1j * 0.4 * h0) @ expm(-1j * 0.2 * (h0 + pulse.height * model.r))
         @ expm(-1j * 0.9 * h0))
    assert traj.times[-1] == 1.5
    assert np.max(np.abs(traj.amplitudes[-1] - u[:, 0])) < 1e-12


def test_kick_convergence_is_exact_at_every_width():
    model = standard_3state(-0.4, 1.0, np.zeros(3), RectKickPulse(1.2, 1.0, 0.4))
    ref = abs(expm(-1.2j * model.r)[1, 0]) ** 2
    rows = kick_convergence(model, 1.2, 1.0, [0.4, 0.2, 0.1, 0.05])
    assert [w for w, _ in rows] == [0.4, 0.2, 0.1, 0.05]
    assert max(abs(p2 - ref) for _, p2 in rows) < 1e-12


def test_kick_convergence_steps_at_the_kick_width(monkeypatch):
    seen = []

    def spy(model, dt, t_end):
        traj = integrate(model, dt, t_end)
        seen.append((dt, traj.times.size - 1))
        return traj

    monkeypatch.setattr(numeric, "integrate", spy)
    model = standard_3state(-0.4, 1.0, np.zeros(3), RectKickPulse(1.2, 1.0, 0.4))
    kick_convergence(model, 1.2, 1.0, [0.4, 0.2, 0.1, 0.05])
    assert [dt for dt, _ in seen] == [0.4, 0.2, 0.1, 0.05]
    assert sum(steps for _, steps in seen) == 41  # the gap before each kick, then the kick


def test_sampled_pulse_degenerate_limit_matches_analytic():
    model = standard_3state(0.3, 1.0, np.zeros(3), sampled_cosine())
    traj = integrate(model, resolution_bound(model), 4.0 * math.pi)
    ref = trajectory(model, decompose_general(model), traj.times)
    assert np.max(np.abs(traj.probabilities - ref.probabilities)) < 1e-12


def test_many_steps_degenerate_harmonic_matches_analytic():
    # 20000 steps span several propagator chunks and blocks
    model = standard_3state(0.5, 1.0, np.zeros(3), HarmonicPulse(1.0, 1.0))
    dt = resolution_bound(model)
    traj = integrate(model, dt, 20000 * dt)
    ref = trajectory(model, decompose_general(model), traj.times)
    assert np.max(np.abs(traj.amplitudes - ref.amplitudes)) < 1e-9


def test_closure_drift_after_20000_steps():
    model = split_3state().with_pulse(HarmonicPulse(1.0, 1.0))
    dt = resolution_bound(model)
    traj = integrate(model, dt, 20000 * dt)
    assert traj.times.size == 20001
    assert np.max(np.abs(traj.closure - 1.0)) <= 3e-11


@pytest.mark.parametrize("pulse, t_end, dt", [
    (HarmonicPulse(1.3, 0.7), 2.0, 0.0101),
    (RectKickPulse(0.8, 1.0, 0.3), 1.6, 0.006),
    (RectKickPulse(0.8, 1.0, 0.3), 0.5, 0.006),  # ends before the kick
    # runs past the samples; the envelope ends at 0, so the RK4 stage at
    # the tail's left edge reads no stale sample value
    (SampledPulse(np.linspace(0.0, 4.0 * math.pi, 41),
                  0.8 * np.sin(np.linspace(0.0, 4.0 * math.pi, 41))),
     4.0 * math.pi + 0.5, 0.02),
])
def test_grid_is_the_rk4_grid(pulse, t_end, dt):
    model = standard_3state(0.2, 1.0, np.zeros(3), pulse).with_energies([0.0, 0.3, 0.1])
    traj = integrate(model, dt, t_end)
    times, amps = rk4_reference(model, dt, t_end)
    assert np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.amplitudes - amps)) < 1e-7


def test_sampled_envelope_at_bound_gives_one_row_per_sample():
    model = standard_3state(0.3, 1.0, np.zeros(3), sampled_cosine())
    traj = integrate(model, resolution_bound(model), 4.0 * math.pi)
    assert traj.times.size == 1001
    assert np.array_equal(traj.times[1:], model.pulse.times[1:])


def test_zero_duration_gives_one_row():
    for pulse in (HarmonicPulse(1.0, 1.0), RectKickPulse(1.0, 1.0, 0.5)):
        traj = integrate(standard_2state(0.0, 0.0, pulse), 0.001, 0.0)
        assert traj.times.tolist() == [0.0]
        assert traj.probabilities.tolist() == [[1.0, 0.0]]


def test_delta_kick_cannot_be_integrated():
    model = standard_2state(0.0, 0.0, DeltaKickPulse(1.0, 1.0))
    with pytest.raises(PointwiseUndefined):
        integrate(model, 0.001, 2.0)


def test_step_above_bound_is_rejected():
    model = split_3state()
    with pytest.raises(UnresolvedTimescale):
        integrate(model, 1.01 * resolution_bound(model), 1.0)


@pytest.mark.parametrize("dt, t_end", [
    (0.0, 1.0), (-0.1, 1.0), (math.nan, 1.0), (math.inf, 1.0),
    (0.1, -1.0), (0.1, math.nan), (0.1, math.inf), (1e-3, 1e300),
], ids=["dt-zero", "dt-negative", "dt-nan", "dt-inf",
        "t_end-negative", "t_end-nan", "t_end-inf", "t_end-1e300"])
def test_integrate_rejects_bad_step_and_end(dt, t_end):
    # only rejected values: an accepted huge step count would allocate
    model = standard_2state(0.0, 0.0, HarmonicPulse(1.0, 1.0))
    with pytest.raises(DomainError, match=r"dt=.*t_end="):
        integrate(model, dt, t_end)


def test_leakage_scan_matches_dop853():
    pulse = HarmonicPulse(chi=0.5 * math.pi, omega=1.0)

    def family(omega21):
        return standard_2state(0.0, 0.0, pulse).with_energies([0.0, omega21])

    ratios = [1.0, 3.7, 100.0, math.inf]
    rows = leakage_scan(family, ratios)
    assert [r for r, _ in rows] == ratios
    for ratio, loss in rows:
        model = family(0.0 if math.isinf(ratio) else 1.0 / ratio)
        a2 = dop853(model, np.array([0.0, pulse.quarter_period]))[-1, 1]
        assert abs(loss - (1.0 - abs(a2) ** 2)) < 1e-11
