import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import leakage_estimate
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from degenpop import numeric
from degenpop.analytic import trajectory
from degenpop.coupling import standard_2state, standard_3state, symmetric_nstate
from degenpop.dressed import decompose_general
from degenpop.errors import DomainError, GridMismatch, PointwiseUndefined, UnresolvedTimescale
from degenpop.numeric import compare, integrate, kick_convergence, leakage_scan, resolution_bound
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


@pytest.mark.parametrize("model", [
    standard_2state(0.3, -1.2, HarmonicPulse(chi=4.0, omega=0.5)),
    standard_3state(-2.5, 1.0, [0.4, 0.0, -0.7], HarmonicPulse(chi=-6.0, omega=1.0)),
    symmetric_nstate(7, 0.2, 0.1, SampledPulse(np.array([0.0, 1.0, 2.0]),
                                               np.array([0.0, 30.0, 0.0]))),
], ids=["2state", "3state", "nstate-sampled"])
def test_resolution_bound_reads_the_dressed_spectrum(model):
    # the envelope's own step is longer here, so the fastest dressed phase sets the bound
    z = decompose_general(model).z
    rate = float(np.max(np.abs(z))) * model.pulse.peak
    assert model.pulse.max_step > 2.0 * math.pi / rate / 200.0
    assert resolution_bound(model) == 2.0 * math.pi / rate / 200.0


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
    rows = kick_convergence(model, [0.4, 0.2, 0.1, 0.05])
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
    kick_convergence(model, [0.4, 0.2, 0.1, 0.05])
    assert [dt for dt, _ in seen] == [0.4, 0.2, 0.1, 0.05]
    assert sum(steps for _, steps in seen) == 41  # the gap before each kick, then the kick


@pytest.mark.parametrize("widths,match", [
    ([], "positive"), ([0.4, 0.0], "positive"), ([0.4, -1e-9], "positive"),
    ([0.1, 0.4], "strictly decreasing"),
], ids=["empty", "zero", "negative", "increasing"])
def test_kick_convergence_rejects_bad_widths(widths, match):
    model = standard_2state(0.0, 0.0, RectKickPulse(1.0, 1.0, 0.4))
    with pytest.raises(DomainError, match=match):
        kick_convergence(model, widths)


def test_kick_convergence_needs_a_rectangular_kick():
    with pytest.raises(DomainError, match="rectangular kick"):
        kick_convergence(standard_2state(0.0, 0.0, HarmonicPulse(1.0, 1.0)), [0.4])


def test_sampled_pulse_degenerate_limit_matches_analytic():
    model = standard_3state(0.3, 1.0, np.zeros(3), sampled_cosine())
    traj = integrate(model, resolution_bound(model), 4.0 * math.pi)
    ref = trajectory(model, decompose_general(model), traj.times)
    assert np.max(np.abs(traj.probabilities - ref.probabilities)) < 1e-12


@pytest.mark.parametrize("steps", [4095, 4096, 4097, 8193, 20000])
def test_many_steps_degenerate_harmonic_matches_analytic(steps):
    # one step short of, at, and just past a propagator chunk, a one-step
    # last chunk, and several chunks and blocks
    assert numeric._CHUNK_STEPS == 4096
    model = standard_3state(0.5, 1.0, np.zeros(3), HarmonicPulse(1.0, 1.0))
    dt = resolution_bound(model)
    traj = integrate(model, dt, steps * dt)
    assert traj.times.size == steps + 1
    ref = trajectory(model, decompose_general(model), traj.times)
    assert np.max(np.abs(traj.amplitudes - ref.amplitudes)) < 1e-9


def test_closure_drift_after_20000_steps():
    model = split_3state().with_pulse(HarmonicPulse(1.0, 1.0))
    dt = resolution_bound(model)
    traj = integrate(model, dt, 20000 * dt)
    assert traj.times.size == 20001
    assert np.max(np.abs(traj.closure - 1.0)) <= 3e-11


def test_closure_drift_after_20000_steps_stays_at_rounding_level():
    model = split_3state().with_pulse(HarmonicPulse(1.0, 1.0))
    dt = resolution_bound(model)
    traj = integrate(model, dt, 20000 * dt)
    assert np.max(np.abs(traj.closure - 1.0)) <= 1e-13


def test_closure_sums_the_weighted_populations_in_index_order():
    model = split_reduced_5state()
    traj = integrate(model, resolution_bound(model), 2.0)
    p, w = traj.probabilities, model.closure_weights
    assert w[2] != w[0]  # the reduced manifold row carries its multiplicity
    assert np.array_equal(traj.closure, p[:, 0] * w[0] + p[:, 1] * w[1] + p[:, 2] * w[2])


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def batch_last(stack):
    """A (batch..., rows, cols) stack as (rows, cols, batch...)."""
    return np.moveaxis(stack, (-2, -1), (0, 1))


# (batch of a, batch of b, columns of b), batch-last: _cf4's and the running
# products' stacked steps, and _prefix_states' (blocks, size) steps against
# its (blocks, 1) entering states
PRODUCT_SHAPES = {"stacked": ((7,), (7,), None), "entering": ((4, 5), (4, 1), 1)}


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("shapes", PRODUCT_SHAPES.values(), ids=PRODUCT_SHAPES.keys())
def test_product_is_matmul(n, shapes):
    rng = np.random.default_rng(n)
    a_batch, b_batch, cols = shapes
    a_shape, b_shape = (n, n, *a_batch), (n, cols or n, *b_batch)
    ints = (rng.integers(-9, 10, a_shape) + 1j * rng.integers(-9, 10, a_shape),
            rng.integers(-9, 10, b_shape) + 1j * rng.integers(-9, 10, b_shape))

    def matmul(a, b):
        return batch_last(np.matmul(np.moveaxis(a, (0, 1), (-2, -1)),
                                    np.moveaxis(b, (0, 1), (-2, -1))))

    # small integers: every product and sum is exact, so the order cannot show
    assert np.array_equal(numeric._product(*ints), matmul(*ints))
    a, b = random_complex(rng, a_shape), random_complex(rng, b_shape)
    # a non-contiguous operand, as _cf4 and _prefix_states pass strided slices
    for rhs in (b, b.swapaxes(0, 1).copy().swapaxes(0, 1)):
        got, ref = numeric._product(a, rhs), matmul(a, rhs)
        assert got.shape == ref.shape
        norms = (np.linalg.norm(a, axis=(0, 1), keepdims=True)
                 * np.linalg.norm(rhs, axis=(0, 1), keepdims=True))
        assert np.all(np.abs(got - ref) <= 1e-15 * norms)


@pytest.mark.parametrize("total", [1, 2, 3, 4, 5, 16, 17, 31])
@pytest.mark.parametrize("n", [2, 3])
def test_prefix_states_is_the_sequential_product(total, n):
    rng = np.random.default_rng(total)
    steps = np.linalg.qr(random_complex(rng, (total, n, n)))[0]
    b0 = random_complex(rng, n)
    b, ref = b0, []
    for u in steps:
        b = u @ b
        ref.append(b)
    got = numeric._prefix_states(batch_last(steps).copy(), b0)
    assert got.shape == (n, total)
    assert np.max(np.abs(got - np.array(ref).T)) < 1e-14


def random_symmetric(rng, n, norm, batch):
    """``batch`` real symmetric n x n matrices of infinity norm ``norm``, batch-last."""
    x = rng.standard_normal((batch, n, n))
    x = x + x.swapaxes(1, 2)
    x *= norm / np.abs(x).sum(axis=2).max(axis=1)[:, None, None]
    return batch_last(x).copy()


def check_exponentials(x, got):
    """``got`` is exp(-iX) for every X of the batch-last ``x``: within
    10 n max(1, ||X||) eps of expm, unitary as closely, and the identity
    exactly at X = 0."""
    n, eps = x.shape[0], np.finfo(float).eps
    for k in range(x.shape[2]):
        xk, uk = x[:, :, k], got[:, :, k]
        bound = 10 * n * max(1.0, np.abs(xk).sum(axis=1).max()) * eps
        assert np.max(np.abs(uk - expm(-1j * xk))) <= bound
        assert np.max(np.abs(uk @ uk.conj().T - np.eye(n))) <= bound
        if not xk.any():
            assert np.array_equal(uk, np.eye(n))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("norm", [0.0, 1e-3, 0.03, 1.0, 30.0, 1e4])
def test_propagators_match_expm(n, norm):
    x = random_symmetric(np.random.default_rng(n), n, norm, 6)
    check_exponentials(x, numeric._propagators(x))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_propagators_keep_zero_steps_beside_a_kick(n):
    # a rectangular kick's one flat step between its zero-envelope gaps, and
    # one resolved step, which is squared no more often than its own norm asks
    x = np.zeros((n, n, 2, 5))
    rng = np.random.default_rng(n)
    x[:, :, 1, 2] = random_symmetric(rng, n, 1e4, 1)[:, :, 0]
    x[:, :, 0, 4] = random_symmetric(rng, n, 0.03, 1)[:, :, 0]
    got = numeric._propagators(x)
    assert got.shape == x.shape
    check_exponentials(x.reshape(n, n, -1), got.reshape(n, n, -1))


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


@dataclass(frozen=True)
class SpikedHarmonicPulse(HarmonicPulse):
    """A harmonic envelope that reads ``spike`` after t = 1; its peak stays chi."""

    spike: float = math.inf

    def values(self, t):
        return np.where(t > 1.0, self.spike, super().values(t))


@pytest.mark.parametrize("spike", [math.inf, -math.inf, math.nan])
def test_integrate_rejects_a_non_finite_step_generator_before_it_propagates(spike,
                                                                            monkeypatch):
    def propagate(*args):
        raise AssertionError("propagated")

    monkeypatch.setattr(numeric, "_cf4", propagate)
    model = standard_3state(0.3, 1.0, np.zeros(3), SpikedHarmonicPulse(1.0, 1.0, spike))
    with (np.errstate(invalid="ignore", over="ignore"),
          pytest.raises(DomainError, match=r"dt=0\.01, t_end=2\.0, pulse peak=1\.0$")):
        integrate(model, 0.01, 2.0)


def test_integrate_rejects_a_grid_that_falls():
    # flat samples at subnormal times: (hi - lo)/counts rounds at subnormal
    # precision, and lo + k h of the first segment overshoots its end
    pulse = SampledPulse([3.765e-321, 3.819e-321, 8.009e-321], [0.3, 0.3, 0.3])
    model = standard_3state(0.3, 1.0, np.zeros(3), pulse)
    with pytest.raises(DomainError, match="non-decreasing: at dt=5e-323, t_end=1.0257e-320"):
        integrate(model, 5e-323, 1.0257e-320)


def test_leakage_scan_matches_dop853():
    pulse = HarmonicPulse(chi=0.5 * math.pi, omega=1.0)

    def family(omega21):
        return standard_2state(0.0, 0.0, pulse).with_energies([0.0, omega21])

    ratios = [1.0, 3.7, 100.0, math.inf]
    rows = leakage_scan(standard_2state(0.0, 0.0, pulse), ratios)
    assert [r for r, _ in rows] == ratios
    for ratio, loss in rows:
        model = family(0.0 if math.isinf(ratio) else 1.0 / ratio)
        a2 = dop853(model, np.array([0.0, pulse.quarter_period]))[-1, 1]
        assert abs(loss - (1.0 - abs(a2) ** 2)) < 1e-11


@pytest.mark.parametrize("ratio", [10.0, 100.0, 1000.0])
def test_leakage_scan_loss_stays_below_the_estimate(ratio):
    # the estimate's prefactor cannot be checked against the paper's body,
    # so it is pinned only as a bound on the propagated loss
    pulse = HarmonicPulse(chi=0.5 * math.pi, omega=1.0)
    [(_, loss)] = leakage_scan(standard_2state(0.0, 0.0, pulse), [ratio])
    assert 0.0 < loss <= leakage_estimate(1.0 / ratio, pulse.omega)


@pytest.mark.parametrize("ratio", [0.0, -1.0, math.nan])
def test_leakage_scan_rejects_a_nonpositive_ratio(ratio):
    model = standard_2state(0.0, 0.0, HarmonicPulse(0.5 * math.pi, 1.0))
    with pytest.raises(DomainError, match="ratios must be positive"):
        leakage_scan(model, [1.0, ratio])


def test_leakage_scan_needs_a_harmonic_pulse():
    with pytest.raises(DomainError, match="harmonic pulse"):
        leakage_scan(standard_2state(0.0, 0.0, RectKickPulse(1.0, 1.0, 0.4)), [1.0])


def compare_pair(times_b=None):
    """A numeric and an analytic 3-state run, the second on ``times_b`` if given."""
    model = standard_3state(0.3, 1.0, np.zeros(3), HarmonicPulse(1.0, 1.0))
    run = integrate(model, 0.01, 1.0)
    times = run.times if times_b is None else times_b
    return run, trajectory(model, decompose_general(model), times)


def test_compare_is_the_largest_population_deviation_on_a_shared_grid():
    run, ref = compare_pair()
    dev = compare(run, ref)
    assert dev == float(np.max(np.abs(run.probabilities - ref.probabilities)))
    assert 0.0 < dev < 1e-9
    assert compare(ref, ref) == 0.0


@pytest.mark.parametrize("regrid", [
    lambda t: t[:-1],
    lambda t: np.append(t[:-1], np.nextafter(t[-1], 0.0)),
], ids=["shorter", "same-length-shifted"])
def test_compare_rejects_a_different_time_grid(regrid):
    run, _ = compare_pair()
    _, ref = compare_pair(regrid(run.times))
    with pytest.raises(GridMismatch, match="different time grids"):
        compare(run, ref)
