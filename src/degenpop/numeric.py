"""Reference integrator for the non-degenerate equations, and scans.

``integrate(model, dt, t_end)`` integrates the exact coupled equations

    i da_j/dt = E_j a_j + V(t) sum_k r_jk a_k

over [0, t_end] on a fixed grid of steps no longer than dt.  This is the
ground truth the closed-form degenerate solutions are checked against,
and the instrument for measuring how finite level splitting degrades the
transfer.

The generator ``E + V(t) r`` does not depend on the state, so every step
is a matrix exponential and all of them are built at once.  The state is
carried as ``b = D a`` with ``D = diag(sqrt(closure weights))``, which
makes ``D r D^-1`` real symmetric (the reduced manifold form included)
and every exponential one real ``eigh``.  Steps never straddle an
envelope breakpoint: integration is carved into segments between
breakpoints, and every step uses the fourth-order commutator-free Magnus
scheme CF4 (Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006)): two
exponentials at the Gauss nodes of the step.  Where the envelope is
constant (a rectangular kick and the zero gaps around it) both factors
are ``exp(-i h (E/2 + V r/2))``; they commute, and their product is the
exact ``exp(-i h (E + V r))`` at any step.  Each factor is unitary up to
rounding, so there is no renormalization and closure drift stays at the
rounding level.
"""

from __future__ import annotations

import math

import numpy as np

from .analytic import Trajectory
from .coupling import CouplingModel
from .errors import DomainError, GridMismatch, UnresolvedTimescale
from .pulses import STEPS_PER_PERIOD, HarmonicPulse, RectKickPulse

# CF4: Gauss nodes c1 < c2 of a step and the weights of the envelope
# values at them in the first and the second exponential
_SQRT3 = math.sqrt(3.0)
_NODES = (0.5 - _SQRT3 / 6.0, 0.5 + _SQRT3 / 6.0)
_W_SMALL = (3.0 - 2.0 * _SQRT3) / 12.0
_W_LARGE = (3.0 + 2.0 * _SQRT3) / 12.0
# steps whose propagators are held in memory at once
_CHUNK_STEPS = 4096


def resolution_bound(model: CouplingModel) -> float:
    """Largest admissible dt for this model's pulse and strength matrix.

    The step must resolve the envelope's own shape (its ``max_step``).
    CF4 is exact at any step on a piecewise-constant envelope, so that is
    the whole bound there; any other step must also resolve the fastest
    dressed phase at peak envelope, 1/200 of its period.  Raises
    PointwiseUndefined for a pulse without a pointwise envelope.
    """
    pulse = model.pulse
    bound = pulse.max_step
    if pulse.piecewise_constant:
        return bound
    rate = _spectral_radius(model) * pulse.peak
    if rate > 0:
        bound = min(bound, 2.0 * math.pi / rate / STEPS_PER_PERIOD)
    return bound


def integrate(model: CouplingModel, dt: float, t_end: float) -> Trajectory:
    """Trajectory over [0, t_end] from the ground state under the model's pulse.

    Every segment between envelope breakpoints is cut into equal steps
    no longer than dt, and the state is sampled at ``lo + k h`` after
    every step.  Every step is one CF4 step, whose error is O(h^5) and
    zero (up to rounding) where the envelope is constant.
    Raises DomainError unless dt is positive and finite, t_end is
    non-negative and finite and t_end/dt is at most 2**53;
    UnresolvedTimescale when dt exceeds :func:`resolution_bound`;
    PointwiseUndefined for an instantaneous-kick pulse (use a
    rectangular kick instead).
    """
    if not (0.0 < dt < math.inf and 0.0 <= t_end < math.inf and t_end / dt <= 2.0 ** 53):
        raise DomainError("integrate needs a finite dt > 0 and a finite t_end >= 0 "
                          f"with t_end/dt <= 2**53, got dt={dt}, t_end={t_end}")
    pulse = model.pulse
    bound = resolution_bound(model)
    if dt > bound * (1.0 + 1e-12):
        raise UnresolvedTimescale(f"dt={dt} exceeds the resolvable bound {bound}")

    weights = model.closure_weights
    r_sym = model.symmetrized()
    lo, counts, h = _grid(pulse, t_end, dt)
    seg = np.repeat(np.arange(lo.size), counts)
    k = np.arange(seg.size) - np.repeat(np.cumsum(counts) - counts, counts)
    b0 = np.zeros(model.n, dtype=complex)
    b0[0] = 1.0
    b = _cf4(model.energies, r_sym, pulse, lo[seg] + k * h[seg], h[seg], b0)

    times = np.concatenate([[0.0], lo[seg] + (k + 1) * h[seg]])
    amps = np.concatenate([b0[None], b]) / np.sqrt(weights)
    probs = np.abs(amps) ** 2
    return Trajectory(times, amps, probs, probs @ weights)


def compare(a: Trajectory, b: Trajectory) -> float:
    """Max absolute per-state population deviation on a shared grid."""
    if a.times.shape != b.times.shape or not np.array_equal(a.times, b.times):
        raise GridMismatch("trajectories use different time grids")
    return float(np.max(np.abs(a.probabilities - b.probabilities)))


def leakage_scan(model_family, ratios) -> list[tuple[float, float]]:
    """Transfer shortfall 1 - P2 at the action peak versus splitting.

    ``model_family`` maps a level splitting omega21 to a two-state model
    driven by a harmonic pulse; ``ratios`` lists carrier-to-splitting
    ratios omega/omega21 (math.inf selects the degenerate limit).  Each
    entry of the result is (ratio, 1 - P2(quarter period)).  Every run
    takes at least 500 CF4 steps up to the quarter period, which keeps
    its error against a tight DOP853 solution below 1e-12.
    """
    pulse = model_family(0.0).pulse
    if not isinstance(pulse, HarmonicPulse):
        raise DomainError("leakage scan needs a harmonic pulse")
    out = []
    for ratio in ratios:
        if not ratio > 0:
            raise DomainError("ratios must be positive")
        omega21 = 0.0 if math.isinf(ratio) else pulse.omega / ratio
        model = model_family(omega21)
        t0 = pulse.quarter_period
        dt = min(resolution_bound(model), 4.0 * t0 / 2000.0)
        traj = integrate(model, dt, t0)
        out.append((float(ratio), float(1.0 - traj.probabilities[-1, 1])))
    return out


def kick_convergence(model: CouplingModel, a0: float, t0: float,
                     widths) -> list[tuple[float, float]]:
    """Post-kick transfer versus kick width, for rectangular kicks.

    Swaps a rectangular kick of area ``a0`` centered at ``t0`` into the
    model for each width and integrates through the kick at its
    :func:`resolution_bound`, the width.  Every segment of a rectangular
    kick is flat, where CF4 is exact, so the result at each width is exact
    whatever the step.
    """
    widths = [float(w) for w in widths]
    if not widths or any(w <= 0 for w in widths):
        raise DomainError("widths must be positive")
    if any(b >= a for a, b in zip(widths, widths[1:])):
        raise DomainError("widths must be strictly decreasing")
    out = []
    for w in widths:
        kicked = model.with_pulse(RectKickPulse(area=a0, center=t0, width=w))
        traj = integrate(kicked, resolution_bound(kicked), t0 + 0.5 * w)
        out.append((w, float(traj.probabilities[-1, 1])))
    return out


def _grid(pulse, t_end: float, dt: float):
    """Cut [0, t_end] at the pulse's breakpoints into equal steps <= dt.

    Returns every segment's start, step count and step length.
    """
    cuts = np.asarray(pulse.breakpoints(), dtype=float)
    cuts = np.unique(cuts[(cuts > 0.0) & (cuts < t_end)])
    edges = np.concatenate([[0.0], cuts, [t_end]]) if t_end > 0.0 else np.zeros(1)
    lo, hi = edges[:-1], edges[1:]
    counts = np.maximum(1, np.ceil((hi - lo) / dt - 1e-9)).astype(np.int64)
    return lo, counts, (hi - lo) / counts


def _cf4(energies, r_sym, pulse, starts, steps, b):
    """States after every CF4 step; step k runs from starts[k] over steps[k].

    Each step is ``exp(-i h (E/2 + u2 r)) exp(-i h (E/2 + u1 r))`` with
    the envelope sampled at the two Gauss nodes and mixed by the CF4
    weights: u1 weights the earlier node more, u2 the later one.
    """
    v1 = pulse.values(starts + _NODES[0] * steps)
    v2 = pulse.values(starts + _NODES[1] * steps)
    half = 0.5 * energies
    out = np.empty((starts.size, b.size), dtype=complex)
    for c in range(0, starts.size, _CHUNK_STEPS):
        end = min(c + _CHUNK_STEPS, starts.size)
        part = slice(c, end)
        h = steps[part]
        first = _propagators(half, r_sym, _W_LARGE * v1[part] + _W_SMALL * v2[part], h)
        second = _propagators(half, r_sym, _W_SMALL * v1[part] + _W_LARGE * v2[part], h)
        out[part] = _prefix_states(second @ first, b)
        b = out[end - 1]
    return out


def _propagators(e_diag, r_sym, u, h):
    """``exp(-i h_k (diag(e_diag) + u_k r_sym))`` for every k, by one batched eigh."""
    lam, q = np.linalg.eigh(u[:, None, None] * r_sym + np.diag(e_diag))
    return (q * np.exp(-1j * h[:, None] * lam)[:, None, :]) @ q.transpose(0, 2, 1)


def _prefix_states(steps, b):
    """``U_k ... U_1 b`` for every k, by a two-level blocked product.

    The steps are cut into about sqrt(N) blocks of about sqrt(N) steps.
    The running products inside every block are formed for all blocks at
    once, the state entering each block is carried across the blocks one
    at a time, and one batched product then gives every state.  That is
    about 2 sqrt(N) numpy calls for N steps, and O(N) work.
    """
    total, n = steps.shape[0], b.size
    size = max(1, math.isqrt(total))
    blocks = -(-total // size)
    pad = np.broadcast_to(np.eye(n), (blocks * size - total, n, n))
    u = np.concatenate([steps, pad]).reshape(blocks, size, n, n)
    for i in range(1, size):
        u[:, i] = u[:, i] @ u[:, i - 1]
    entering = np.empty((blocks, n), dtype=complex)
    for j in range(blocks):
        entering[j] = b
        b = u[j, -1] @ b
    return (u @ entering[:, None, :, None]).reshape(-1, n)[:total]


def _spectral_radius(model: CouplingModel) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(model.symmetrized()))))
