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
makes ``D r D^-1`` real symmetric (the reduced manifold form included),
so every exponential is ``exp(-iX)`` of a real symmetric X: its cosine
and sine series in real arithmetic, scaled and squared where ``||X||``
exceeds 1 (:func:`_propagators`).  Steps never straddle an
envelope breakpoint: integration is carved into segments between
breakpoints, and every step uses the fourth-order commutator-free Magnus
scheme CF4 (Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006)): two
exponentials at the Gauss nodes of the step.  Where the envelope is
constant (a rectangular kick and the zero gaps around it) both factors
are ``exp(-i h (E/2 + V r/2))``; they commute, and their product is the
exact ``exp(-i h (E + V r))`` at any step.  Each factor is unitary up to
rounding, so there is no renormalization and closure drift stays at the
rounding level.

The small step matrices are stored batch-last, (n, n, steps), and every
product of them is an elementwise sum over the inner index in index order
(:func:`dressed._product`), each term one numpy operation over every step
at once; a stacked ``matmul`` would make one BLAS call per 2x2 or 3x3
matrix, which costs more than the arithmetic.  No LAPACK or BLAS call is
made per step.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .analytic import Trajectory
from .coupling import CouplingModel
from .dressed import _product, decompose_general
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
# largest Taylor remainder left in a step exponential: 2^-54, half the unit roundoff
_TAYLOR_TOL = 2.0 ** -54


def resolution_bound(model: CouplingModel) -> float:
    """Largest admissible dt for this model's pulse and strength matrix.

    The step must resolve the envelope's own shape (its ``max_step``).
    CF4 is exact at any step on a piecewise-constant envelope, so that is
    the whole bound there; any other step must also resolve the fastest
    dressed phase, ``max|z|`` of :func:`decompose_general` times the peak
    envelope, 1/200 of its period.  Raises PointwiseUndefined for a pulse
    without a pointwise envelope.
    """
    pulse = model.pulse
    bound = pulse.max_step
    if pulse.piecewise_constant:
        return bound
    rate = float(np.max(np.abs(decompose_general(model).z))) * pulse.peak
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
    non-negative and finite and t_end/dt is at most 2**53, and before any
    step is propagated when the grid is not non-decreasing (``lo + k h``
    overshooting a segment end at subnormal scale) or a step generator
    is not finite;
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
    starts, steps = lo[seg] + k * h[seg], h[seg]
    times = np.concatenate([[0.0], lo[seg] + (k + 1) * steps])
    if np.any(times[1:] < times[:-1]):
        raise DomainError(f"integrate's time grid must be non-decreasing: at dt={dt}, "
                          f"t_end={t_end} a segment's steps overshoot its end")
    v1 = pulse.values(starts + _NODES[0] * steps)
    v2 = pulse.values(starts + _NODES[1] * steps)
    u = np.stack([_W_LARGE * v1 + _W_SMALL * v2, _W_SMALL * v1 + _W_LARGE * v2])
    half = 0.5 * model.energies
    # a bound on every step generator's norm ||(h u) r + h E/2||_inf, summed as _cf4 builds it
    norm = np.abs(steps * u) * np.max(np.abs(r_sym).sum(axis=1)) + steps * np.max(np.abs(half))
    if not np.all(np.isfinite(norm)):
        raise DomainError(f"integrate needs finite step generators, got one that is not "
                          f"at dt={dt}, t_end={t_end}, pulse peak={pulse.peak}")
    b0 = np.zeros(model.n, dtype=complex)
    b0[0] = 1.0
    b = _cf4(half, r_sym, u, steps, b0)

    amps = np.concatenate([b0[None], b]) / np.sqrt(weights)
    return Trajectory.from_amplitudes(times, amps, weights)


def compare(a: Trajectory, b: Trajectory) -> float:
    """Max absolute per-state population deviation on a shared grid."""
    if a.times.shape != b.times.shape or not np.array_equal(a.times, b.times):
        raise GridMismatch("trajectories use different time grids")
    return float(np.max(np.abs(a.probabilities - b.probabilities)))


def leakage_scan(model: CouplingModel, ratios) -> list[tuple[float, float]]:
    """Transfer shortfall 1 - P2 at the action peak versus splitting.

    ``model`` is a two-state model driven by a harmonic pulse; its
    energies are replaced by ``[0, omega21]`` for each entry of
    ``ratios``, the carrier-to-splitting ratios omega/omega21 (math.inf
    selects the degenerate limit).  Each entry of the result is
    (ratio, 1 - P2(quarter period)).  Every run takes at least 500 CF4
    steps up to the quarter period, which keeps its error against a
    tight DOP853 solution below 1e-12.
    """
    pulse = model.pulse
    if not isinstance(pulse, HarmonicPulse):
        raise DomainError("leakage scan needs a harmonic pulse")
    t0 = pulse.quarter_period
    out = []
    for ratio in ratios:
        if not ratio > 0:
            raise DomainError("ratios must be positive")
        split = model.with_energies([0.0, 0.0 if math.isinf(ratio) else pulse.omega / ratio])
        dt = min(resolution_bound(split), 4.0 * t0 / 2000.0)
        traj = integrate(split, dt, t0)
        out.append((float(ratio), float(1.0 - traj.probabilities[-1, 1])))
    return out


def kick_convergence(model: CouplingModel, widths) -> list[tuple[float, float]]:
    """Post-kick transfer versus kick width, for rectangular kicks.

    ``model.pulse`` is a :class:`RectKickPulse`; its width is replaced by
    each of ``widths``, positive and strictly decreasing, keeping its area
    and center.  Each kicked model is integrated up to the kick's right
    edge at its :func:`resolution_bound`, the width.  Every segment of a
    rectangular kick is flat, where CF4 is exact, so the result at each
    width is exact whatever the step.
    """
    if not isinstance(model.pulse, RectKickPulse):
        raise DomainError("kick convergence needs a rectangular kick")
    widths = [float(w) for w in widths]
    if not widths or any(w <= 0 for w in widths):
        raise DomainError("widths must be positive")
    if any(b >= a for a, b in zip(widths, widths[1:])):
        raise DomainError("widths must be strictly decreasing")
    out = []
    for w in widths:
        kicked = model.with_pulse(replace(model.pulse, width=w))
        traj = integrate(kicked, resolution_bound(kicked), kicked.pulse.right)
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


def _cf4(half, r_sym, u, steps, b):
    """States after every CF4 step; step k runs over steps[k].

    Step k is ``exp(-i h (E/2 + u[1, k] r)) exp(-i h (E/2 + u[0, k] r))``
    with ``half = E/2``; ``u`` holds the envelope at the two Gauss nodes
    mixed by the CF4 weights: u[0] weights the earlier node more, u[1] the
    later one.  Both exponentials of a chunk's steps are made by one
    :func:`_propagators` call, laid out batch-last as (n, n, 2, steps).
    """
    n = b.size
    out = np.empty((steps.size, n), dtype=complex)
    for c in range(0, steps.size, _CHUNK_STEPS):
        end = min(c + _CHUNK_STEPS, steps.size)
        h = steps[c:end]
        x = r_sym[:, :, None, None] * (h * u[:, c:end])
        _diagonal(x)[...] += half[:, None, None] * h
        factors = _propagators(x)
        out[c:end] = _prefix_states(_product(factors[:, :, 1], factors[:, :, 0]), b).T
        b = out[end - 1]
    return out


def _propagators(x):
    """``exp(-i X)`` for every real matrix ``X = x[:, :, k...]``, batch-last.

    ``exp(-iX) = C(X) - i S(X)``, the cosine and sine series evaluated in
    real arithmetic by Horner's rule in ``X^2``.  A matrix whose norm
    ``||X||_inf`` exceeds 1 is first scaled by ``2^-s``, ``s =
    ceil(log2 ||X||_inf)``, and its exponential squared s times after
    (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).  The series stops at the
    lowest degree m >= 3 whose remainder ``theta^(m+1)/(m+1)!`` is below
    2^-54, for theta the largest scaled norm of the call: degree 5 to 7
    on resolved steps (theta 0.002 to 0.03), 18 at theta = 1.  X = 0 gives
    exactly the identity.  No LAPACK call is made.
    """
    shape, n = x.shape, x.shape[0]
    x = x.reshape(n, n, -1)
    norm = np.abs(x).sum(axis=1).max(axis=0)
    s = np.ceil(np.log2(np.maximum(norm, 1.0))).astype(np.int32)  # ldexp's own exponent type
    x = np.ldexp(x, -s)
    theta = float(np.max(np.ldexp(norm, -s), initial=0.0))
    m = 3
    while theta ** (m + 1) / math.factorial(m + 1) >= _TAYLOR_TOL:
        m += 1
    y = _product(x, x)
    cos = _horner(y, [(-1) ** (k // 2) / math.factorial(k) for k in range(0, m + 1, 2)])
    sin = _product(x, _horner(y, [(-1) ** (k // 2) / math.factorial(k)
                                  for k in range(1, m + 1, 2)]))
    u = np.empty(cos.shape, dtype=complex)
    u.real = cos
    np.negative(sin, out=u.imag)
    for j in range(int(s.max(initial=0))):
        big = np.flatnonzero(s > j)
        u[..., big] = _product(u[..., big], u[..., big])
    return u.reshape(shape)


def _horner(y, coefs):
    """``sum_j coefs[j] Y^j`` for every matrix ``Y = y[:, :, k]`` by Horner's
    rule, for two coefficients or more."""
    p = coefs[-1] * y
    _diagonal(p)[...] += coefs[-2]
    for c in reversed(coefs[:-2]):
        p = _product(y, p)
        _diagonal(p)[...] += c
    return p


def _diagonal(a):
    """Writable view of every diagonal of a C-contiguous batch-last stack."""
    n = a.shape[0]
    return a.reshape(n * n, *a.shape[2:])[::n + 1]


def _prefix_states(steps, b):
    """``U_k ... U_1 b`` for every k, by a two-level blocked product.

    ``steps`` is batch-last, (n, n, N), and so is the result, (n, N).  The
    steps are cut into about sqrt(N) blocks of about sqrt(N) steps.
    The running products inside every block are formed for all blocks at
    once, the state entering each block is carried across the blocks one
    at a time, and one batched product then gives every state.  That is
    about 2 sqrt(N) products for N steps, and O(N) work.  Each batched
    product is :func:`dressed._product`'s n elementwise multiplies and n - 1
    adds, so about 2n sqrt(N) numpy calls in all; a stacked ``matmul`` would
    make one BLAS call per step matrix.  The carry is one plain matrix-vector
    ``@`` per block, which costs less than ``_product``'s 2n - 1 calls.
    """
    n, total = b.size, steps.shape[2]
    size = max(1, math.isqrt(total))
    blocks = -(-total // size)
    pad = np.broadcast_to(np.eye(n)[:, :, None], (n, n, blocks * size - total))
    u = np.concatenate([steps, pad], axis=2).reshape(n, n, blocks, size)
    for i in range(1, size):
        u[..., i] = _product(u[..., i], u[..., i - 1])
    ends = np.moveaxis(u[..., -1], 2, 0).copy()
    entering = np.empty((n, blocks), dtype=complex)
    for j in range(blocks):
        entering[:, j] = b
        b = ends[j] @ b
    return _product(u, entering[:, None, :, None]).reshape(n, -1)[:, :total]
