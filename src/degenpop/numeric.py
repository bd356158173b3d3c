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

The CF4 core propagates several runs at once, each from state 1, along
one trailing run axis, (n, n, R, steps): runs that share a model's pulse
and ``r`` share its grid and envelope values, and differ only in ``E/2``
on the diagonal.  :func:`integrate` is one run.  :func:`leakage_scan`
checks its ratios and builds their grid once, then propagates as many
runs per CF4 pass as fill one chunk of ``_CHUNK_STEPS`` step matrices: up
to 8 ratios of its 500-step grid in one pass.  A scan of thousands of
ratios so holds no more step matrices at once than one run does, and each
run's steps are chunked as in a scan of that ratio alone.  Runs may also
have grids of their own: :func:`kick_convergence` pads each width's grid
at its start with zero-length steps, whose factors are exactly the
identity, and propagates the widths of a scan in as few passes as keep
each within one chunk, one pass for widths 0.4 to 0.05.

Each :func:`_cf4` call allocates one float64 workspace, sized for its
largest chunk, and every stack of a chunk (generators, Taylor terms,
exponentials, the steps and each product's terms) is a slice of it, so
the fresh pages of an array per term are paid once a call.  The
arithmetic, and so every output bit, is that of a new array per term.
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
    """Largest admissible dt for this model's pulse, strength matrix and energies.

    The step must resolve the envelope's own shape (its ``max_step``).
    CF4 is exact at any step on a piecewise-constant envelope, so that is
    the whole bound there; any other step must also resolve the fastest
    dressed phase, ``max|z|`` of :func:`decompose_general` times the peak
    envelope, plus half the spread of the bare energies, ``(max E - min
    E)/2``, which sets the fastest phase between the states where the drive
    is weak: 1/200 of the period of that sum.  Raises PointwiseUndefined
    for a pulse without a pointwise envelope.
    """
    pulse = model.pulse
    bound = pulse.max_step
    if pulse.piecewise_constant:
        return bound
    energies = model.energies
    rate = (float(np.max(np.abs(decompose_general(model).z))) * pulse.peak
            + 0.5 * float(energies.max() - energies.min()))
    if rate > 0:
        bound = min(bound, 2.0 * math.pi / rate / STEPS_PER_PERIOD)
    return bound


def integrate(model: CouplingModel, dt: float, t_end: float) -> Trajectory:
    """Trajectory over [0, t_end] from state 1 under the model's pulse.

    Every segment between envelope breakpoints is cut into equal steps
    no longer than dt, and the state is sampled at t = 0 and at
    ``lo + k h`` after every step.  Every step is one CF4 step, whose
    error is O(h^5) and zero (up to rounding) where the envelope is
    constant.
    Raises DomainError unless dt is positive and finite, t_end is
    non-negative and finite and t_end/dt is at most 2**53, and before any
    step is propagated when the grid is not non-decreasing (``lo + k h``
    overshooting a segment end at subnormal scale) or a step generator
    is not finite;
    UnresolvedTimescale when dt exceeds :func:`resolution_bound`;
    PointwiseUndefined for an instantaneous-kick pulse (use a
    rectangular kick instead).
    """
    times, half, r_sym, u, steps = _steps(model, model.energies[:, None], dt, t_end)
    b = _cf4(half, r_sym, u, steps)[:, 0]
    weights = model.closure_weights
    amps = np.divide(b.T, np.sqrt(weights), order="C")
    return Trajectory.from_amplitudes(times, amps, weights)


def _steps(model: CouplingModel, energies, dt: float, t_end: float):
    """The checked CF4 steps of runs of ``model`` on one shared grid, run j
    with the energies ``energies[:, j]``.

    Raises as :func:`integrate` documents.  The grid, the envelope values
    and the bound on dt come from the pulse and ``r`` alone, so every run
    shares them, and the generator norm bound only grows with ``max|E|``,
    so the run that holds it checks every run.  Returns the grid's times
    and :func:`_cf4`'s ``half``, ``r_sym``, ``u`` and ``steps``.
    """
    if not (0.0 < dt < math.inf and 0.0 <= t_end < math.inf and t_end / dt <= 2.0 ** 53):
        raise DomainError("integrate needs a finite dt > 0 and a finite t_end >= 0 "
                          f"with t_end/dt <= 2**53, got dt={dt}, t_end={t_end}")
    pulse = model.pulse
    bound = resolution_bound(model)
    if dt > bound * (1.0 + 1e-12):
        raise UnresolvedTimescale(f"dt={dt} exceeds the resolvable bound {bound}")

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
    half = 0.5 * energies
    # a bound on every step generator's norm ||(h u) r + h E/2||_inf, summed as _cf4 builds it
    norm = np.abs(steps * u) * np.max(np.abs(r_sym).sum(axis=1)) + steps * np.max(np.abs(half))
    if not np.all(np.isfinite(norm)):
        raise DomainError(f"integrate needs finite step generators, got one that is not "
                          f"at dt={dt}, t_end={t_end}, pulse peak={pulse.peak}")
    return times, half, r_sym, u, steps


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
    (ratio, 1 - P2(quarter period)).  Every run takes the same 500 or more
    CF4 steps up to the quarter period.  That grid resolves the drive, not
    omega21: against a converged reference a row is within 2.7e-13 for
    ratios of 0.1 and above, and 4.8e-12 at 0.03, 5.0e-11 at 0.003 and
    1.9e-8 at 1e-4, where the splitting outruns the steps.

    Every ratio is checked before any step is propagated.  Only the
    energies differ between the runs, so they share one grid, one dt and
    one set of envelope values, and each :func:`_cf4` pass propagates as
    many runs as fill one chunk of ``_CHUNK_STEPS`` step matrices (one run
    at least): 4096 // 500 = 8 runs of the 500-step grid.  Each run's steps
    are so chunked as in a scan of that ratio alone, and a scan holds no
    more step matrices at once than one run does.  A row still depends on
    the others of its pass through :func:`_propagators`' one Taylor degree,
    which the largest step generator of the pass sets, but only by rounding.
    """
    pulse = model.pulse
    if not isinstance(pulse, HarmonicPulse):
        raise DomainError("leakage scan needs a harmonic pulse")
    if model.n != 2:
        raise DomainError(f"leakage scan needs a two-state model, got n={model.n}")
    ratios = list(ratios)
    if not all(r > 0 for r in ratios):
        raise DomainError("ratios must be positive")
    omega21 = [0.0 if math.isinf(r) else pulse.omega / r for r in ratios]
    if not all(map(math.isfinite, omega21)):
        raise DomainError(f"ratios must leave a finite splitting omega/ratio, "
                          f"omega={pulse.omega}")
    if not ratios:
        return []
    t0 = pulse.quarter_period
    dt = min(resolution_bound(model), 4.0 * t0 / 2000.0)
    energies = np.array([np.zeros(len(ratios)), omega21])
    _, half, r_sym, u, steps = _steps(model, energies, dt, t0)
    runs = max(1, _CHUNK_STEPS // steps.size)
    p2 = []
    for j in range(0, len(ratios), runs):
        last = _cf4(half[:, j:j + runs], r_sym, u, steps)[:, :, -1]
        p2.extend(np.abs(last[1] / np.sqrt(model.closure_weights[1])) ** 2)
    return [(float(r), float(1.0 - p)) for r, p in zip(ratios, p2)]


def kick_convergence(model: CouplingModel, widths) -> list[tuple[float, float]]:
    """Post-kick transfer versus kick width, for rectangular kicks.

    ``model.pulse`` is a :class:`RectKickPulse`; its width is replaced by
    each of ``widths``, positive and strictly decreasing, keeping its area
    and center.  Each kicked model is propagated up to the kick's right
    edge at its :func:`resolution_bound`, the width, as :func:`integrate`
    would, and each row is its run's last state.  Every segment of a
    rectangular kick is flat, where CF4 is exact, so the result at each
    width is exact whatever the step.

    Every width's grid is checked before any step is propagated.  The runs
    share the model's ``r`` and energies but not their grids, so each
    :func:`_cf4` pass takes consecutive widths, as many as keep runs times
    the longest grid within ``_CHUNK_STEPS`` step matrices (one width at
    least), and pads each shorter grid at its start with zero-length
    steps, whose factors are exactly the identity.  A row differs from
    that width propagated alone only by rounding: the padding moves the
    blocks of :func:`_prefix_states`, and the largest step generator of
    the pass sets :func:`_propagators`' one Taylor degree.
    """
    if not isinstance(model.pulse, RectKickPulse):
        raise DomainError("kick convergence needs a rectangular kick")
    widths = [float(w) for w in widths]
    if not widths or any(w <= 0 for w in widths):
        raise DomainError("widths must be positive")
    if any(b >= a for a, b in zip(widths, widths[1:])):
        raise DomainError("widths must be strictly decreasing")
    grids = []
    for w in widths:
        kicked = model.with_pulse(replace(model.pulse, width=w))
        _, half, r_sym, u, steps = _steps(kicked, model.energies[:, None],
                                          resolution_bound(kicked), kicked.pulse.right)
        grids.append((u, steps))
    # every width shares the model's r and energies, so half and r_sym are every run's
    passes = [grids[:1]]
    for grid in grids[1:]:
        group = passes[-1] + [grid]
        if len(group) * max(steps.size for _, steps in group) <= _CHUNK_STEPS:
            passes[-1] = group
        else:
            passes.append([grid])
    p2 = []
    for group in passes:
        runs, longest = len(group), max(steps.size for _, steps in group)
        u, steps = np.zeros((2, runs, longest)), np.zeros((runs, longest))
        for j, (uj, hj) in enumerate(group):
            u[:, j, longest - hj.size:], steps[j, longest - hj.size:] = uj, hj
        last = _cf4(np.repeat(half, runs, axis=1), r_sym, u, steps)[:, :, -1]
        p2.extend(np.abs(last[1] / np.sqrt(model.closure_weights[1])) ** 2)
    return [(w, float(p)) for w, p in zip(widths, p2)]


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


def _cf4(half, r_sym, u, steps):
    """States of every run from state 1 on, after every CF4 step over steps[k].

    Step k of run j is ``exp(-i h (E/2 + u[1, k] r)) exp(-i h (E/2 + u[0, k] r))``
    with ``half[:, j] = E/2``; ``u`` holds the envelope at the two Gauss nodes
    mixed by the CF4 weights: u[0] weights the earlier node more, u[1] the
    later one.  Runs share one grid, ``steps`` (S,) and ``u`` (2, S), or each
    has its own, (R, S) and (2, R, S).  The result is (n, R, S + 1), state 1
    first.  One :func:`_propagators` call makes both exponentials of a
    chunk's steps over all runs, batch-last as (n, n, 2, R, steps); a chunk
    holds at most ``_CHUNK_STEPS`` step matrices over all runs, and one step
    at least.  Every buffer of a chunk is a slice of one float64 workspace
    of 7 real generator stacks of the largest chunk, allocated once a call:
    the generators, :func:`_propagators`' four Taylor stacks and its complex
    result.  Once the series is done its Taylor memory takes the steps
    ``f1 f0`` in :func:`_blocks`' layout and their product's term.  Every
    offset is even, so each complex view is aligned.
    """
    n, runs = half.shape
    total = steps.shape[-1]
    steps = np.atleast_2d(steps)
    u = u.reshape(2, len(steps), total)
    size = max(1, min(_CHUNK_STEPS // runs, total))
    out = np.zeros((n, runs, total + 1), dtype=complex)
    out[0, :, 0] = 1.0
    work = np.empty(7 * n * n * 2 * runs * size)
    for c in range(0, total, size):
        h = steps[:, c:c + size]
        count = h.shape[-1]
        shape = (n, n, 2, runs, count)
        k = math.prod(shape)  # floats in one real stack of the chunk
        x, *taylor = (work[j * k:(j + 1) * k].reshape(shape) for j in range(5))
        np.multiply(r_sym[:, :, None, None, None], h * u[..., c:c + size], out=x)
        _diagonal(x)[...] += half[:, None, :, None] * h
        f = _propagators(x, taylor, work[5 * k:7 * k].view(complex).reshape(shape))
        # the series is done: its memory takes the steps f1 f0 and their product's term
        blocks = _blocks(n, runs, count, work[k:])
        end = k + 2 * blocks.size
        _product(f[:, :, 1], f[:, :, 0], out=blocks.reshape(n, n, runs, -1)[..., :count],
                 tmp=work[end:end + k].view(complex).reshape(f[:, :, 0].shape))
        out[..., c + 1:c + count + 1] = _prefix_states(blocks, out[..., c])[..., :count]
    return out


def _propagators(x, taylor, out):
    """``exp(-i X)`` for every real matrix ``X = x[:, :, k...]``, batch-last,
    written into the complex ``out`` of x's shape, which it returns.

    ``exp(-iX) = C(X) - i S(X)``, the cosine and sine series evaluated in
    real arithmetic by Horner's rule in ``X^2``.  A matrix whose norm
    ``||X||_inf`` exceeds 1 is first scaled by ``2^-s``, ``s =
    ceil(log2 ||X||_inf)``, and its exponential squared s times after
    (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).  The series stops at the
    lowest degree m >= 3 whose remainder ``theta^(m+1)/(m+1)!`` is below
    2^-54, for theta the largest scaled norm of the call: degree 5 to 7
    on resolved steps (theta 0.002 to 0.03), 18 at theta = 1.  X = 0 gives
    exactly the identity.  No LAPACK call is made.  ``x`` is scaled in
    place, and the series is formed in ``taylor``, four real stacks of x's
    shape: ``X^2``, two Horner stacks that take turns, and each product's
    term.  ``x``, ``out`` and every Taylor stack are C-contiguous and do
    not overlap.  The squarings make new arrays.
    """
    shape, n = x.shape, x.shape[0]
    x = x.reshape(n, n, -1)
    y, ping, pong, term = (t.reshape(n, n, -1) for t in taylor)
    u = out.reshape(n, n, -1)
    norm = np.abs(x, out=y).sum(axis=1).max(axis=0)
    s = np.ceil(np.log2(np.maximum(norm, 1.0))).astype(np.int32)  # ldexp's own exponent type
    np.ldexp(x, -s, out=x)
    theta = float(np.max(np.ldexp(norm, -s), initial=0.0))
    m = 3
    while theta ** (m + 1) / math.factorial(m + 1) >= _TAYLOR_TOL:
        m += 1
    _product(x, x, out=y, tmp=term)
    u.real = _horner(y, [(-1) ** (k // 2) / math.factorial(k) for k in range(0, m + 1, 2)],
                     ping, pong, term)
    sin = _horner(y, [(-1) ** (k // 2) / math.factorial(k) for k in range(1, m + 1, 2)],
                  ping, pong, term)
    np.negative(_product(x, sin, out=y, tmp=term), out=u.imag)
    for j in range(int(s.max(initial=0))):
        big = np.flatnonzero(s > j)
        u[..., big] = _product(u[..., big], u[..., big])
    return out


def _horner(y, coefs, ping, pong, tmp):
    """``sum_j coefs[j] Y^j`` for every matrix ``Y = y[:, :, k]`` by Horner's
    rule, for two coefficients or more.  The running sum takes turns between
    ``ping`` and ``pong``, stacks of y's shape, and ``tmp`` holds each
    product's term; the one that holds the result is returned."""
    p, spare = np.multiply(coefs[-1], y, out=ping), pong
    _diagonal(p)[...] += coefs[-2]
    for c in reversed(coefs[:-2]):
        p, spare = _product(y, p, out=spare, tmp=tmp), p
        _diagonal(p)[...] += c
    return p


def _diagonal(a):
    """Writable view of every diagonal of a C-contiguous batch-last stack."""
    n = a.shape[0]
    return a.reshape(n * n, *a.shape[2:])[::n + 1]


def _blocks(n, runs, total, buf):
    """The (n, n, R, blocks, size) complex stack that :func:`_prefix_states`
    multiplies for ``total`` steps of R runs, about sqrt(total) blocks of
    about sqrt(total) steps, as a view of the start of the float64 ``buf``,
    which holds ``4 n^2 R total`` floats or more: the stack holds fewer than
    ``2 total`` steps a run.  Every step from ``total`` on is set to the
    identity; the caller writes the others, ``reshape(n, n, R, -1)[...,
    :total]``."""
    size = max(1, math.isqrt(total))
    blocks = -(-total // size)
    shape = (n, n, runs, blocks * size)
    u = buf[:2 * math.prod(shape)].view(complex).reshape(shape)
    u[..., total:] = np.eye(n)[:, :, None, None]
    return u.reshape(n, n, runs, blocks, size)


def _prefix_states(u, b):
    """``U_k ... U_1 b`` for every k, by a two-level blocked product.

    ``u`` is :func:`_blocks`' stack of R runs' steps, which it overwrites,
    ``b`` holds a start state per run, (n, R), and the result is (n, R,
    blocks size), one state after every step of the stack, the identity
    steps that pad it included.  The running products inside every block
    are formed for all blocks and runs at once, the states entering each
    block are carried across the blocks one block at a time, and one
    batched product then gives every state.  That is about 2 sqrt(N)
    products for N steps, and O(N) work.  Each batched product is
    :func:`dressed._product`'s n elementwise multiplies and n - 1 adds, so
    about 2n sqrt(N) numpy calls in all, however many runs; a stacked
    ``matmul`` would make one BLAS call per step matrix.  The carry is one
    matrix-vector ``@`` per block, stacked over the runs, which costs less
    than ``_product``'s 2n - 1 calls.
    """
    n, _, runs, blocks, size = u.shape
    for i in range(1, size):
        u[..., i] = _product(u[..., i], u[..., i - 1])
    # the carry's operands, (blocks, R, n, n) and (R, n, 1): matrix axes last for ``@``
    ends = u[..., -1].transpose(3, 2, 0, 1).copy()
    b = b.T[..., None]
    entering = np.empty((blocks, *b.shape), dtype=complex)
    for j in range(blocks):
        entering[j] = b
        b = ends[j] @ b
    entering = entering.transpose(2, 3, 1, 0)[..., None]
    return _product(u, entering).reshape(n, runs, -1)
