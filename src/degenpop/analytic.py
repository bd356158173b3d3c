"""Closed-form propagation in the dressed basis, and related formulas.

The whole time dependence enters through the envelope action A(t).
Starting from state 1 the bare amplitudes at action A are

    a(A) = e_1 + D^-1 Q (e^{-izA} - 1) Q^T e_1 = e_1 + m_inv (e^{-izA} - 1),

with ``S = D r D^-1 = Q diag(z) Q^T`` the symmetrized strength matrix
(see :mod:`degenpop.dressed`).  Propagation is one complex
matrix-vector product per requested action value.  Written around
``e^{-izA} - 1`` the sum returns ``e_1`` exactly at A = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import CouplingModel
from .dressed import DressedBasis
from .errors import DimensionTooSmall, DomainError, OutOfDomain
from .pulses import action_values

CLOSURE_TOL = 1e-9
# rows per formatting block of trajectory_to_csv (8192 measured fastest)
_CSV_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class Trajectory:
    """Time series of populations with the closure diagnostic.

    ``probabilities[k, j]`` is the population of bare state j at
    ``times[k]``; ``closure[k]`` is the closure-weighted population
    sum, which equals 1 up to roundoff for exact propagation.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    probabilities: np.ndarray
    closure: np.ndarray


def amplitudes_at(basis: DressedBasis, action: float) -> np.ndarray:
    """Bare amplitudes at a single action value, starting from state 1."""
    return amplitudes_many(basis, np.array([float(action)]))[0]


def amplitudes_many(basis: DressedBasis, actions: np.ndarray) -> np.ndarray:
    """Bare amplitudes at many action values; rows index the actions."""
    actions = np.asarray(actions, dtype=float).ravel()
    phases = np.exp(-1j * (actions[:, None] * basis.z))
    phases -= 1.0
    amps = phases @ basis.m_inv.T
    amps[:, 0] += 1.0
    return amps


def probabilities_at(basis: DressedBasis, action: float) -> np.ndarray:
    """Populations |a_j|^2 at one action value, closure-checked.

    The populations weighted by the basis's closure weights
    ``basis.scale**2`` must sum to 1 within CLOSURE_TOL, else
    ArithmeticError.
    """
    p = np.abs(amplitudes_at(basis, action)) ** 2
    total = float(basis.scale ** 2 @ p)
    if abs(total - 1.0) > CLOSURE_TOL:
        raise ArithmeticError(f"closure sum {total!r} deviates from 1")
    return p


def probabilities_2state(action) -> np.ndarray:
    """Equal-diagonal two-state populations at given action(s).

    With both diagonal strengths equal the populations are
    (cos^2 A, sin^2 A): the common diagonal is a global phase.
    """
    a = np.atleast_1d(np.asarray(action, dtype=float))
    p2 = np.sin(a) ** 2
    out = np.stack([1.0 - p2, p2], axis=-1)
    return out[0] if np.asarray(action).ndim == 0 else out


def probabilities_nstate_sym(n: int, theta) -> np.ndarray:
    """Populations of the n-state star model at phase angle theta = 2 sqrt(2 (n-2)) A.

    States 1 and 2 couple with strength 1 to each manifold state, to nothing else
    (not ``symmetric_nstate`` for n >= 4).  Columns (P1, P2, P3), P3 per manifold state:

        P1 = (3 + cos(theta) + 4 cos(theta/2)) / 8
        P2 = (3 + cos(theta) - 4 cos(theta/2)) / 8
        P3 = sin^2(theta/2) / (2 (n - 2))

    so that P1 + P2 + (n-2) P3 = 1 identically.
    """
    if n < 3:
        raise DimensionTooSmall("need n >= 3")
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    c, ch = np.cos(th), np.cos(0.5 * th)
    p1 = (3.0 + c + 4.0 * ch) / 8.0
    p2 = (3.0 + c - 4.0 * ch) / 8.0
    p3 = np.sin(0.5 * th) ** 2 / (2.0 * (n - 2))
    out = np.stack([p1, p2, p3], axis=-1)
    return out[0] if np.asarray(theta).ndim == 0 else out


def trajectory(model: CouplingModel, basis: DressedBasis,
               times) -> Trajectory:
    """Exact populations along a time grid under the model's pulse.

    The closed form holds for degenerate states only: unequal
    ``model.energies`` raise DomainError (equal ones are a global phase).
    ``times``: a finite, non-negative, non-decreasing 1-d grid, checked here for any pulse.
    """
    energies = model.energies.tolist()
    if len(set(energies)) > 1:
        raise DomainError("closed-form propagation needs equal energies, "
                          f"got energies={energies}")
    times = np.asarray(times, dtype=float)
    actions = action_values(model.pulse, times)
    # after a built-in pulse's own check; NaN fails every comparison, so ends suffice
    if times.ndim != 1 or times.size and not (
            times[0] >= 0.0 and times[-1] < math.inf and (times[1:] >= times[:-1]).all()):
        raise OutOfDomain("times must be a finite, non-negative, non-decreasing 1-d grid")
    amps = amplitudes_many(basis, actions)
    probs = np.abs(amps) ** 2
    closure = probs @ model.closure_weights
    return Trajectory(times, amps, probs, closure)


def trajectory_to_csv(traj: Trajectory) -> str:
    """Serialize a trajectory as CSV: t, per-state populations, closure.

    The header is ``t,P1,...,Pn,closure``; every number is written as
    ``%.17g`` (so it reads back to the same float), every line ends in
    ``\n``, and identical input gives byte-identical output.  Rows are
    formatted ``_CSV_BLOCK_ROWS`` at a time by one ``%`` per block.
    """
    n = traj.probabilities.shape[1]
    row = ",".join(["%.17g"] * (n + 2)) + "\n"
    parts = ["t," + "".join(f"P{j + 1}," for j in range(n)) + "closure\n"]
    for lo in range(0, traj.times.size, _CSV_BLOCK_ROWS):
        rows = slice(lo, lo + _CSV_BLOCK_ROWS)
        block = np.column_stack((traj.times[rows], traj.probabilities[rows],
                                 traj.closure[rows]))
        parts.append((row * len(block)) % tuple(block.ravel().tolist()))
    return "".join(parts)


def flat_top_quartic(omega: float, tau: float) -> float:
    """Quartic approximation to the transfer dip near a harmonic peak.

    At ``tau`` past the quarter period the exact transferred population is
    ``sin^2((pi/2) cos(omega tau))``; expanding in ``u = omega tau`` gives
    ``1 - (pi^2/16) u^4``.
    """
    u = omega * tau
    return 1.0 - (np.pi ** 2 / 16.0) * u ** 4


def leakage_estimate(omega21: float, omega: float) -> float:
    """Order-of-magnitude bound on the off-resonant population loss.

    Treats the detuned neighbor as accumulating phase-slip amplitude of
    order ``(pi/2)^3 omega21 / omega`` over the transfer; squaring gives
    ``(1/4) (pi/2)^6 (omega21/omega)^2 = 3.755 r^2`` with
    ``r = omega21/omega``.  The loss that propagation gives, 0.1654 r^2
    from :func:`degenpop.numeric.leakage_scan` for the two-state harmonic
    transfer, is 22.7 times smaller.
    """
    return 0.25 * (np.pi / 2.0) ** 6 * (omega21 / omega) ** 2


def flatness_frequency(p_cr: float, t_s: float) -> float:
    """Carrier frequency keeping the transfer dip below ``p_cr`` over a
    hold window of half-width ``t_s``.

    Inverts the quartic dip formula at the window edge:
    ``omega t_s = (16 p_cr / pi^2)^(1/4) = sqrt(4/pi) p_cr^(1/4)``.
    ``p_cr = 1`` is the degenerate bound where the dip reaches the full
    population.
    """
    if not 0.0 < p_cr <= 1.0:
        raise DomainError("p_cr must lie in (0, 1]")
    if not 0.0 < t_s < math.inf:
        raise DomainError("t_s must be positive and finite")
    return math.sqrt(4.0 / np.pi) * p_cr ** 0.25 / t_s


def delta_kick_response(t, t0: float) -> np.ndarray:
    """Two-state populations under an instantaneous quarter-cycle kick.

    The kick carries action pi/2, so transfer is complete and immediate:
    (1, 0) before the kick time, (0, 1) from it on (right-continuous).
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    after = (t_arr >= t0).astype(float)
    out = np.stack([1.0 - after, after], axis=-1)
    return out[0] if np.asarray(t).ndim == 0 else out
