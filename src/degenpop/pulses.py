"""Drive envelopes and their running action integrals.

Every envelope ``V(t)`` is paired with its action ``A(t) = int_0^t V dt'``,
which is the only quantity that enters the degenerate dynamics.  Closed
forms are used wherever the shape allows; an adaptive-Simpson fallback
covers arbitrary callables.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import OutOfDomain, PointwiseUndefined, Unattainable

QUADRATURE_TOL = 1e-10
ACTION_SOLVE_TOL = 1e-12


@dataclass(frozen=True)
class HarmonicPulse:
    """Cosine drive ``V(t) = chi * cos(omega t)``.

    Parameters
    ----------
    chi : float
        Field strength (energy units, hbar = 1).
    omega : float
        Angular frequency, must be positive.

    Notes
    -----
    The action has the closed form ``A(t) = (chi/omega) sin(omega t)``,
    so the peak action on the first monotone branch is ``chi/omega``,
    reached at a quarter period.
    """

    chi: float
    omega: float

    def __post_init__(self) -> None:
        _require_finite(self.chi, self.omega)
        if not self.omega > 0:
            raise ValueError("omega must be positive")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    @property
    def quarter_period(self) -> float:
        return 0.5 * math.pi / self.omega

    def value(self, t: float) -> float:
        if t < 0:
            raise OutOfDomain("envelope defined for t >= 0")
        return self.chi * math.cos(self.omega * t)

    def values(self, t: np.ndarray) -> np.ndarray:
        t = _check_times(t)
        return self.chi * np.cos(self.omega * t)

    def action(self, t: float) -> float:
        if t < 0:
            raise OutOfDomain("action defined for t >= 0")
        return (self.chi / self.omega) * math.sin(self.omega * t)

    def action_values(self, t: np.ndarray) -> np.ndarray:
        t = _check_times(t)
        return (self.chi / self.omega) * np.sin(self.omega * t)

    def breakpoints(self) -> tuple[float, ...]:
        return ()


@dataclass(frozen=True)
class DeltaKickPulse:
    """Idealized instantaneous kick ``V(t) = area * delta(t - center)``.

    Has no pointwise envelope value; the action is a step, taken
    right-continuous: ``A(center) = area``.
    """

    area: float
    center: float

    def __post_init__(self) -> None:
        _require_finite(self.area, self.center)
        if not self.center > 0:
            raise ValueError("kick center must be positive")

    def value(self, t: float) -> float:
        raise PointwiseUndefined("delta kick has no pointwise envelope value")

    def values(self, t: np.ndarray) -> np.ndarray:
        raise PointwiseUndefined("delta kick has no pointwise envelope value")

    def action(self, t: float) -> float:
        if t < 0:
            raise OutOfDomain("action defined for t >= 0")
        return self.area if t >= self.center else 0.0

    def action_values(self, t: np.ndarray) -> np.ndarray:
        t = _check_times(t)
        return np.where(t >= self.center, self.area, 0.0)

    def breakpoints(self) -> tuple[float, ...]:
        return (self.center,)


@dataclass(frozen=True)
class RectKickPulse:
    """Rectangular kick of total action ``area`` spread over ``width``.

    ``V(t) = area/width`` on ``[center - width/2, center + width/2]`` and
    zero elsewhere.  Converges to :class:`DeltaKickPulse` as width -> 0.
    """

    area: float
    center: float
    width: float

    def __post_init__(self) -> None:
        _require_finite(self.area, self.center, self.width)
        if not self.width > 0:
            raise ValueError("width must be positive")
        if self.center - 0.5 * self.width < 0:
            raise ValueError("kick support must lie in t >= 0")

    @property
    def left(self) -> float:
        return self.center - 0.5 * self.width

    @property
    def right(self) -> float:
        return self.center + 0.5 * self.width

    @property
    def height(self) -> float:
        return self.area / self.width

    def value(self, t: float) -> float:
        if t < 0:
            raise OutOfDomain("envelope defined for t >= 0")
        return self.height if self.left <= t <= self.right else 0.0

    def values(self, t: np.ndarray) -> np.ndarray:
        t = _check_times(t)
        return np.where((t >= self.left) & (t <= self.right), self.height, 0.0)

    def action(self, t: float) -> float:
        if t < 0:
            raise OutOfDomain("action defined for t >= 0")
        if t <= self.left:
            return 0.0
        if t >= self.right:
            return self.area
        return self.height * (t - self.left)

    def action_values(self, t: np.ndarray) -> np.ndarray:
        t = _check_times(t)
        return np.clip((t - self.left) * self.height, 0.0, self.area) if self.area >= 0 \
            else np.clip((t - self.left) * self.height, self.area, 0.0)

    def breakpoints(self) -> tuple[float, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class SampledPulse:
    """Envelope given by samples, linearly interpolated between them.

    Outside the sampled range the envelope is zero.  The action is the
    exact integral of the interpolant (trapezoid on each segment).
    """

    times: np.ndarray
    values_: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values_, dtype=float)
        if t.ndim != 1 or v.shape != t.shape or t.size < 2:
            raise ValueError("need matching 1-d arrays with at least 2 samples")
        _require_finite(t, v)
        if not np.all(np.diff(t) > 0):
            raise ValueError("sample times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values_", v)
        # cumulative integral of the interpolant from the first sample
        cums = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(t))])
        object.__setattr__(self, "_cums", cums)

    def value(self, t: float) -> float:
        if t < 0:
            raise OutOfDomain("envelope defined for t >= 0")
        return float(self.values(np.array([t]))[0])

    def values(self, t: np.ndarray) -> np.ndarray:
        t = _check_times(t)
        out = np.interp(t, self.times, self.values_)
        return np.where((t < self.times[0]) | (t > self.times[-1]), 0.0, out)

    def _integral_from_first_sample(self, t: np.ndarray) -> np.ndarray:
        """Integral of the interpolant over [times[0], t], clamped to the range."""
        tc = np.clip(t, self.times[0], self.times[-1])
        idx = np.clip(np.searchsorted(self.times, tc, side="right") - 1, 0, self.times.size - 2)
        t0 = self.times[idx]
        v0 = self.values_[idx]
        v = np.interp(tc, self.times, self.values_)
        return self._cums[idx] + 0.5 * (v0 + v) * (tc - t0)

    def action(self, t: float) -> float:
        if t < 0:
            raise OutOfDomain("action defined for t >= 0")
        return float(self.action_values(np.array([t]))[0])

    def action_values(self, t: np.ndarray) -> np.ndarray:
        t = _check_times(t)
        return self._integral_from_first_sample(t) - self._integral_from_first_sample(
            np.zeros_like(t)
        )

    def breakpoints(self) -> tuple[float, ...]:
        return tuple(self.times)


Pulse = Union[HarmonicPulse, DeltaKickPulse, RectKickPulse, SampledPulse]


def envelope_value(pulse: Pulse, t: float) -> float:
    """Pointwise envelope value ``V(t)``.

    Raises
    ------
    PointwiseUndefined
        For :class:`DeltaKickPulse`.
    OutOfDomain
        For negative ``t``.
    """
    return pulse.value(t)


def action(pulse: Pulse, t: float) -> float:
    """Running action ``A(t) = int_0^t V(t') dt'`` in closed form."""
    return pulse.action(t)


def action_values(pulse: Pulse, t: np.ndarray) -> np.ndarray:
    """Vectorized :func:`action` over an array of times."""
    return pulse.action_values(np.asarray(t, dtype=float))


def solve_time_for_action(pulse: Pulse, target: float) -> float:
    """Smallest ``t >= 0`` with ``A(t) = target``, inverted in closed form.

    The root is taken on the monotone branch: the first quarter period for
    a harmonic pulse, where ``t = asin(target omega / chi) / omega``; the
    full sampled range for a sampled pulse (whose cumulative action must be
    non-decreasing), where the action is quadratic on the segment that
    holds the root.  A target above the branch maximum by at most
    ``ACTION_SOLVE_TOL`` maps to the time of that maximum, and a target at
    most ``ACTION_SOLVE_TOL`` above ``A(0)`` maps to 0.

    Raises
    ------
    Unattainable
        If the target exceeds the branch maximum by more than
        ``ACTION_SOLVE_TOL``.
    OutOfDomain
        For negative targets or unsupported pulse kinds.
    """
    if target < 0:
        raise OutOfDomain("target action must be non-negative")
    if isinstance(pulse, HarmonicPulse):
        t_hi = pulse.quarter_period
    elif isinstance(pulse, SampledPulse):
        if np.any(np.diff(pulse._cums) < -1e-15):
            raise OutOfDomain("sampled action is not monotone")
        t_hi = float(pulse.times[-1])
    else:
        raise OutOfDomain("action inversion needs a harmonic or sampled pulse")
    a_hi = pulse.action(t_hi)
    if target > a_hi + ACTION_SOLVE_TOL:
        raise Unattainable(f"action {target} exceeds branch maximum {a_hi}")
    if pulse.action(0.0) >= target - ACTION_SOLVE_TOL:
        return 0.0
    if isinstance(pulse, HarmonicPulse):
        return math.asin(min(1.0, target / a_hi)) / pulse.omega
    return _sampled_time_for_action(pulse, target)


def _sampled_time_for_action(pulse: SampledPulse, target: float) -> float:
    """Root of ``A(t) = target`` for ``0 < target <= A(times[-1]) + tol``."""
    times, values = pulse.times, pulse.values_
    sample_actions = pulse.action_values(np.maximum(times, 0.0))
    reached = (times > 0.0) & (sample_actions >= target)
    if not reached.any():
        return float(times[-1])
    j = int(np.argmax(reached))
    if sample_actions[j] == target:  # e.g. the flat end of a quarter wave
        return float(times[j])
    # the segment from t_a = max(times[j - 1], 0) up to times[j] holds the root
    t_a = max(float(times[j - 1]), 0.0)
    v_a = float(np.interp(t_a, times, values))
    h = float(times[j]) - t_a
    slope = (float(values[j]) - v_a) / h
    rem = target - pulse.action(t_a)
    # smallest s > 0 with v_a s + slope s^2 / 2 = rem, in a form free of
    # cancellation; a negative discriminant is rounding at a flat vertex
    sq = math.sqrt(max(0.0, v_a * v_a + 2.0 * slope * rem))
    s = 2.0 * rem / (v_a + sq) if v_a >= 0.0 else (sq - v_a) / slope
    return t_a + min(s, h)


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = QUADRATURE_TOL) -> float:
    """Adaptive Simpson quadrature of ``f`` over ``[a, b]``.

    Generic path for arbitrary callable envelopes; absolute tolerance.
    """
    if b <= a:
        return 0.0

    def simpson(lo, flo, hi, fhi, fmid):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, flo, hi, fhi, fmid, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flm = f(lmid)
        frm = f(rmid)
        left = simpson(lo, flo, mid, fmid, flm)
        right = simpson(mid, fmid, hi, fhi, frm)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, flo, mid, fmid, flm, left, 0.5 * eps, depth - 1)
                + recurse(mid, fmid, hi, fhi, frm, right, 0.5 * eps, depth - 1))

    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = simpson(a, fa, b, fb, fm)
    return recurse(a, fa, b, fb, fm, whole, tol, 48)


def quadrature_action(envelope: Callable[[float], float], t: float,
                      tol: float = QUADRATURE_TOL) -> float:
    """Action of an arbitrary callable envelope by adaptive Simpson."""
    if t < 0:
        raise OutOfDomain("action defined for t >= 0")
    return adaptive_simpson(envelope, 0.0, t, tol)


def load_sampled_csv(path) -> SampledPulse:
    """Read a sampled envelope from CSV with header ``t,V``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["t", "V"]:
            raise ValueError("expected CSV header 't,V'")
        rows = [(float(r[0]), float(r[1])) for r in reader if r]
    if len(rows) < 2:
        raise ValueError("need at least 2 samples")
    t, v = zip(*rows)
    return SampledPulse(np.array(t), np.array(v))


def save_sampled_csv(pulse: SampledPulse, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "V"])
        for t, v in zip(pulse.times, pulse.values_):
            writer.writerow([f"{t:.17g}", f"{v:.17g}"])


def _check_times(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.size and float(t.min()) < 0:
        raise OutOfDomain("times must be non-negative")
    return t


def _require_finite(*params) -> None:
    if not all(np.all(np.isfinite(p)) for p in params):
        raise ValueError("pulse parameters must be finite")
