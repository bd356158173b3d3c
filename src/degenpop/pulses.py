"""Drive envelopes and their running action integrals.

Every envelope ``V(t)`` is paired with its action ``A(t) = int_0^t V dt'``,
which is the only quantity that enters the degenerate dynamics.  Each
shape is one frozen dataclass deriving from :class:`Pulse`, registered in
``PULSE_KINDS`` under the ``kind`` its run configuration ``pulse`` section
names.  A new envelope sets ``kind`` and ``schema`` and implements
``values``, ``action_values`` (in closed form), ``peak`` and ``max_step``.
It may override ``breakpoints``, ``reference_time``, ``invert_action`` and
``piecewise_constant``, which ``numeric.resolution_bound`` reads, and
overrides ``from_dict``, the reader of its ``pulse`` section, when one of
its fields is not a number.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import islice
from typing import Any, ClassVar

import numpy as np

from .errors import (ConfigError, DomainError, OutOfDomain, PointwiseUndefined,
                     Unattainable)

ACTION_SOLVE_TOL = 1e-12
# a smooth envelope is sampled at least this many times per period
STEPS_PER_PERIOD = 200.0
# a samples_file header: t,V, each name padded with whitespace or double-quoted at will
_HEADER = re.compile(r'\s*("?)\s*t\s*\1\s*,\s*("?)\s*V\s*\2\s*')


class Pulse(ABC):
    """A drive envelope ``V(t)``, defined for ``t >= 0``, and its action."""

    # the config pulse section's kind, and the type of each of its other
    # keys (float for a number); the base from_dict maps the keys to the
    # fields in order
    kind: ClassVar[str]
    schema: ClassVar[dict[str, type]]
    # True when V is constant between breakpoints: CF4 is exact at any
    # step between breakpoints, so max_step alone bounds the step
    piecewise_constant: ClassVar[bool] = False

    @abstractmethod
    def values(self, t: np.ndarray) -> np.ndarray:
        """Envelope ``V(t)`` at every time."""

    @abstractmethod
    def action_values(self, t: np.ndarray) -> np.ndarray:
        """Action ``A(t) = int_0^t V(t') dt'`` at every time."""

    @property
    @abstractmethod
    def peak(self) -> float:
        """Largest ``|V(t)|``."""

    @property
    @abstractmethod
    def max_step(self) -> float:
        """Longest integrator step that resolves the envelope's shape."""

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Pulse":
        """The pulse a config ``pulse`` section describes; raises KeyError
        for a missing key."""
        return cls(*(float(d[key]) for key in cls.schema))

    def value(self, t: float) -> float:
        return float(self.values(np.array([t], dtype=float))[0])

    def action(self, t: float) -> float:
        return float(self.action_values(np.array([t], dtype=float))[0])

    def breakpoints(self) -> tuple[float, ...]:
        """Times where the envelope or its slope jumps."""
        return ()

    def reference_time(self, t_end: float) -> float:
        """Time at which a run up to ``t_end`` reports its transfer."""
        return t_end

    def invert_action(self, target: float) -> float:
        """Smallest ``t >= 0`` with ``A(t) = target`` on the first monotone
        branch of the action.

        A target above the branch maximum by at most ``ACTION_SOLVE_TOL``
        maps to the time of that maximum, and a target of at most
        ``ACTION_SOLVE_TOL`` maps to 0.  Raises Unattainable for a target
        further above the maximum, and OutOfDomain for a negative target or
        an envelope without a closed-form inversion.
        """
        raise OutOfDomain(f"{self.kind} pulse has no action inversion")


@dataclass(frozen=True)
class HarmonicPulse(Pulse):
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

    kind: ClassVar[str] = "harmonic"
    schema: ClassVar[dict[str, type]] = {"chi": float, "omega": float}

    chi: float
    omega: float

    def __post_init__(self) -> None:
        _require_finite(chi=self.chi, omega=self.omega)
        if not self.omega > 0:
            raise DomainError(f"omega must be positive: omega={self.omega}")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    @property
    def quarter_period(self) -> float:
        return 0.5 * math.pi / self.omega

    @property
    def peak(self) -> float:
        return abs(self.chi)

    @property
    def max_step(self) -> float:
        return self.period / STEPS_PER_PERIOD

    def values(self, t: np.ndarray) -> np.ndarray:
        t = _check_times(t)
        return self.chi * np.cos(self.omega * t)

    def action_values(self, t: np.ndarray) -> np.ndarray:
        t = _check_times(t)
        return (self.chi / self.omega) * np.sin(self.omega * t)

    def reference_time(self, t_end: float) -> float:
        return self.quarter_period

    def invert_action(self, target: float) -> float:
        """``t = asin(target omega / chi) / omega`` on the first quarter period."""
        a_hi = self.action(self.quarter_period)
        if _at_branch_start(target, a_hi):
            return 0.0
        return math.asin(min(1.0, target / a_hi)) / self.omega


@dataclass(frozen=True)
class DeltaKickPulse(Pulse):
    """Idealized instantaneous kick ``V(t) = area * delta(t - center)``.

    Has no pointwise envelope value, so it cannot be integrated step by
    step; the action is a step, taken right-continuous: ``A(center) = area``.
    """

    kind: ClassVar[str] = "delta_kick"
    schema: ClassVar[dict[str, type]] = {"A0": float, "t0": float}

    area: float
    center: float

    def __post_init__(self) -> None:
        _require_finite(A0=self.area, t0=self.center)
        if not self.center > 0:
            raise DomainError(f"kick center must be positive: t0={self.center}")

    @property
    def peak(self) -> float:
        raise PointwiseUndefined("delta kick has no pointwise envelope value")

    @property
    def max_step(self) -> float:
        raise PointwiseUndefined(
            "instantaneous kick cannot be integrated; use a rectangular kick")

    def values(self, t: np.ndarray) -> np.ndarray:
        raise PointwiseUndefined("delta kick has no pointwise envelope value")

    def action_values(self, t: np.ndarray) -> np.ndarray:
        t = _check_times(t)
        return np.where(t >= self.center, self.area, 0.0)

    def breakpoints(self) -> tuple[float, ...]:
        return (self.center,)

    def reference_time(self, t_end: float) -> float:
        return self.center


@dataclass(frozen=True)
class RectKickPulse(Pulse):
    """Rectangular kick of total action ``area`` spread over ``width``.

    ``V(t) = area/width`` on ``[center - width/2, center + width/2]`` and
    zero elsewhere.  Converges to :class:`DeltaKickPulse` as width -> 0.
    The envelope is flat between its edges, where CF4 is exact at any
    step; ``max_step``, the width, only sets the output grid.
    """

    kind: ClassVar[str] = "rect_kick"
    schema: ClassVar[dict[str, type]] = {"A0": float, "t0": float, "width": float}
    piecewise_constant: ClassVar[bool] = True

    area: float
    center: float
    width: float

    def __post_init__(self) -> None:
        _require_finite(A0=self.area, t0=self.center, width=self.width)
        if not self.width > 0:
            raise DomainError(f"width must be positive: width={self.width}")
        if self.center - 0.5 * self.width < 0:
            raise DomainError(
                f"kick support must lie in t >= 0: t0={self.center}, width={self.width}")
        if not math.isfinite(self.height):
            raise DomainError(
                f"kick height must be finite: A0={self.area}, width={self.width}")

    @property
    def left(self) -> float:
        return self.center - 0.5 * self.width

    @property
    def right(self) -> float:
        return self.center + 0.5 * self.width

    @property
    def height(self) -> float:
        return self.area / self.width

    @property
    def peak(self) -> float:
        return abs(self.height)

    @property
    def max_step(self) -> float:
        return self.width

    def values(self, t: np.ndarray) -> np.ndarray:
        t = _check_times(t)
        return np.where((t >= self.left) & (t <= self.right), self.height, 0.0)

    def action_values(self, t: np.ndarray) -> np.ndarray:
        t = _check_times(t)
        return np.clip((t - self.left) * self.height, min(0.0, self.area), max(0.0, self.area))

    def breakpoints(self) -> tuple[float, ...]:
        return (self.left, self.right)

    def reference_time(self, t_end: float) -> float:
        return self.right


@dataclass(frozen=True)
class SampledPulse(Pulse):
    """Envelope given by samples, linearly interpolated between them.

    Outside the sampled range the envelope is zero.  The action is the
    exact integral of the interpolant (trapezoid on each segment).  Its
    config ``pulse`` section holds either ``samples`` as ``[[t, V], ...]`` or
    ``samples_file``, the path of a CSV read by :func:`load_sampled_csv`.
    """

    kind: ClassVar[str] = "custom_sampled"
    schema: ClassVar[dict[str, type]] = {"samples": list, "samples_file": str}

    times: np.ndarray
    values_: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values_, dtype=float)
        if t.ndim != 1 or v.shape != t.shape or t.size < 2:
            raise DomainError("need matching 1-d arrays with at least 2 samples")
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise DomainError("pulse parameters must be finite: samples")
        if not np.all(np.diff(t) > 0):
            raise DomainError("sample times must be strictly increasing")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.diff(v) / np.diff(t)).all():
                raise DomainError("sample slopes |dV/dt| must be finite: samples")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values_", v)
        # cumulative integral of the interpolant from the first sample
        cums = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(t))])
        object.__setattr__(self, "_cums", cums)
        # the lead-in I(0) that every action value subtracts
        object.__setattr__(self, "_lead_in", float(self._integral_from_first_sample(0.0)))

    @property
    def peak(self) -> float:
        return float(np.max(np.abs(self.values_)))

    @property
    def max_step(self) -> float:
        return float(np.diff(self.times).min())

    def values(self, t: np.ndarray) -> np.ndarray:
        t = _check_times(t)
        return np.interp(t, self.times, self.values_, left=0.0, right=0.0)

    def _integral_from_first_sample(self, t: np.ndarray) -> np.ndarray:
        """Integral of the interpolant over [times[0], t], clamped to the range."""
        tc = np.clip(t, self.times[0], self.times[-1])
        idx = np.clip(np.searchsorted(self.times, tc, side="right") - 1, 0, self.times.size - 2)
        t0 = self.times[idx]
        v0 = self.values_[idx]
        v = np.interp(tc, self.times, self.values_)
        return self._cums[idx] + 0.5 * (v0 + v) * (tc - t0)

    def action_values(self, t: np.ndarray) -> np.ndarray:
        t = _check_times(t)
        return self._integral_from_first_sample(t) - self._lead_in

    def breakpoints(self) -> tuple[float, ...]:
        return tuple(self.times)

    def invert_action(self, target: float) -> float:
        """Root on the full sampled range, whose cumulative action must be
        non-decreasing; the action is quadratic on the segment that holds it."""
        if np.any(np.diff(self._cums) < -1e-15):
            raise OutOfDomain("sampled action is not monotone")
        times, values = self.times, self.values_
        if _at_branch_start(target, self.action(float(times[-1]))):
            return 0.0
        sample_actions = self.action_values(np.maximum(times, 0.0))
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
        rem = target - self.action(t_a)
        # smallest s > 0 with v_a s + slope s^2 / 2 = rem, in a form free of
        # cancellation; a negative discriminant is rounding at a flat vertex
        sq = math.sqrt(max(0.0, v_a * v_a + 2.0 * slope * rem))
        s = 2.0 * rem / (v_a + sq) if v_a >= 0.0 else (sq - v_a) / slope
        return t_a + min(s, h)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SampledPulse":
        if ("samples" in d) == ("samples_file" in d):
            raise ConfigError(f"{cls.kind} pulse needs exactly one of samples or samples_file")
        if "samples_file" in d:
            return load_sampled_csv(d["samples_file"])
        try:
            samples = np.asarray(d["samples"])
        except ValueError:  # ragged pairs, which are not numbers either
            samples = np.empty(0, dtype=object)
        # NumPy reads a boolean among numbers as 0 or 1; it is not a number
        if (samples.dtype.kind not in "iuf" or samples.shape[1:] != (2,)
                or any(isinstance(x, bool) for pair in d["samples"] for x in pair)):
            raise ConfigError("samples must be [t, V] pairs of numbers")
        return cls(samples[:, 0], samples[:, 1])


PULSE_KINDS: dict[str, type[Pulse]] = {
    cls.kind: cls for cls in (HarmonicPulse, DeltaKickPulse, RectKickPulse, SampledPulse)
}


def action_values(pulse: Pulse, t: np.ndarray) -> np.ndarray:
    """Running action ``A(t)`` of ``pulse`` over an array of times."""
    return pulse.action_values(np.asarray(t, dtype=float))


def _at_branch_start(target: float, a_hi: float) -> bool:
    """Whether ``target`` maps to t = 0 on a branch rising from A(0) = 0 to
    ``a_hi``; raises for a target outside the branch, NaN included."""
    if not target >= 0:
        raise OutOfDomain(f"target action must be non-negative, got {target}")
    if target > a_hi + ACTION_SOLVE_TOL:
        raise Unattainable(f"action {target} exceeds branch maximum {a_hi}")
    return target <= ACTION_SOLVE_TOL


def load_sampled_csv(path) -> SampledPulse:
    """Read a sampled envelope from CSV: the header ``t,V``, then at least
    two rows of the two fields ``t,V``, each a decimal number, padded with
    whitespace or wrapped in double quotes at will.  Empty lines are
    skipped, there are no comments, any line ending is accepted, and
    :class:`SampledPulse` checks the values."""
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigError(f"samples_file must be a path string, not {path!r}")
    try:
        with open(path) as fh:
            if not _HEADER.fullmatch(fh.readline()):
                raise ConfigError("expected CSV header 't,V'")
            try:
                with warnings.catch_warnings():  # a file without rows is refused below
                    warnings.simplefilter("ignore", UserWarning)
                    rows = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None, quotechar='"')
            except ValueError as exc:
                row = re.search(r"at row (\d+)", str(exc))
                if row is None:  # not about a row: text that does not decode, refused below
                    raise
                # numpy counts the rows without the empty lines it skips, from 0 in
                # a value error and from 1 in a field-count error
                columns = "columns" in str(exc)
                rule = "row must hold the two fields t,V" if columns else "values must be numbers"
                raise _row_error(fh, int(row[1]) - columns, rule) from None
            if rows.shape[1] != 2 and rows.size:
                raise _row_error(fh, 0, f"rows must hold the two fields t,V, not {rows.shape[1]}")
    except UnicodeDecodeError as exc:  # from the header, a row, or a line _row_error counts
        raise ConfigError(f"samples_file is not text: {exc}") from None
    if len(rows) < 2:
        raise ConfigError("need at least 2 samples")
    return SampledPulse(rows[:, 0], rows[:, 1])


def _row_error(fh, row: int, rule: str) -> ConfigError:
    """The error naming data row ``row`` (0-based, empty lines skipped) of
    the sampled envelope file ``fh`` by its file line, the header being
    line 1; a quoted field that spans lines is not followed, so the rows
    after it are named a line early."""
    fh.seek(0)
    lines = (number for number, line in enumerate(fh, 1) if number > 1 and line != "\n")
    return ConfigError(f"samples_file line {next(islice(lines, row, None))}: {rule}")


def _check_times(t: np.ndarray) -> np.ndarray:
    """``t`` as floats; OutOfDomain unless every time is finite and >= 0."""
    t = np.asarray(t, dtype=float)
    if t.size and not (t.min() >= 0.0 and t.max() < math.inf):
        raise OutOfDomain("times must be finite and non-negative")
    return t


def _require_finite(**params) -> None:
    """Raises DomainError naming every parameter that is not a finite real number."""
    bad = []
    for name, value in params.items():
        try:  # a value that is not real, or an int past float range, is not finite
            if not math.isfinite(value):
                bad.append(name)
        except (TypeError, OverflowError):
            bad.append(name)
    if bad:
        raise DomainError(f"pulse parameters must be finite: {', '.join(bad)}")
