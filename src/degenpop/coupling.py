"""Coupling models: which states talk to each other and how strongly.

A model fixes the dimensionless strength matrix ``r`` multiplying the
shared envelope: the instantaneous coupling between states j and k is
``r[j, k] * V(t)``, with diagonal self-couplings ``eps``.  Bare energies
``E_j`` ride along for the non-degenerate integrator and are zero in the
degenerate closed-form regime.

A symmetric n-state manifold (states 3..n identical) is stored in its
reduced 3-row form; ``reduced_multiplicity`` m carries how many physical
states the third row stands for.  Every model obeys one structure rule
under its closure weights ``w`` (all 1, and ``w[2] = m`` in the reduced
form): ``diag(w) r`` is symmetric, and ``diag(r) = eps + (w - 1)/w``,
the manifold's internal coupling shifting its self coupling.  This is the
bright-state scaling of Morris & Shore, Phys. Rev. A 27, 906 (1983):
with ``D = diag(sqrt(w))`` the matrix ``D r D^-1`` is real symmetric.
The weights and that matrix are built once, when the model is.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionTooSmall, DomainError
from .pulses import Pulse

_STRUCT_TOL = 1e-12
# past 2**53 floats skip integers, so a larger count has no exact float value
_MAX_COUNT = 2 ** 53


@dataclass(frozen=True, eq=False)
class CouplingModel:
    """Immutable description of the coupled system.

    ``closure_weights`` (the conserved population sum is
    ``sum_j w_j |a_j|^2``) and ``symmetrized()`` are derived from ``r``
    and ``reduced_multiplicity`` at construction; all arrays are read-only.
    """

    n: int
    r: np.ndarray
    eps: np.ndarray
    energies: np.ndarray
    pulse: Pulse
    reduced_multiplicity: int | None = None
    closure_weights: np.ndarray = field(init=False, repr=False)
    _symmetric: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        r = np.array(self.r, dtype=float)
        eps = np.array(self.eps, dtype=float)
        energies = np.array(self.energies, dtype=float)
        values = r.ravel().tolist() + eps.ravel().tolist() + energies.ravel().tolist()
        if not all(map(math.isfinite, values)):
            raise DomainError("r, eps and energies must be finite")
        if self.n < 1 or r.shape != (self.n, self.n):
            raise DomainError("r must be n-by-n with n >= 1")
        if eps.shape != (self.n,) or energies.shape != (self.n,):
            raise DomainError("eps and energies must have length n")
        w = [1.0] * self.n
        m = self.reduced_multiplicity
        if m is not None:
            if self.n != 3:
                raise DomainError("reduced symmetric form has exactly 3 rows")
            m = _as_count(m, "reduced_multiplicity")
            if m < 2:
                raise DomainError("reduced_multiplicity must be an integer >= 2")
            object.__setattr__(self, "reduced_multiplicity", m)
            w[2] = float(m)
        # one pass over r checks the rule and builds D r D^-1 as the mean of
        # r_ij d_i/d_j and its transpose's; the manifold entry rounds at the
        # scale of its eps, and an overflowing w_i r_ii fails as inf - inf
        rows, cols, d = r.tolist(), r.T.tolist(), [math.sqrt(x) for x in w]
        s = [[0.0] * self.n for _ in w]
        broken = False
        for i, (row, e, wi, di) in enumerate(zip(rows, eps.tolist(), w, d)):
            tol = _STRUCT_TOL * max(1.0, abs(e)) if wi > 1.0 else _STRUCT_TOL
            broken |= not abs(row[i] - e - (wi - 1.0) / wi) <= tol
            for j, r_ji in enumerate(cols[i][i:], i):
                broken |= not abs(wi * row[j] - w[j] * r_ji) <= _STRUCT_TOL
                s[i][j] = s[j][i] = 0.5 * (row[j] * di / d[j] + r_ji * d[j] / di)
        if broken:
            raise DomainError("r breaks the structure rule: diag(w) r symmetric, "
                              "diag(r) = eps + (w - 1)/w")
        for name, a in (("r", r), ("eps", eps), ("energies", energies),
                        ("closure_weights", np.array(w)), ("_symmetric", np.array(s))):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def symmetrized(self) -> np.ndarray:
        """``D r D^-1`` with ``D = diag(sqrt(closure weights))``, real symmetric: rows
        1-2 of the reduced form carry m and row 3 carries 1, D makes both sqrt(m)."""
        return self._symmetric

    def with_pulse(self, pulse: Pulse) -> "CouplingModel":
        return replace(self, pulse=pulse)

    def with_energies(self, energies) -> "CouplingModel":
        return replace(self, energies=np.asarray(energies, dtype=float))


def standard_2state(eps1: float, eps2: float, pulse: Pulse) -> CouplingModel:
    """Two states with unit cross coupling and self couplings eps1, eps2."""
    r = np.array([[eps1, 1.0], [1.0, eps2]])
    return CouplingModel(2, r, np.array([eps1, eps2]), np.zeros(2), pulse)


def standard_3state(alpha: float, beta: float, eps, pulse: Pulse) -> CouplingModel:
    """Three states: r12 = alpha, r13 = beta, r23 = 1, diagonal eps.

    The 2-3 coupling sets the strength scale; alpha and beta are the two
    free off-diagonal ratios.
    """
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (3,):
        raise DomainError("eps must have length 3")
    r = np.array([
        [eps[0], alpha, beta],
        [alpha, eps[1], 1.0],
        [beta, 1.0, eps[2]],
    ])
    return CouplingModel(3, r, eps, np.zeros(3), pulse)


def symmetric_nstate(n: int, alpha: float, eps: float, pulse: Pulse) -> CouplingModel:
    """Reduced model of n states whose last n-2 form an identical manifold.

    Row 3 stands for every manifold state at once; rows 1-2 then see the
    manifold n-2 times, and the manifold's internal coupling shifts its
    effective self coupling by (n-3)/(n-2).  For n = 3 this is exactly the
    plain symmetric three-state model (beta = 1) and is returned as such.
    ``n`` may be of any integer type.
    """
    n = _as_count(n, "n")
    if n < 3:
        raise DimensionTooSmall("symmetric manifold needs n >= 3")
    if n == 3:
        return standard_3state(alpha, 1.0, np.array([eps, eps, eps]), pulse)
    m = n - 2
    r = np.array([
        [eps, alpha, float(m)],
        [alpha, eps, float(m)],
        [1.0, 1.0, eps + (n - 3) / (n - 2)],
    ])
    e3 = np.array([eps, eps, eps])
    return CouplingModel(3, r, e3, np.zeros(3), pulse, reduced_multiplicity=m)


def _as_count(value, name: str) -> int:
    """``value`` of any integer type as an int, the one check of every count and
    quantum number; DomainError for a non-integer or ``abs(value)`` above 2**53."""
    try:
        count = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, "
                          f"not {type(value).__name__}") from None
    if abs(count) > _MAX_COUNT:
        raise DomainError(f"{name} must be at most 2**53 in absolute value")
    return count
