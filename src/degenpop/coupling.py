"""Coupling models: which states talk to each other and how strongly.

A model fixes the dimensionless strength matrix ``r`` multiplying the
shared envelope: the instantaneous coupling between states j and k is
``r[j, k] * V(t)``, with diagonal self-couplings ``eps``.  Bare energies
``E_j`` ride along for the non-degenerate integrator and are zero in the
degenerate closed-form regime.

A symmetric n-state manifold (states 3..n identical) is stored in its
reduced 3-row form; ``reduced_multiplicity`` carries how many physical
states the third row stands for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from .errors import DimensionTooSmall
from .pulses import Pulse, pulse_from_dict

_STRUCT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CouplingModel:
    """Immutable description of the coupled system.

    ``r`` is n-by-n and symmetric, except in the reduced symmetric-manifold
    form where rows 1-2 carry the manifold multiplicity explicitly and the
    third diagonal entry absorbs the intra-manifold coupling shift.
    """

    n: int
    r: np.ndarray
    eps: np.ndarray
    energies: np.ndarray
    pulse: Pulse
    reduced_multiplicity: int | None = None

    def __post_init__(self) -> None:
        r = np.array(self.r, dtype=float)
        eps = np.array(self.eps, dtype=float)
        energies = np.array(self.energies, dtype=float)
        if not all(np.all(np.isfinite(a)) for a in (r, eps, energies)):
            raise ValueError("r, eps and energies must be finite")
        if r.shape != (self.n, self.n):
            raise ValueError("r must be n-by-n")
        if eps.shape != (self.n,) or energies.shape != (self.n,):
            raise ValueError("eps and energies must have length n")
        r.setflags(write=False)
        eps.setflags(write=False)
        energies.setflags(write=False)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "energies", energies)
        m = self.reduced_multiplicity
        if m is None:
            if not np.allclose(r, r.T, atol=_STRUCT_TOL, rtol=0):
                raise ValueError("r must be symmetric")
            if not np.allclose(np.diag(r), eps, atol=_STRUCT_TOL, rtol=0):
                raise ValueError("diagonal of r must equal eps")
        else:
            if self.n != 3:
                raise ValueError("reduced symmetric form has exactly 3 rows")
            if not (isinstance(m, int) and m >= 2):
                raise ValueError("reduced_multiplicity must be an integer >= 2")
            ok = (abs(r[0, 1] - r[1, 0]) <= _STRUCT_TOL
                  and abs(r[0, 2] - m * r[2, 0]) <= _STRUCT_TOL
                  and abs(r[1, 2] - m * r[2, 1]) <= _STRUCT_TOL
                  and abs(r[0, 0] - eps[0]) <= _STRUCT_TOL
                  and abs(r[1, 1] - eps[1]) <= _STRUCT_TOL
                  and abs(r[2, 2] - eps[2] - (m - 1) / m)
                  <= _STRUCT_TOL * max(1.0, abs(eps[2])))
            if not ok:
                raise ValueError("r does not follow the reduced symmetric form")

    @property
    def full_state_count(self) -> int:
        """Physical number of states, unfolding the reduced manifold."""
        m = self.reduced_multiplicity
        return self.n if m is None else m + 2

    @property
    def closure_weights(self) -> np.ndarray:
        """Per-row weights making the conserved probability sum equal 1."""
        w = np.ones(self.n)
        if self.reduced_multiplicity is not None:
            w[2] = float(self.reduced_multiplicity)
        return w

    def symmetrized(self) -> np.ndarray:
        """``D r D^-1`` with ``D = diag(sqrt(closure weights))``, real symmetric.

        In the reduced manifold form rows 1-2 carry the multiplicity m on
        their manifold entries and row 3 carries 1; scaling by D puts
        sqrt(m) on both sides (the bright-state scaling of Morris & Shore,
        Phys. Rev. A 27, 906 (1983)).  The mean with the transpose removes
        rounding.
        """
        d = np.sqrt(self.closure_weights)
        s = self.r * d[:, None] / d[None, :]
        return 0.5 * (s + s.T)

    def coupling_at(self, t: float) -> np.ndarray:
        """Instantaneous coupling matrix ``r * V(t)``."""
        return self.r * self.pulse.value(t)

    def with_pulse(self, pulse: Pulse) -> "CouplingModel":
        return replace(self, pulse=pulse)

    def with_energies(self, energies) -> "CouplingModel":
        return replace(self, energies=np.asarray(energies, dtype=float))

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "n": self.n,
            "r": [float(x) for x in self.r.ravel()],
            "eps": [float(x) for x in self.eps],
            "energies": [float(x) for x in self.energies],
            "pulse": self.pulse.to_dict(),
        }
        if self.reduced_multiplicity is not None:
            d["reduced_multiplicity"] = self.reduced_multiplicity
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "CouplingModel":
        n = int(d["n"])
        return CouplingModel(
            n=n,
            r=np.array(d["r"], dtype=float).reshape(n, n),
            eps=np.array(d["eps"], dtype=float),
            energies=np.array(d["energies"], dtype=float),
            pulse=pulse_from_dict(d["pulse"]),
            reduced_multiplicity=(int(d["reduced_multiplicity"])
                                  if "reduced_multiplicity" in d else None),
        )

    @staticmethod
    def from_json(s: str) -> "CouplingModel":
        return CouplingModel.from_dict(json.loads(s))


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
        raise ValueError("eps must have length 3")
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
    """
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
