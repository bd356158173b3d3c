"""Complete-transfer design rules and two-state targeting.

Transfer to state 2 is exact only at quantized combinations of the
accumulated action and the coupling-strength ratios.  Every design is one
record: the target action A(t0), alpha, and beta = 1.  Three-state designs
are indexed by a pair of odd integers (n1, n2), which the record keeps;
reduced symmetric n-state designs by a single odd integer n0.  Two-state
transfer needs no ratio, only the action of :func:`target_2state`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coupling import _as_count
from .errors import DimensionTooSmall, DomainError, InvalidQuantumNumbers
from .pulses import HarmonicPulse


@dataclass(frozen=True)
class ControlDesign:
    """One complete-transfer parameter set: the action A(t0) and the ratios.

    ``beta`` is always 1.  ``n1`` and ``n2`` are the quantum numbers of a
    three-state design, None for a symmetric n-state design.
    """

    action_area: float
    alpha: float
    beta: float = 1.0
    n1: int | None = None
    n2: int | None = None


def design_3state(n1: int, n2: int, sign: int = 1) -> ControlDesign:
    """Allowed three-state transfer design for odd quantum numbers.

    Valid pairs satisfy n1 = 2 n_o + n_o' and n2 = n_o + 2 n_o' for odd
    integers n_o, n_o'; equivalently 3 divides 2 n1 - n2 (see :func:`_odd_pair`).  Then

        A(t0) = sign * sqrt(n1 n2 / 2) * pi / 3
        alpha = sign * sqrt(2 / (n1 n2)) * (n1 - n2)

    and beta = 1.  DomainError for a non-integer n1 or n2, or one above 2**53.
    """
    if sign not in (1, -1):
        raise InvalidQuantumNumbers("sign must be +1 or -1")
    n1, n2 = _as_count(n1, "n1"), _as_count(n2, "n2")
    if n1 < 1 or n2 < 1 or n1 % 2 == 0 or n2 % 2 == 0:
        raise InvalidQuantumNumbers("n1 and n2 must be positive odd integers")
    _odd_pair(n1, n2)
    area = sign * math.sqrt(n1 * n2 / 2.0) * math.pi / 3.0
    alpha = sign * math.sqrt(2.0 / (n1 * n2)) * (n1 - n2)
    return ControlDesign(area, alpha, n1=n1, n2=n2)


def _odd_pair(n1: int, n2: int) -> tuple[int, int]:
    """The integers (n_o, n_o') with n1 = 2 n_o + n_o' and n2 = n_o + 2 n_o'; for odd
    n1 and n2 they are odd, as n_o' = n1 - 2 n_o and n_o = n2 - 2 n_o' are."""
    if (2 * n1 - n2) % 3 != 0:
        raise InvalidQuantumNumbers(f"({n1}, {n2}) admits no odd decomposition")
    return (2 * n1 - n2) // 3, (2 * n2 - n1) // 3


def enumerate_designs(max_product: int) -> list[ControlDesign]:
    """All positive-branch three-state designs with n1*n2 <= max_product.

    For odd n1 the valid n2 (odd, 3 | 2 n1 - n2) are one residue class
    mod 6, that of 2 n1 + 3, so :func:`design_3state` sees valid pairs only.
    Sorted by (n1*n2, n1).  Empty below the smallest product 5.
    """
    out = [design_3state(n1, n2, 1)
           for n1 in range(1, max_product + 1, 2)
           for n2 in range((2 * n1 + 3) % 6, max_product // n1 + 1, 6)]
    out.sort(key=lambda d: (d.n1 * d.n2, d.n1))
    return out


def design_nstate(n: int, n0: int) -> ControlDesign:
    """Symmetric n-state transfer design for odd n0.

    With s = (n-3)/(n-2), the reduced spectrum reaches P2 = 1 when

        A(t0) = n0 * pi * sqrt(9 / (18 (n-2) + 4 s^2))
        alpha = -(n-3) / (3 (n-2)) = -s/3

    and beta = 1.  At n = 3 this is alpha = 0, A(t0) = n0 pi / sqrt(2).
    DomainError for a non-integer n or n0, or n or |n0| above 2**53: the
    rule of n1 and n2 in :func:`design_3state` and of every model's n.
    """
    n, n0 = _as_count(n, "n"), _as_count(n0, "n0")
    if n < 3:
        raise DimensionTooSmall("need n >= 3")
    if n0 % 2 == 0:
        raise InvalidQuantumNumbers("n0 must be an odd integer")
    m = n - 2
    s = (n - 3) / m
    area = n0 * math.pi * math.sqrt(9.0 / (18.0 * m + 4.0 * s * s))
    return ControlDesign(area, (3 - n) / (3.0 * m))


def target_2state(v: float) -> float:
    """Action giving two-state transfer amplitude v (population v^2)."""
    if not 0.0 <= v <= 1.0:
        raise DomainError("target amplitude must lie in [0, 1]")
    return math.asin(v)


def pulse_for_design(design: ControlDesign, omega: float) -> HarmonicPulse:
    """Harmonic pulse whose quarter-period action hits the design target.

    The first action maximum of a harmonic envelope is chi/omega at the
    quarter period, so chi = |A(t0)| * omega.
    """
    return HarmonicPulse(chi=abs(design.action_area) * omega, omega=omega)


def designs_to_csv(designs: list[ControlDesign]) -> str:
    """Tabulate three-state designs: (n1, n2), their odd pair, A(t0) and alpha.

    Action and alpha are printed at 3 decimals, matching the precision
    the design tables are usually quoted at.
    """
    rows = ["n1n2,n1,n2,ne,no,noprime,A_t0,alpha\n"]
    for d in designs:
        n_o, n_o_prime = _odd_pair(d.n1, d.n2)
        rows.append(f"{d.n1 * d.n2},{d.n1},{d.n2},{n_o + n_o_prime},{n_o},"
                    f"{n_o_prime},{d.action_area:.3f},{d.alpha:.3f}\n")
    return "".join(rows)
