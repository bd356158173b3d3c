"""Complete-transfer design rules and two-state targeting.

Transfer to state 2 is exact only at quantized combinations of the
accumulated action and the coupling-strength ratios.  For the three-state
model the allowed designs are indexed by a pair of odd integers
(n1, n2); for the reduced symmetric n-state model by a single odd
integer n0.  Both families fix beta = 1 and derive alpha and the target
action A(t0) from the integers.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

from .errors import DimensionTooSmall, DomainError, InvalidQuantumNumbers
from .pulses import HarmonicPulse

THREE_STATE = "three_state"
N_STATE_SYM = "n_state_sym"
TWO_STATE = "two_state"


@dataclass(frozen=True)
class ControlDesign:
    """One complete-transfer parameter set.

    Fields not applicable to a family are None: three-state designs
    carry (n1, n2) and the derived odd pair (n_o, n_o_prime) with even
    sum n_e; symmetric n-state designs carry (n, n0); two-state targets
    carry only the action.
    """

    family: str
    action_area: float
    alpha: float | None = None
    beta: float | None = None
    sign: int = 1
    n1: int | None = None
    n2: int | None = None
    n_o: int | None = None
    n_o_prime: int | None = None
    n_e: int | None = None
    n: int | None = None
    n0: int | None = None


def design_3state(n1: int, n2: int, sign: int = 1) -> ControlDesign:
    """Allowed three-state transfer design for odd quantum numbers.

    Valid pairs satisfy n1 = 2 n_o + n_o' and n2 = n_o + 2 n_o' for odd
    integers n_o, n_o'; equivalently (2 n1 - n2)/3 and (2 n2 - n1)/3 are
    odd integers.  Then

        A(t0) = sign * sqrt(n1 n2 / 2) * pi / 3
        alpha = sign * sqrt(2 / (n1 n2)) * (n1 - n2)

    and beta = 1.
    """
    if sign not in (1, -1):
        raise InvalidQuantumNumbers("sign must be +1 or -1")
    for v in (n1, n2):
        if not isinstance(v, int) or v < 1 or v % 2 == 0:
            raise InvalidQuantumNumbers("n1 and n2 must be positive odd integers")
    if (2 * n1 - n2) % 3 != 0:
        raise InvalidQuantumNumbers(f"({n1}, {n2}) admits no odd decomposition")
    n_o = (2 * n1 - n2) // 3
    n_o_prime = (2 * n2 - n1) // 3
    if n_o % 2 == 0 or n_o_prime % 2 == 0:
        raise InvalidQuantumNumbers(f"({n1}, {n2}) decomposes to even integers")
    area = sign * math.sqrt(n1 * n2 / 2.0) * math.pi / 3.0
    alpha = sign * math.sqrt(2.0 / (n1 * n2)) * (n1 - n2)
    return ControlDesign(
        family=THREE_STATE, action_area=area, alpha=alpha, beta=1.0,
        sign=sign, n1=n1, n2=n2, n_o=n_o, n_o_prime=n_o_prime,
        n_e=n_o + n_o_prime,
    )


def enumerate_designs(max_product: int) -> list[ControlDesign]:
    """All positive-branch three-state designs with n1*n2 <= max_product.

    Sorted by (n1*n2, n1).  Empty below the smallest product 5.
    """
    out = []
    for n1 in range(1, max_product + 1, 2):
        for n2 in range(1, max_product // n1 + 1, 2):
            try:
                out.append(design_3state(n1, n2, 1))
            except InvalidQuantumNumbers:
                continue
    out.sort(key=lambda d: (d.n1 * d.n2, d.n1))
    return out


def design_nstate(n: int, n0: int) -> ControlDesign:
    """Symmetric n-state transfer design for odd n0.

    With s = (n-3)/(n-2), the reduced spectrum reaches P2 = 1 when

        A(t0) = n0 * pi * sqrt(9 / (18 (n-2) + 4 s^2))
        alpha = -(n-3) / (3 (n-2)) = -s/3

    and beta = 1.  At n = 3 this is alpha = 0, A(t0) = n0 pi / sqrt(2).
    Raises DomainError for n or |n0| above 2**53.
    """
    if n < 3:
        raise DimensionTooSmall("need n >= 3")
    if not isinstance(n0, int) or n0 % 2 == 0:
        raise InvalidQuantumNumbers("n0 must be an odd integer")
    if n > 2 ** 53 or abs(n0) > 2 ** 53:
        raise DomainError("n and |n0| must be at most 2**53")
    m = n - 2
    s = (n - 3) / m
    area = n0 * math.pi * math.sqrt(9.0 / (18.0 * m + 4.0 * s * s))
    return ControlDesign(
        family=N_STATE_SYM, action_area=area, alpha=(3 - n) / (3.0 * m),
        beta=1.0, sign=1 if n0 > 0 else -1, n=n, n0=n0,
    )


def target_2state(v: float) -> float:
    """Action giving two-state transfer amplitude v (population v^2)."""
    if not 0.0 <= v <= 1.0:
        raise DomainError("target amplitude must lie in [0, 1]")
    return math.asin(v)


def two_state_design(v: float) -> ControlDesign:
    """Two-state design reaching transfer amplitude v at the action peak."""
    return ControlDesign(family=TWO_STATE, action_area=target_2state(v))


def max_transfer_bound_2state(eps1: float, eps2: float) -> float:
    """Ceiling on two-state transfer with unequal diagonal strengths."""
    d = 0.5 * (eps2 - eps1)
    return 1.0 / (1.0 + d * d)


def pulse_for_design(design: ControlDesign, omega: float) -> HarmonicPulse:
    """Harmonic pulse whose quarter-period action hits the design target.

    The first action maximum of a harmonic envelope is chi/omega at the
    quarter period, so chi = |A(t0)| * omega.
    """
    return HarmonicPulse(chi=abs(design.action_area) * omega, omega=omega)


def designs_to_csv(designs: list[ControlDesign]) -> str:
    """Tabulate three-state designs: quantum numbers plus (A(t0), alpha).

    Action and alpha are printed at 3 decimals, matching the precision
    the design tables are usually quoted at.
    """
    buf = io.StringIO()
    buf.write("n1n2,n1,n2,ne,no,noprime,A_t0,alpha\n")
    for d in designs:
        buf.write(f"{d.n1 * d.n2},{d.n1},{d.n2},{d.n_e},{d.n_o},"
                  f"{d.n_o_prime},{d.action_area:.3f},{d.alpha:.3f}\n")
    return buf.getvalue()
