import math

import numpy as np
import pytest
from oracles import w_full_nstate
from scipy.linalg import expm

from degenpop.analytic import amplitudes_many
from degenpop.control import (design_3state, design_nstate, enumerate_designs,
                              max_transfer_bound_2state, target_2state)
from degenpop.coupling import standard_2state
from degenpop.dressed import decompose_general
from degenpop.errors import DomainError
from degenpop.pulses import HarmonicPulse


def transferred(w, action):
    """P2 after propagating state 1 to the given action with expm."""
    return abs(expm(-1j * action * w)[1, 0]) ** 2


@pytest.mark.parametrize("sign", [1, -1])
def test_three_state_designs_reach_full_transfer(sign):
    designs = enumerate_designs(200)
    assert len(designs) > 20
    for d in designs:
        d = design_3state(d.n1, d.n2, sign)
        w = np.array([[0.0, d.alpha, d.beta], [d.alpha, 0.0, 1.0], [d.beta, 1.0, 0.0]])
        assert abs(transferred(w, d.action_area) - 1.0) < 1e-12, (d.n1, d.n2, sign)


@pytest.mark.parametrize("n", range(3, 13))
@pytest.mark.parametrize("n0", [1, 3, 5, 7, -1, -3])
def test_nstate_designs_reach_full_transfer(n, n0):
    d = design_nstate(n, n0)
    assert (d.action_area < 0) == (n0 < 0)
    assert abs(transferred(w_full_nstate(n, d.alpha), d.action_area) - 1.0) < 1e-12


def test_nstate_design_at_three_states():
    d = design_nstate(3, 1)
    assert d.alpha == 0.0 and not math.copysign(1.0, d.alpha) < 0
    assert d.action_area == pytest.approx(math.pi / math.sqrt(2.0), abs=1e-15)


@pytest.mark.parametrize("v", [0.0, 0.3, 1.0 / math.sqrt(2.0), 1.0])
def test_target_2state_reaches_the_population(v):
    basis = decompose_general(standard_2state(0.0, 0.0, HarmonicPulse(1.0, 1.0)))
    p2 = abs(amplitudes_many(basis, [target_2state(v)])[0, 1]) ** 2
    assert abs(p2 - v * v) <= 1e-14


@pytest.mark.parametrize("v", [-0.1, 1.5, math.nan, math.inf])
def test_target_2state_rejects_amplitudes_outside_the_unit_interval(v):
    with pytest.raises(DomainError):
        target_2state(v)


@pytest.mark.parametrize("eps1, eps2", [(0.0, 0.5), (0.3, -0.4), (1.0, 3.0), (-2.0, 2.0)])
def test_two_state_bound_is_reached_and_never_exceeded(eps1, eps2):
    bound = max_transfer_bound_2state(eps1, eps2)
    d = 0.5 * (eps2 - eps1)
    h = math.sqrt(1.0 + d * d)
    basis = decompose_general(standard_2state(eps1, eps2, HarmonicPulse(1.0, 1.0)))
    peak = abs(amplitudes_many(basis, [0.5 * math.pi / h])[0, 1]) ** 2
    assert abs(peak - 1.0 / (1.0 + d * d)) <= 1e-12
    assert abs(bound - peak) <= 1e-12
    dense = np.abs(amplitudes_many(basis, np.linspace(0.0, 4.0 * math.pi, 20001))[:, 1]) ** 2
    assert dense.max() <= bound + 1e-12
