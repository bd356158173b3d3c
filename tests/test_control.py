import bisect
import math

import numpy as np
import pytest
from oracles import enumerate_designs_by_trial, max_transfer_bound_2state, w_full_nstate
from scipy.linalg import expm

from degenpop import control
from degenpop.analytic import amplitudes_many
from degenpop.control import (_odd_pair, design_3state, design_nstate, enumerate_designs,
                              target_2state)
from degenpop.coupling import standard_2state
from degenpop.dressed import decompose_general
from degenpop.errors import DimensionTooSmall, DomainError, InvalidQuantumNumbers
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


@pytest.mark.parametrize("n1, n2, sign, match", [
    (1, 5, 0, "sign"), (1, 5, 2, "sign"), (1, 5, None, "sign"),
    (2, 5, 1, "odd"), (1, 4, 1, "odd"), (-1, 5, 1, "odd"), (-5, -1, 1, "odd"),
    (1, 3, 1, "no odd decomposition"), (3, 5, 1, "no odd decomposition"),
], ids=["sign-0", "sign-2", "sign-none", "n1-even", "n2-even", "n1-negative",
        "both-negative", "1-3", "3-5"])
def test_design_3state_rejects_invalid_quantum_numbers(n1, n2, sign, match):
    with pytest.raises(InvalidQuantumNumbers, match=match):
        design_3state(n1, n2, sign)


@pytest.mark.parametrize("n1, n2, name", [
    (1.0, 5, "n1"), (1, 5.0, "n2"), ("1", 5, "n1"), (2 ** 53 + 2, 2 ** 53 + 2, "n1"),
    (2 ** 53 + 1, 2 ** 53 + 1, "n1"), (1, 10 ** 400 + 3, "n2"),
], ids=["n1-float", "n2-float", "n1-str", "2**53+2", "2**53+1", "n2-1e400"])
def test_design_3state_rejects_a_non_integer_or_huge_quantum_number(n1, n2, name):
    with pytest.raises(DomainError, match=f"^{name} must be"):
        design_3state(n1, n2)


def test_design_3state_accepts_quantum_numbers_up_to_2_to_the_53():
    n = 2 ** 53 - 5  # odd, and 3 divides 2n - n
    d = design_3state(n, n)
    assert (d.n1, d.n2, d.alpha) == (n, n, 0.0)
    assert d.action_area == math.sqrt(n * n / 2.0) * math.pi / 3.0


@pytest.mark.parametrize("n, n0, error", [
    (4, 2, InvalidQuantumNumbers), (4, 0, InvalidQuantumNumbers),
    (4, -2, InvalidQuantumNumbers), (2, 1, DimensionTooSmall),
    (4.5, 1, DomainError), (4.0, 1, DomainError), (4, 1.0, DomainError),
    (2 ** 53 + 1, 1, DomainError), (4, -(2 ** 53) - 1, DomainError),
], ids=["n0-even", "n0-zero", "n0-negative-even", "n-2", "n-4.5", "n-4.0",
        "n0-float", "n-2**53+1", "n0-below-minus-2**53"])
def test_design_nstate_rejects_invalid_arguments(n, n0, error):
    with pytest.raises(error):
        design_nstate(n, n0)


def test_design_nstate_accepts_integers_up_to_2_to_the_53():
    assert design_nstate(2 ** 53, -(2 ** 53) + 1).action_area < 0


@pytest.mark.parametrize("to_int", [np.int64, np.int32, np.uint16],
                         ids=["int64", "int32", "uint16"])
def test_numpy_integers_give_the_same_design_as_ints(to_int):
    for n1, n2 in [(1, 5), (5, 1), (3, 9), (29, 1)]:
        d = design_3state(to_int(n1), to_int(n2))
        assert d == design_3state(n1, n2)
        assert type(d.n1) is int and type(d.n2) is int
    for n, n0 in [(3, 1), (4, 3), (12, 7)]:
        assert design_nstate(to_int(n), to_int(n0)) == design_nstate(n, n0)


def test_every_integer_decomposition_of_odd_numbers_is_odd():
    for n1 in range(1, 301, 2):
        for n2 in range(1, 301, 2):
            if (2 * n1 - n2) % 3 == 0:
                n_o, n_o_prime = _odd_pair(n1, n2)
                assert n_o % 2 == n_o_prime % 2 == 1
                assert (2 * n_o + n_o_prime, n_o + 2 * n_o_prime) == (n1, n2)
            else:
                with pytest.raises(InvalidQuantumNumbers):
                    _odd_pair(n1, n2)


def test_enumerate_designs_is_the_trial_loop_at_every_product_up_to_2000():
    trial = enumerate_designs_by_trial(2000)
    assert enumerate_designs(2000) == trial
    # sorted by product, the trial loop at P is the prefix of products <= P
    pairs = [(d.n1, d.n2) for d in trial]
    products = [d.n1 * d.n2 for d in trial]
    for p in range(-2, 2001):
        got = [(d.n1, d.n2) for d in enumerate_designs(p)]
        assert got == pairs[:bisect.bisect_right(products, p)], p
    for p in (-1, 0, 4, 5, 9, 10, 30, 299):
        assert enumerate_designs(p) == enumerate_designs_by_trial(p)


@pytest.mark.parametrize("max_product", [5, 30, 200, 2000])
def test_enumerate_designs_calls_design_3state_only_on_valid_pairs(monkeypatch, max_product):
    calls = []

    def spy(n1, n2, sign=1):
        calls.append((n1, n2))
        return design_3state(n1, n2, sign)

    monkeypatch.setattr(control, "design_3state", spy)
    designs = enumerate_designs(max_product)
    assert len(calls) == len(designs) > 0
