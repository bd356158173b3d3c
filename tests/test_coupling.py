import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import two_branch_structure_check

from degenpop.coupling import (CouplingModel, standard_2state, standard_3state,
                               symmetric_nstate)
from degenpop.errors import DimensionTooSmall
from degenpop.pulses import (DeltaKickPulse, HarmonicPulse, RectKickPulse,
                             SampledPulse, pulse_from_dict)

PULSE = HarmonicPulse(chi=1.0, omega=1.0)


def test_standard_2state_matrix():
    m = standard_2state(0.0, 0.0, PULSE)
    assert np.array_equal(m.r, [[0.0, 1.0], [1.0, 0.0]])


def test_standard_2state_equal_diagonals():
    m = standard_2state(1.0, 1.0, PULSE)
    assert np.array_equal(m.r, [[1.0, 1.0], [1.0, 1.0]])


def test_standard_2state_mixed():
    m = standard_2state(0.0, 2.0, PULSE)
    assert np.array_equal(m.r, [[0.0, 1.0], [1.0, 2.0]])
    assert np.array_equal(m.eps, [0.0, 2.0])


def test_standard_3state_no_direct_12_coupling():
    m = standard_3state(0.0, 1.0, [0.0, 0.0, 0.0], PULSE)
    assert np.array_equal(m.r, [[0, 0, 1], [0, 0, 1], [1, 1, 0]])


def test_standard_3state_alpha_entry():
    m = standard_3state(-2.530, 1.0, [0.0, 0.0, 0.0], PULSE)
    assert m.r[0, 1] == -2.530
    assert m.r[1, 0] == -2.530
    assert np.allclose(m.r, m.r.T, atol=0)


def test_standard_3state_decoupled_first_state():
    m = standard_3state(0.0, 0.0, [0.0, 0.0, 0.0], PULSE)
    assert np.array_equal(m.r[0], [0.0, 0.0, 0.0])


def test_symmetric_nstate_three_matches_standard():
    a = symmetric_nstate(3, 0.7, 0.2, PULSE)
    b = standard_3state(0.7, 1.0, [0.2, 0.2, 0.2], PULSE)
    assert np.array_equal(a.r, b.r)
    assert a.reduced_multiplicity is None


def test_symmetric_nstate_four_rows():
    m = symmetric_nstate(4, -1.0 / 3.0, 0.0, PULSE)
    assert m.reduced_multiplicity == 2
    assert m.r[0, 2] == 2.0
    assert m.r[1, 2] == 2.0
    assert abs(m.r[2, 2] - 0.5) < 1e-15
    assert np.array_equal(m.r[2, :2], [1.0, 1.0])


def test_symmetric_nstate_accepts_large_self_coupling():
    # eps + (n-3)/(n-2) rounds at the scale of eps, not at 1e-12
    m = symmetric_nstate(5, 0.0, 1e5, PULSE)
    assert m.r[2, 2] == 1e5 + 2.0 / 3.0


def test_symmetric_nstate_rejects_small_n():
    with pytest.raises(DimensionTooSmall):
        symmetric_nstate(2, 0.0, 0.0, PULSE)


def test_symmetric_nstate_takes_any_integer_type():
    a = symmetric_nstate(np.int64(6), -1.0, 0.2, PULSE)
    b = symmetric_nstate(6, -1.0, 0.2, PULSE)
    assert type(a.reduced_multiplicity) is int
    assert a.reduced_multiplicity == b.reduced_multiplicity == 4
    assert np.array_equal(a.r, b.r)
    json.dumps(a.to_dict())  # a NumPy integer would not serialize
    m = CouplingModel(3, b.r, b.eps, np.zeros(3), PULSE, reduced_multiplicity=np.uint8(4))
    assert type(m.reduced_multiplicity) is int


@pytest.mark.parametrize("n", [6.0, 2 ** 53 + 1, 10 ** 400], ids=["float", "2**53+1", "1e400"])
def test_symmetric_nstate_rejects_non_integer_or_unrepresentable_n(n):
    with pytest.raises(ValueError, match="n must be"):
        symmetric_nstate(n, 0.0, 0.0, PULSE)


def test_closure_weights():
    assert np.array_equal(standard_2state(0, 0, PULSE).closure_weights, [1, 1])
    assert np.array_equal(symmetric_nstate(5, 0, 0, PULSE).closure_weights,
                          [1, 1, 3])


def test_weights_and_symmetric_form_are_stored_read_only():
    m = symmetric_nstate(6, -1.0, 0.2, PULSE)
    s = m.symmetrized()
    assert s is m.symmetrized()
    assert np.array_equal(m.closure_weights, [1, 1, 4])
    # the manifold couplings 4 and 1 meet at sqrt(4) = 2
    assert np.allclose(s, [[0.2, -1.0, 2.0], [-1.0, 0.2, 2.0], [2.0, 2.0, 0.95]],
                       atol=1e-15, rtol=0)
    for a in (s, m.closure_weights):
        with pytest.raises(ValueError):
            a[0] = 5.0


def test_overflowing_weighted_form_rejected():
    # m * r[2, 2] overflows to inf, so diag(w) r cannot be checked
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
        symmetric_nstate(4, 0.0, 1e308, PULSE)


def same_verdict(n, r, eps, m, entry, k):
    """Perturb one entry of r by k * 1e-12, then compare CouplingModel's
    verdict with the two-branch oracle's."""
    r = np.array(r)
    i, j = entry[0] % n, entry[1] % n
    r[i, j] += k * 1e-12
    try:
        two_branch_structure_check(n, r, eps, m)
        expected = True
    except ValueError:
        expected = False
    try:
        CouplingModel(n, r, eps, np.zeros(n), PULSE, reduced_multiplicity=m)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == expected
    assert accepted or k != 0


ENTRY = st.tuples(st.integers(0, 5), st.integers(0, 5))
SHIFT = st.sampled_from([0.0, 0.5, 2.0, -0.5, -2.0])


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1), entry=ENTRY, k=SHIFT)
def test_rule_matches_two_branch_check_on_plain_models(n, seed, entry, k):
    a = np.random.default_rng(seed).uniform(-2.0, 2.0, (n, n))
    r = 0.5 * (a + a.T)
    same_verdict(n, r, np.diag(r).copy(), None, entry, k)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(4, 12), alpha=st.floats(-3.0, 3.0), eps=st.floats(-1e5, 1e5),
       entry=ENTRY, k=SHIFT)
def test_rule_matches_two_branch_check_on_reduced_models(n, alpha, eps, entry, k):
    model = symmetric_nstate(n, alpha, eps, PULSE)
    same_verdict(3, model.r, model.eps, n - 2, entry, k)


def test_asymmetric_r_rejected_without_multiplicity():
    r = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        CouplingModel(2, r, np.zeros(2), np.zeros(2), PULSE)


def test_diagonal_must_match_eps():
    r = np.array([[0.5, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        CouplingModel(2, r, np.zeros(2), np.zeros(2), PULSE)


def test_model_needs_at_least_one_state():
    with pytest.raises(ValueError, match="n >= 1"):
        CouplingModel(0, np.zeros((0, 0)), np.zeros(0), np.zeros(0), PULSE)


def test_arrays_are_frozen():
    m = standard_2state(0.0, 0.0, PULSE)
    with pytest.raises(ValueError):
        m.r[0, 0] = 5.0


def test_with_energies_keeps_structure():
    m = standard_2state(0.0, 0.0, PULSE).with_energies([0.0, 0.3])
    assert np.array_equal(m.energies, [0.0, 0.3])
    assert np.array_equal(m.r, [[0.0, 1.0], [1.0, 0.0]])


def roundtrip(m):
    return CouplingModel.from_dict(json.loads(json.dumps(m.to_dict())))


def test_json_roundtrip_plain():
    m = standard_3state(0.5, -1.0, [0.1, 0.2, 0.3], PULSE).with_energies(
        [0.0, 0.01, 0.02])
    back = roundtrip(m)
    assert back.n == 3
    assert np.allclose(back.r, m.r, atol=0)
    assert np.allclose(back.energies, m.energies, atol=0)
    assert back.pulse == m.pulse


def test_json_roundtrip_reduced():
    m = symmetric_nstate(6, -1.0, 0.0, PULSE)
    back = roundtrip(m)
    assert back.reduced_multiplicity == 4
    assert np.allclose(back.r, m.r, atol=0)


def test_pulse_dict_roundtrip_all_kinds():
    pulses = [
        HarmonicPulse(2.0, 0.5),
        DeltaKickPulse(1.1, 3.0),
        RectKickPulse(1.1, 3.0, 0.2),
        SampledPulse(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0])),
    ]
    for p in pulses:
        q = pulse_from_dict(p.to_dict())
        assert type(q) is type(p)
        if isinstance(p, SampledPulse):
            assert np.array_equal(q.times, p.times)
            assert np.array_equal(q.values_, p.values_)
        else:
            assert q == p
