import numpy as np
import pytest

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
    assert m.full_state_count == 4
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


def test_closure_weights():
    assert np.array_equal(standard_2state(0, 0, PULSE).closure_weights, [1, 1])
    assert np.array_equal(symmetric_nstate(5, 0, 0, PULSE).closure_weights,
                          [1, 1, 3])


def test_coupling_at_is_symmetric_for_plain_models():
    m = standard_3state(0.3, -0.4, [0.1, 0.0, -0.2], PULSE)
    for t in (0.0, 0.7, 2.0):
        inst = m.coupling_at(t)
        assert np.allclose(inst, inst.T, atol=0)
        assert np.allclose(inst, m.r * PULSE.value(t), atol=0)


def test_asymmetric_r_rejected_without_multiplicity():
    r = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        CouplingModel(2, r, np.zeros(2), np.zeros(2), PULSE)


def test_diagonal_must_match_eps():
    r = np.array([[0.5, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        CouplingModel(2, r, np.zeros(2), np.zeros(2), PULSE)


def test_arrays_are_frozen():
    m = standard_2state(0.0, 0.0, PULSE)
    with pytest.raises(ValueError):
        m.r[0, 0] = 5.0


def test_with_energies_keeps_structure():
    m = standard_2state(0.0, 0.0, PULSE).with_energies([0.0, 0.3])
    assert np.array_equal(m.energies, [0.0, 0.3])
    assert np.array_equal(m.r, [[0.0, 1.0], [1.0, 0.0]])


def test_json_roundtrip_plain():
    m = standard_3state(0.5, -1.0, [0.1, 0.2, 0.3], PULSE).with_energies(
        [0.0, 0.01, 0.02])
    back = CouplingModel.from_json(m.to_json())
    assert back.n == 3
    assert np.allclose(back.r, m.r, atol=0)
    assert np.allclose(back.energies, m.energies, atol=0)
    assert back.pulse == m.pulse


def test_json_roundtrip_reduced():
    m = symmetric_nstate(6, -1.0, 0.0, PULSE)
    back = CouplingModel.from_json(m.to_json())
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
