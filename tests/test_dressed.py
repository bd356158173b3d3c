import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (cubic_coefficients_3state, decompose_2state,
                     decompose_3state, decompose_symmetric_nstate,
                     left_residual, solve_cubic, w_full_nstate)
from scipy.linalg import expm

from degenpop.analytic import amplitudes_many
from degenpop.coupling import (CouplingModel, standard_2state, standard_3state,
                               symmetric_nstate)
from degenpop.dressed import decompose_general, eigen_residual
from degenpop.errors import DegenerateSpectrum, DimensionTooSmall, FirstComponentZero
from degenpop.pulses import HarmonicPulse

PULSE = HarmonicPulse(chi=1.0, omega=1.0)
SQRT2 = math.sqrt(2.0)


def w_3state(alpha, beta, eps):
    return standard_3state(alpha, beta, eps, PULSE).r


def plain_model(w):
    n = w.shape[0]
    return CouplingModel(n, w, np.diag(w), np.zeros(n), PULSE)


def expm_column(w, actions):
    """First column of ``exp(-i A w)`` for every action; rows index A."""
    return np.array([expm(-1j * a * w)[:, 0] for a in actions])


def assert_matches_general(oracle, model, atol):
    """The oracle's eigenvalues and phase weights are the general basis's."""
    z, _, m_inv = oracle
    g = decompose_general(model)
    assert np.allclose(z, g.z, atol=atol)
    assert np.allclose(m_inv, g.m_inv, atol=atol)


def test_2state_symmetric_case():
    z, rows, _ = decompose_2state(0.0, 0.0)
    assert np.allclose(rows[:, 1], [1.0, -1.0], atol=1e-15)
    assert np.allclose(z, [1.0, -1.0], atol=1e-15)
    # magnitude 2; the sign follows the descending-eigenvalue row order
    det = rows[0, 0] * rows[1, 1] - rows[0, 1] * rows[1, 0]
    assert abs(abs(det) - 2.0) < 1e-15
    assert det == -2.0


def test_2state_equal_eps_shifts_spectrum():
    for eps in (-1.3, 0.0, 0.8):
        z, _, _ = decompose_2state(eps, eps)
        assert np.allclose(z, [eps + 1.0, eps - 1.0], atol=1e-14)


def test_2state_split_diagonals():
    z, rows, _ = decompose_2state(0.0, 2.0)
    assert np.allclose(rows[:, 1], [1.0 + SQRT2, 1.0 - SQRT2], atol=1e-14)
    assert np.allclose(z, [1.0 + SQRT2, 1.0 - SQRT2], atol=1e-14)


def test_2state_eigen_relation_and_inverse():
    for e1, e2 in [(0.0, 0.0), (0.3, -0.4), (2.0, 1.0)]:
        z, rows, m_inv = decompose_2state(e1, e2)
        w = standard_2state(e1, e2, PULSE).r
        assert left_residual(z, rows, w) < 1e-12
        assert np.allclose(rows @ m_inv, np.eye(2), atol=1e-12)


def test_3state_symmetric_manifold_point():
    z, rows, _ = decompose_3state(0.0, 1.0, [0.0, 0.0, 0.0])
    assert np.allclose(sorted(rows[:, 1]), [-1.0, 1.0, 1.0], atol=1e-9)
    assert np.allclose(z, [SQRT2, 0.0, -SQRT2], atol=1e-9)
    assert np.allclose(sorted(rows[:, 2]), [-SQRT2, 0.0, SQRT2], atol=1e-9)


def test_3state_cubic_coefficients_manifold_point():
    # alpha=0, beta=1, eps=0 collapses to -(x-1)^2 (x+1)
    coeffs = cubic_coefficients_3state(0.0, 1.0, np.zeros(3))
    assert coeffs == (-1.0, 1.0, 1.0, -1.0)
    roots = solve_cubic(*coeffs)
    assert np.allclose(sorted(roots), [-1.0, 1.0, 1.0], atol=1e-12)


def test_3state_roots_satisfy_cubic():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 40:
        alpha, beta = rng.uniform(-5, 5, 2)
        eps = rng.uniform(-2, 2, 3)
        try:
            _, rows, _ = decompose_3state(alpha, beta, eps)
        except (DegenerateSpectrum, FirstComponentZero):
            continue
        c3, c2, c1, c0 = cubic_coefficients_3state(alpha, beta, eps)
        scale = max(abs(c3), abs(c2), abs(c1), abs(c0))
        for x in rows[:, 1]:
            res = ((c3 * x + c2) * x + c1) * x + c0
            assert abs(res) <= 1e-9 * scale
        checked += 1


def test_3state_matches_general_path():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 100:
        alpha, beta = rng.uniform(-5, 5, 2)
        eps = rng.uniform(-2, 2, 3)
        try:
            direct = decompose_3state(alpha, beta, eps)
        except (DegenerateSpectrum, FirstComponentZero):
            continue
        assert_matches_general(direct, standard_3state(alpha, beta, eps, PULSE), 1e-9)
        checked += 1


def test_3state_eigen_residual_random():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 30:
        alpha, beta = rng.uniform(-5, 5, 2)
        eps = rng.uniform(-2, 2, 3)
        try:
            z, rows, m_inv = decompose_3state(alpha, beta, eps)
        except (DegenerateSpectrum, FirstComponentZero):
            continue
        assert left_residual(z, rows, w_3state(alpha, beta, eps)) <= 1e-9
        assert np.max(np.abs(rows @ m_inv - np.eye(3))) <= 1e-10
        checked += 1


def test_3state_large_alpha_dominant_pair():
    # with beta=0 and alpha large the top eigenvalue pair approaches +/- alpha
    alpha = 50.0
    z, _, _ = decompose_3state(alpha, 0.0, [0.0, 0.0, 0.0])
    g = decompose_general(standard_3state(alpha, 0.0, np.zeros(3), PULSE))
    assert np.allclose(z, g.z, atol=1e-9)
    assert abs(z[0] - alpha) < 0.02 * alpha
    assert abs(z[2] + alpha) < 0.02 * alpha
    assert abs(z[1]) < 1.0


def test_3state_degenerate_pair_rejected():
    with pytest.raises(DegenerateSpectrum):
        decompose_3state(1.0, 1.0, [0.0, 0.0, 0.0])


def test_3state_unreachable_first_component():
    # alpha=beta=0 decouples state 1; the oscillating pair has x1=0
    with pytest.raises(FirstComponentZero):
        decompose_3state(0.0, 0.0, [0.0, 0.0, 0.0])


def test_symmetric_nstate_three():
    z, rows, _ = decompose_symmetric_nstate(3, 0.0, 0.0)
    assert np.allclose(z, [SQRT2, 0.0, -SQRT2], atol=1e-12)
    assert np.allclose(rows[:, 1], [1.0, -1.0, 1.0], atol=1e-12)
    assert np.allclose(rows[:, 2], [SQRT2, 0.0, -SQRT2], atol=1e-12)


def test_symmetric_nstate_four():
    z, rows, _ = decompose_symmetric_nstate(4, -1.0 / 3.0, 0.0)
    ys = sorted(rows[:, 2])
    assert abs(ys[0] - (-1.62627511)) < 1e-8
    assert abs(ys[1]) < 1e-12
    assert abs(ys[2] - 2.45960845) < 1e-8
    assert abs(z[1] - 1.0 / 3.0) < 1e-12  # the x=-1 branch sits at eps-alpha


def test_symmetric_nstate_root_product_closure():
    # the two manifold branches satisfy y+ y- = -2 (n-2)
    for n in (3, 4, 5, 10, 64):
        for alpha in (0.0, -(n - 3) / 3.0, 0.7):
            _, rows, _ = decompose_symmetric_nstate(n, alpha, 0.0)
            ys = [y for y in rows[:, 2] if abs(y) > 1e-12]
            assert len(ys) == 2
            assert abs(ys[0] * ys[1] + 2.0 * (n - 2)) < 1e-9 * n


def test_symmetric_nstate_matches_matrix_oracle():
    # left eigenpairs computed directly with numpy on the reduced matrix
    for n in (4, 5, 10):
        for alpha in (0.0, -(n - 3) / 3.0, 0.7):
            model = symmetric_nstate(n, alpha, 0.1, PULSE)
            zs, vecs = np.linalg.eig(model.r.T)
            assert np.max(np.abs(zs.imag)) < 1e-12
            z, rows, _ = decompose_symmetric_nstate(n, alpha, 0.1)
            assert np.allclose(np.sort(z), np.sort(zs.real), atol=1e-10)
            assert left_residual(z, rows, model.r) < 1e-9


def test_symmetric_nstate_matches_general_path():
    for n in (3, 4, 5, 10):
        for alpha in (0.0, -(n - 3) / 3.0, 0.7, -2.0 / 3.0):
            assert_matches_general(decompose_symmetric_nstate(n, alpha, 0.1),
                                   symmetric_nstate(n, alpha, 0.1, PULSE), 1e-10)


def test_symmetric_nstate_large_n_two_state_structure():
    # the manifold branches form a symmetric +/- pair that dwarfs the third
    z, _, _ = decompose_symmetric_nstate(10 ** 6, 0.0, 0.0)
    big = math.sqrt(2.0 * (10 ** 6 - 2))
    assert abs(z[0] - big) / big < 1e-3
    assert abs(z[2] + big) / big < 1e-3
    assert abs(z[1]) < 1e-9
    assert abs(z[0] + z[2]) / big < 1e-3


def test_symmetric_nstate_rejects_small_n():
    with pytest.raises(DimensionTooSmall):
        decompose_symmetric_nstate(2, 0.0, 0.0)


def test_general_matches_2state():
    for e1, e2 in [(0.0, 0.0), (0.3, -0.4), (2.0, 1.0)]:
        assert_matches_general(decompose_2state(e1, e2),
                               standard_2state(e1, e2, PULSE), 1e-10)


def test_general_table_row_model():
    model = standard_3state(-2.530, 1.0, np.zeros(3), PULSE)
    b = decompose_general(model)
    assert len(set(np.round(b.z, 6))) == 3
    assert np.max(np.abs(b.q.T @ b.q - np.eye(3))) <= 1e-10
    assert eigen_residual(b, model.r) <= 1e-12
    # the left eigenrows scaled to leading component 1 solve the cubic
    rows = b.q.T / b.q[0][:, None]
    c3, c2, c1, c0 = cubic_coefficients_3state(-2.530, 1.0, np.zeros(3))
    scale = max(abs(c3), abs(c2), abs(c1), abs(c0))
    for x in rows[:, 1]:
        assert abs(((c3 * x + c2) * x + c1) * x + c0) <= 1e-10 * scale
    assert_matches_general(decompose_3state(-2.530, 1.0, np.zeros(3)), model, 1e-9)


def test_first_column_always_ones():
    cases = [
        decompose_2state(0.2, -0.1),
        decompose_3state(0.5, 1.2, [0.1, 0.0, -0.3]),
        decompose_symmetric_nstate(7, 0.4, 0.0),
    ]
    for z, rows, _ in cases:
        assert np.array_equal(rows[:, 0], np.ones(rows.shape[0]))
        assert np.all(np.diff(z) < 0)


def test_solve_cubic_simple_roots():
    roots = solve_cubic(1.0, -6.0, 11.0, -6.0)
    assert np.allclose(roots, [1.0, 2.0, 3.0], atol=1e-12)


def test_solve_cubic_single_real_root():
    roots = solve_cubic(1.0, 0.0, 1.0, -2.0)  # x^3 + x - 2 = (x-1)(x^2+x+2)
    assert len(roots) == 1
    assert abs(roots[0] - 1.0) < 1e-12


def test_solve_cubic_quadratic_fallback():
    roots = solve_cubic(0.0, 1.0, -3.0, 2.0)
    assert np.allclose(roots, [1.0, 2.0], atol=1e-12)


def test_solve_cubic_quadratic_double_root():
    assert solve_cubic(0.0, 1.0, -4.0, 4.0) == (2.0, 2.0)
    roots = solve_cubic(0.0, *np.poly([0.1, 0.1]))
    assert len(roots) == 2
    assert np.allclose(roots, [0.1, 0.1], atol=1e-12)


@pytest.mark.parametrize("true_roots", [(1.0, 2.0, 2.0), (-3.0, -3.0, 0.5),
                                        (2.5, 2.5, 2.5)])
def test_solve_cubic_repeated_roots_with_multiplicity(true_roots):
    roots = solve_cubic(*np.poly(true_roots))
    assert len(roots) == 3
    assert np.allclose(roots, true_roots, rtol=0.0, atol=1e-12)


def test_solve_cubic_linear_fallback():
    roots = solve_cubic(0.0, 0.0, 2.0, -4.0)
    assert roots == (2.0,)


def test_solve_cubic_random_against_numpy():
    rng = np.random.default_rng(3)
    for _ in range(50):
        c = rng.uniform(-3, 3, 4)
        if abs(c[0]) < 1e-3:
            continue
        mine = solve_cubic(*c)
        ref = np.roots(c)
        real_ref = sorted(r.real for r in ref if abs(r.imag) < 1e-9)
        assert len(mine) == len(real_ref)
        if real_ref:
            assert np.allclose(mine, real_ref, atol=1e-7)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1),
       actions=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=6))
def test_general_propagation_matches_expm_for_random_symmetric_r(n, seed, actions):
    a = np.random.default_rng(seed).uniform(-2.0, 2.0, (n, n))
    w = 0.5 * (a + a.T)
    amps = amplitudes_many(decompose_general(plain_model(w)), actions)
    assert np.max(np.abs(amps - expm_column(w, actions))) <= 1e-12
    assert np.max(np.abs(np.sum(np.abs(amps) ** 2, axis=1) - 1.0)) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 9), alpha=st.floats(-3.0, 3.0), eps=st.floats(-1.0, 1.0),
       actions=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=6))
def test_full_nstate_matches_reduced_model(n, alpha, eps, actions):
    full = amplitudes_many(decompose_general(plain_model(w_full_nstate(n, alpha, eps))),
                           actions)
    reduced = amplitudes_many(
        decompose_general(symmetric_nstate(n, alpha, eps, PULSE)), actions)
    p_full, p_red = np.abs(full) ** 2, np.abs(reduced) ** 2
    assert np.max(np.abs(p_full[:, :2] - p_red[:, :2])) <= 1e-12
    manifold = np.sum(p_full[:, 2:], axis=1)
    assert np.max(np.abs(manifold - (n - 2) * p_red[:, 2])) <= 1e-12


@pytest.mark.parametrize("w", [
    w_3state(0.0, 0.0, np.zeros(3)),  # state 1 decoupled: zero leading components
    w_3state(1.0, 1.0, np.zeros(3)),  # repeated eigenvalue -1
    w_full_nstate(5, 0.3),            # repeated manifold eigenvalues
], ids=["zero_lead", "repeated_z", "full_5state"])
def test_models_without_leading_one_rows_propagate_exactly(w):
    basis = decompose_general(plain_model(w))
    actions = np.linspace(0.0, 6.0, 25)
    amps = amplitudes_many(basis, actions)
    assert np.max(np.abs(amps - expm_column(w, actions))) <= 1e-12
    assert eigen_residual(basis, w) <= 1e-12


def test_general_basis_is_orthonormal_and_descending():
    for model in (standard_3state(0.4, 0.9, [0.0, 0.2, -0.1], PULSE),
                  symmetric_nstate(7, 0.4, 0.0, PULSE)):
        b = decompose_general(model)
        assert np.max(np.abs(b.q.T @ b.q - np.eye(b.n))) <= 1e-14
        assert np.all(np.diff(b.z) < 0)
        assert eigen_residual(b, model.r) <= 1e-13
        assert np.allclose(b.m_inv.sum(axis=1), np.eye(b.n)[0], atol=1e-15)
