"""The paper's closed-form dressed states, kept as test oracles.

Each decomposition returns plain arrays ``(z, rows, m_inv)``: eigenvalues
in descending order, the left eigenrows of the strength matrix scaled to
leading component 1 (the paper's ``M``), and ``M^-1``.  That scaling
exists only for pairwise distinct eigenvalues and eigenrows with a
non-zero leading component, so these oracles raise
:class:`DegenerateSpectrum` or :class:`FirstComponentZero` outside that
regime; the production basis in ``degenpop.dressed`` does not need them.

:func:`w_full_nstate` builds the unreduced symmetric n-state matrix that
the reduced manifold model stands for.  :func:`probabilities_2state` and
:func:`probabilities_nstate_sym` are the closed-form populations of the
equal-diagonal two-state model and of the n-state star model, and
:func:`delta_kick_response` those of the two-state model under a quarter-cycle
delta kick.  :func:`flat_top_quartic` is the Taylor form of the harmonic
transfer dip that ``analytic.flatness_frequency`` inverts, and
:func:`max_transfer_bound_2state` the ceiling on two-state transfer with
unequal diagonal strengths.  Each is pinned to propagation by the package.
:func:`enumerate_designs_by_trial` finds the three-state designs by trying
every odd pair, the loop that ``control.enumerate_designs`` must match.
:func:`two_branch_structure_check` is the structure check
``CouplingModel`` made before it had one rule.
:func:`probabilities_at` gives the populations at one action and raises
where their closure sum misses 1, the check that ``Trajectory.closure_error``
reports instead.  :func:`probabilities_cosine_form` expands a population
into its double cosine sum, and :func:`trajectory_to_csv_rows` is the
row-at-a-time CSV serializer that ``analytic.trajectory_to_csv`` must match
byte for byte.  :func:`load_sampled_csv_by_rows` is the row-at-a-time
reader of a sampled envelope file that ``pulses.load_sampled_csv`` must
match bit for bit, and :func:`leakage_estimate` the order-of-magnitude
bound that the propagated off-resonant loss must stay below.
:func:`_propagators`, :func:`_horner` and :func:`_product` are the step
exponentials, their Horner sums and the ordered product with a new array
for every term, which ``numeric._propagators``, ``numeric._horner`` and
``dressed._product`` over a workspace must match bit for bit.
"""

from __future__ import annotations

import csv
import io
import math
import os

import numpy as np

from degenpop.analytic import amplitudes_many
from degenpop.control import design_3state
from degenpop.errors import (ConfigError, DegenerateSpectrum, DimensionTooSmall,
                             FirstComponentZero, InvalidQuantumNumbers)
from degenpop.numeric import _TAYLOR_TOL, _diagonal
from degenpop.pulses import SampledPulse

CLOSURE_TOL = 1e-9
_STRUCT_TOL = 1e-12
_DISTINCT_TOL = 1e-9
_SINGULAR_TOL = 1e-12
_FIRST_COMPONENT_TOL = 1e-12
_EPS = float(np.finfo(float).eps)
# rounding errors of a few ulps still count as a zero discriminant
_ROUNDING_ULPS = 8.0


def left_residual(z, rows, w) -> float:
    """Max entrywise residual of the left eigenrelations ``rows w = z rows``."""
    return float(np.max(np.abs(rows @ w - z[:, None] * rows)))


def w_full_nstate(n: int, alpha: float, eps: float = 0.0) -> np.ndarray:
    """Unreduced symmetric n-state strength matrix, self coupling eps.

    States 1 and 2 couple to each other with alpha and to every manifold
    state with 1; manifold states couple among themselves with 1/(n-2).
    """
    w = np.full((n, n), 1.0 / (n - 2))
    w[:2, :] = 1.0
    w[:, :2] = 1.0
    w[0, 1] = w[1, 0] = alpha
    np.fill_diagonal(w, eps)
    return w


def probabilities_2state(action) -> np.ndarray:
    """Equal-diagonal two-state populations at given action(s).

    With both diagonal strengths equal the populations are
    (cos^2 A, sin^2 A): the common diagonal is a global phase.
    """
    a = np.atleast_1d(np.asarray(action, dtype=float))
    p2 = np.sin(a) ** 2
    out = np.stack([1.0 - p2, p2], axis=-1)
    return out[0] if np.asarray(action).ndim == 0 else out


def probabilities_nstate_sym(n: int, theta) -> np.ndarray:
    """Populations of the n-state star model at phase angle theta = 2 sqrt(2 (n-2)) A.

    States 1 and 2 couple with strength 1 to each manifold state, to nothing else
    (not ``symmetric_nstate`` for n >= 4).  Columns (P1, P2, P3), P3 per manifold state:

        P1 = (3 + cos(theta) + 4 cos(theta/2)) / 8
        P2 = (3 + cos(theta) - 4 cos(theta/2)) / 8
        P3 = sin^2(theta/2) / (2 (n - 2))

    so that P1 + P2 + (n-2) P3 = 1 identically.
    """
    if n < 3:
        raise DimensionTooSmall("need n >= 3")
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    c, ch = np.cos(th), np.cos(0.5 * th)
    p1 = (3.0 + c + 4.0 * ch) / 8.0
    p2 = (3.0 + c - 4.0 * ch) / 8.0
    p3 = np.sin(0.5 * th) ** 2 / (2.0 * (n - 2))
    out = np.stack([p1, p2, p3], axis=-1)
    return out[0] if np.asarray(theta).ndim == 0 else out


def delta_kick_response(t, t0: float) -> np.ndarray:
    """Two-state populations under an instantaneous quarter-cycle kick.

    The kick carries action pi/2, so transfer is complete and immediate:
    (1, 0) before the kick time, (0, 1) from it on (right-continuous).
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    after = (t_arr >= t0).astype(float)
    out = np.stack([1.0 - after, after], axis=-1)
    return out[0] if np.asarray(t).ndim == 0 else out


def flat_top_quartic(omega: float, tau: float) -> float:
    """Quartic approximation to the transfer dip near a harmonic peak.

    At ``tau`` past the quarter period the exact transferred population is
    ``sin^2((pi/2) cos(omega tau))``; expanding in ``u = omega tau`` gives
    ``1 - (pi^2/16) u^4``, below the exact value by about pi^2 u^6/96.
    """
    u = omega * tau
    return 1.0 - (np.pi ** 2 / 16.0) * u ** 4


def max_transfer_bound_2state(eps1: float, eps2: float) -> float:
    """Ceiling on two-state transfer with unequal diagonal strengths."""
    d = 0.5 * (eps2 - eps1)
    return 1.0 / (1.0 + d * d)


def enumerate_designs_by_trial(max_product: int) -> list:
    """Three-state designs with n1*n2 <= max_product, found by trying
    ``design_3state`` on every odd pair and dropping the pairs it rejects.

    Sorted by (n1*n2, n1), as ``control.enumerate_designs`` must be.
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


def two_branch_structure_check(n: int, r: np.ndarray, eps: np.ndarray,
                               m: int | None) -> None:
    """Raise ValueError where the plain or the reduced form is broken.

    One branch per form, as ``CouplingModel`` checked them clause by clause.
    """
    if m is None:
        if not np.allclose(r, r.T, atol=_STRUCT_TOL, rtol=0):
            raise ValueError("r must be symmetric")
        if not np.allclose(np.diag(r), eps, atol=_STRUCT_TOL, rtol=0):
            raise ValueError("diagonal of r must equal eps")
    else:
        if n != 3:
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


def decompose_2state(eps1: float, eps2: float):
    """Closed-form dressed pair for the two-state model.

    With ``d = (eps2 - eps1)/2`` and ``h = sqrt(1 + d^2)`` the second
    components are ``d +/- h`` and the eigenvalues ``(eps1+eps2)/2 +/- h``.
    The spectrum is always split by at least 2, so this never degenerates.
    """
    d = 0.5 * (eps2 - eps1)
    h = math.sqrt(1.0 + d * d)
    mean = 0.5 * (eps1 + eps2)
    x_hi, x_lo = d + h, d - h
    rows = np.array([[1.0, x_hi], [1.0, x_lo]])
    z = np.array([mean + h, mean - h])
    det = x_lo - x_hi  # -2h with descending-eigenvalue ordering
    m_inv = np.array([[x_lo, -x_hi], [-1.0, 1.0]]) / det
    return z, rows, m_inv


def decompose_3state(alpha: float, beta: float, eps):
    """Dressed triple for the general symmetric three-state model.

    The second components solve a cubic whose coefficients are listed in
    :func:`cubic_coefficients_3state`; each third component follows from
    ``y = (alpha (x^2 - 1) + (eps1 - eps2) x) / (1 - beta x)`` except at
    ``beta x = 1`` (0/0), where the eigenvector itself supplies y.  The
    inverse is assembled by the 3x3 adjugate.
    """
    eps = np.asarray(eps, dtype=float)
    w = np.array([
        [eps[0], alpha, beta],
        [alpha, eps[1], 1.0],
        [beta, 1.0, eps[2]],
    ])
    z, rows = _left_eigenrows(w)
    coeffs = cubic_coefficients_3state(alpha, beta, eps)
    scale = max(abs(c) for c in coeffs)
    for i in range(3):
        x = rows[i, 1]
        if scale > 1e-12:
            x = _newton_polish(coeffs, x)
        denom = 1.0 - beta * x
        if abs(denom) > 1e-6 * (1.0 + abs(beta * x)):
            y = (alpha * (x * x - 1.0) + (eps[0] - eps[1]) * x) / denom
        else:
            y = rows[i, 2]  # eigenvector fallback at the 0/0 point
        z_alg = eps[0] + alpha * x + beta * y
        if abs(z_alg - z[i]) < 1e-8 * (1.0 + abs(z[i])):
            rows[i, 1], rows[i, 2] = x, y
            z[i] = z_alg
    return _assemble_3(rows, z)


def decompose_symmetric_nstate(n: int, alpha: float, eps: float):
    """Dressed triple for the reduced symmetric n-state model.

    The repeated-row structure forces second components {1, 1, -1}.  The
    two third components on the x = 1 branch are the roots of

        y^2 + (alpha - (n-3)/(n-2)) y - 2 (n-2) = 0,

    and the x = -1 row has y = 0.  Eigenvalues are ``eps + alpha + y`` on
    the first branch and ``eps - alpha`` on the second.  The root product
    ``y+ y- = -2(n-2)`` is what makes the multiplicity-weighted
    probability sum close to 1 along trajectories.
    """
    if n < 3:
        raise DimensionTooSmall("need n >= 3")
    m = n - 2
    s = (n - 3) / (n - 2)
    h = math.sqrt((s - alpha) ** 2 + 8.0 * m)
    y_hi = 0.5 * ((s - alpha) + h)
    y_lo = 0.5 * ((s - alpha) - h)
    rows = np.array([
        [1.0, 1.0, y_hi],
        [1.0, 1.0, y_lo],
        [1.0, -1.0, 0.0],
    ])
    z = np.array([eps + alpha + y_hi, eps + alpha + y_lo, eps - alpha])
    order = np.argsort(-z, kind="stable")
    return _assemble_3(rows[order], z[order])


def cubic_coefficients_3state(alpha: float, beta: float, eps) -> tuple[float, float, float, float]:
    """Coefficients (c3, c2, c1, c0) of the three-state second-component cubic."""
    e1, e2, e3 = float(eps[0]), float(eps[1]), float(eps[2])
    a, b = alpha, beta
    c3 = (a * a - b * b) + a * b * (e3 - e2)
    c2 = (b * (2.0 - a * a - b * b) + a * (2.0 * e1 - e2 - e3)
          + b * (e1 - e2) * (e3 - e2))
    c1 = ((2.0 * b * b - a * a - 1.0) + a * b * (2.0 * e2 - e1 - e3)
          + (e1 - e2) * (e1 - e3))
    c0 = b * (a * a - 1.0) - a * (e1 - e3)
    return c3, c2, c1, c0


def solve_cubic(c3: float, c2: float, c1: float, c0: float) -> tuple[float, ...]:
    """Real roots of ``c3 x^3 + c2 x^2 + c1 x + c0``, closed form.

    Returns the real roots sorted ascending and listed with multiplicity:
    a double root appears twice, a triple root three times.

    Trigonometric method for three real roots, Cardano with a signed cube
    root for one, and the repeated-root forms when the discriminant is zero
    to within the rounding of its own computation; degrades gracefully to
    the quadratic/linear cases when leading coefficients vanish.  Each simple
    root gets one Newton polish.
    """
    scale = max(abs(c3), abs(c2), abs(c1), abs(c0), 1.0)
    if abs(c3) <= 1e-14 * scale:
        if abs(c2) <= 1e-14 * scale:
            if abs(c1) <= 1e-14 * scale:
                return ()
            return (-c0 / c1,)
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc < 0.0:
            if -disc > _ROUNDING_ULPS * _EPS * (c1 * c1 + 4.0 * abs(c2 * c0)):
                return ()
            disc = 0.0  # a double root, pushed below zero by rounding
        sq = math.sqrt(disc)
        # numerically stable pair
        q = -0.5 * (c1 + math.copysign(sq, c1)) if c1 != 0 else -0.5 * sq
        roots = (q / c2, (c0 / q) if q != 0 else -c1 / (2.0 * c2))
        return tuple(sorted(_newton_polish((0.0, c2, c1, c0), r) for r in roots))
    coeffs = (c3, c2, c1, c0)
    b, c, d = c2 / c3, c1 / c3, c0 / c3
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    disc = 0.25 * q * q + p ** 3 / 27.0
    # first-order rounding bounds of p, q and disc as computed above
    p_err = _EPS * (abs(c) + b * b / 3.0)
    q_err = _EPS * (abs(2.0 * b ** 3 / 27.0) + abs(b * c / 3.0) + abs(d))
    disc_err = (0.5 * abs(q) * q_err + p * p / 9.0 * p_err
                + _EPS * max(0.25 * q * q, abs(p) ** 3 / 27.0))
    if abs(disc) <= _ROUNDING_ULPS * disc_err:
        # Newton is not used on the repeated root: the derivative vanishes
        # there, and a step can land on the simple root instead
        if p > -_ROUNDING_ULPS * p_err:  # p == 0 with disc == 0 forces q == 0
            return (shift,) * 3
        double = shift - 1.5 * q / p
        return tuple(sorted((_newton_polish(coeffs, shift + 3.0 * q / p), double, double)))
    if disc > 0.0:
        u = -0.5 * q + math.sqrt(disc)
        v = -0.5 * q - math.sqrt(disc)
        root = shift + math.copysign(abs(u) ** (1 / 3), u) + math.copysign(abs(v) ** (1 / 3), v)
        return (_newton_polish(coeffs, root),)
    rho = 2.0 * math.sqrt(-p / 3.0)
    arg = max(-1.0, min(1.0, 3.0 * q / (p * rho)))
    theta = math.acos(arg) / 3.0
    roots = [shift + rho * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)]
    return tuple(sorted(_newton_polish(coeffs, r) for r in roots))


def _newton_polish(coeffs: tuple[float, float, float, float], x: float,
                   steps: int = 2) -> float:
    c3, c2, c1, c0 = coeffs

    def val(t):
        return ((c3 * t + c2) * t + c1) * t + c0

    best, best_v = x, abs(val(x))
    for _ in range(steps):
        deriv = (3.0 * c3 * x + 2.0 * c2) * x + c1
        if deriv == 0.0:
            break
        x = x - val(x) / deriv
        if abs(val(x)) < best_v:
            best, best_v = x, abs(val(x))
    return best


def _left_eigenrows(w: np.ndarray):
    """Eigenvalues (descending) and left eigenrows of symmetric w, x1 = 1."""
    z, vecs = np.linalg.eigh(w)
    order = np.argsort(-z, kind="stable")
    z = z[order]
    vecs = vecs[:, order]
    gaps = np.abs(np.subtract.outer(z, z))[np.triu_indices(w.shape[0], 1)]
    if gaps.size and gaps.min() <= _DISTINCT_TOL:
        raise DegenerateSpectrum("eigenvalue gap below 1e-9")
    lead = vecs[0, :]
    if np.min(np.abs(lead)) <= _FIRST_COMPONENT_TOL:
        raise FirstComponentZero("eigenvector leading component too small to normalize")
    return z, (vecs / lead).T


def _assemble_3(rows: np.ndarray, z: np.ndarray):
    """``(z, rows, m_inv)`` of a 3-state basis, inverse by the adjugate."""
    x1, x2, x3 = rows[:, 1]
    y1, y2, y3 = rows[:, 2]
    det = (x1 * y2 + x2 * y3 + x3 * y1) - (x1 * y3 + x2 * y1 + x3 * y2)
    if abs(det) <= _SINGULAR_TOL:
        raise ArithmeticError("dressed matrix is singular")
    m_inv = np.array([
        [x2 * y3 - x3 * y2, x3 * y1 - x1 * y3, x1 * y2 - x2 * y1],
        [y2 - y3, y3 - y1, y1 - y2],
        [x3 - x2, x1 - x3, x2 - x1],
    ]) / det
    return z, rows, m_inv


def probabilities_at(basis, action: float) -> np.ndarray:
    """Populations |a_j|^2 at one action value, closure-checked.

    The populations weighted by the basis's closure weights
    ``basis.scale**2`` must sum to 1 within CLOSURE_TOL, else
    ArithmeticError.
    """
    p = np.abs(amplitudes_many(basis, [float(action)])[0]) ** 2
    total = float(basis.scale ** 2 @ p)
    if abs(total - 1.0) > CLOSURE_TOL:
        raise ArithmeticError(f"closure sum {total!r} deviates from 1")
    return p


def probabilities_cosine_form(basis, action: float, state: int) -> float:
    """Population of ``state`` via the explicit double cosine sum.

    Expands |sum_i m_inv[state-1, i] e^{-i z_i A}|^2 into a double sum over
    cosine terms instead of squaring the complex value.
    """
    row = basis.m_inv[state - 1]
    total = 0.0
    for i in range(basis.n):
        for j in range(basis.n):
            total += row[i] * row[j] * np.cos((basis.z[i] - basis.z[j]) * action)
    return float(total)


def trajectory_to_csv_rows(traj) -> str:
    """Serialize a trajectory as CSV one row and one number at a time."""
    n = traj.probabilities.shape[1]
    buf = io.StringIO()
    cols = ",".join(f"P{j + 1}" for j in range(n))
    buf.write(f"t,{cols},closure\n")
    for k in range(traj.times.size):
        vals = [traj.times[k], *traj.probabilities[k], traj.closure[k]]
        buf.write(",".join(f"{v:.17g}" for v in vals) + "\n")
    return buf.getvalue()


def load_sampled_csv_by_rows(path) -> SampledPulse:
    """Read a sampled envelope from CSV with header ``t,V`` by ``csv.reader``
    and one ``float`` pair per row; blank lines are skipped and every other
    row holds exactly the two fields."""
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigError(f"samples_file must be a path string, not {path!r}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["t", "V"]:
            raise ConfigError("expected CSV header 't,V'")
        rows = [r for r in reader if r]
    bad = next((r for r in rows if len(r) != 2), None)
    if bad is not None:
        raise ConfigError(f"samples_file row {bad} must hold the two fields t,V")
    try:
        rows = [(float(t), float(v)) for t, v in rows]
    except ValueError as exc:
        raise ConfigError(f"samples_file values must be numbers: {exc}") from None
    if len(rows) < 2:
        raise ConfigError("need at least 2 samples")
    t, v = zip(*rows)
    return SampledPulse(np.array(t), np.array(v))


def leakage_estimate(omega21: float, omega: float) -> float:
    """Order-of-magnitude bound on the off-resonant population loss.

    Treats the detuned neighbor as accumulating phase-slip amplitude of
    order ``(pi/2)^3 omega21 / omega`` over the transfer; squaring gives
    ``(1/4) (pi/2)^6 (omega21/omega)^2 = 3.755 r^2`` with
    ``r = omega21/omega``.  The loss that propagation gives, 0.1654 r^2
    from :func:`degenpop.numeric.leakage_scan` for the two-state harmonic
    transfer, is 22.7 times smaller.
    """
    return 0.25 * (np.pi / 2.0) ** 6 * (omega21 / omega) ** 2


def _propagators(x):
    """``exp(-i X)`` for every real matrix ``X = x[:, :, k...]``, batch-last.

    ``exp(-iX) = C(X) - i S(X)``, the cosine and sine series evaluated in
    real arithmetic by Horner's rule in ``X^2``.  A matrix whose norm
    ``||X||_inf`` exceeds 1 is first scaled by ``2^-s``, ``s =
    ceil(log2 ||X||_inf)``, and its exponential squared s times after
    (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).  The series stops at the
    lowest degree m >= 3 whose remainder ``theta^(m+1)/(m+1)!`` is below
    2^-54, for theta the largest scaled norm of the call: degree 5 to 7
    on resolved steps (theta 0.002 to 0.03), 18 at theta = 1.  X = 0 gives
    exactly the identity.  No LAPACK call is made.
    """
    shape, n = x.shape, x.shape[0]
    x = x.reshape(n, n, -1)
    norm = np.abs(x).sum(axis=1).max(axis=0)
    s = np.ceil(np.log2(np.maximum(norm, 1.0))).astype(np.int32)  # ldexp's own exponent type
    x = np.ldexp(x, -s)
    theta = float(np.max(np.ldexp(norm, -s), initial=0.0))
    m = 3
    while theta ** (m + 1) / math.factorial(m + 1) >= _TAYLOR_TOL:
        m += 1
    y = _product(x, x)
    cos = _horner(y, [(-1) ** (k // 2) / math.factorial(k) for k in range(0, m + 1, 2)])
    sin = _product(x, _horner(y, [(-1) ** (k // 2) / math.factorial(k)
                                  for k in range(1, m + 1, 2)]))
    u = np.empty(cos.shape, dtype=complex)
    u.real = cos
    np.negative(sin, out=u.imag)
    for j in range(int(s.max(initial=0))):
        big = np.flatnonzero(s > j)
        u[..., big] = _product(u[..., big], u[..., big])
    return u.reshape(shape)


def _horner(y, coefs):
    """``sum_j coefs[j] Y^j`` for every matrix ``Y = y[:, :, k]`` by Horner's
    rule, for two coefficients or more."""
    p = coefs[-1] * y
    _diagonal(p)[...] += coefs[-2]
    for c in reversed(coefs[:-2]):
        p = _product(y, p)
        _diagonal(p)[...] += c
    return p


def _product(a, b):
    """``a @ b`` over the first two axes, with numpy broadcasting over the
    trailing ones (both operands have the same number of axes): the inner
    index is summed in index order, one elementwise multiply and add per
    term.  On 2-d operands it is the plain matrix product."""
    out = a[:, :1] * b[:1]
    for j in range(1, a.shape[1]):
        out += a[:, j:j + 1] * b[j:j + 1]
    return out
