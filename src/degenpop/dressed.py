"""Dressed-state basis of the coupled dynamics.

Because every coupling shares one envelope, the strength matrix ``W = r``
is constant and the degenerate propagator is ``exp(-i A(t) W)``.  With
``D = diag(d)`` and ``d = sqrt(closure weights)`` the matrix
``S = D r D^-1`` is real symmetric (see :meth:`CouplingModel.symmetrized`),
so one ``eigh`` gives ``S = Q diag(z) Q^T`` with Q orthogonal.  Starting
from state 1,

    a(A) = D^-1 Q e^{-izA} Q^T e_1 = e_1 + D^-1 Q (e^{-izA} - 1) Q^T e_1,

so each bare amplitude is a sum of pure phases ``e^{-i z_i A}`` with real
weights ``m_inv[k, i] = Q[k, i] Q[0, i] / d_k``.  For distinct
eigenvalues ``m_inv`` is the paper's ``M^-1`` with dressed rows scaled to
leading component 1; the rows of ``Q^T D`` are the same left eigenrows of
W, unscaled.  Nothing is normalized by a leading component and nothing is
inverted, so repeated eigenvalues and states that state 1 never reaches
are handled exactly.

Eigenvalues are in descending order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import CouplingModel


@dataclass(frozen=True, eq=False)
class DressedBasis:
    """Orthonormal eigenbasis of the symmetrized strength matrix.

    Attributes
    ----------
    n : int
        Dimension.
    z : ndarray
        Eigenvalues, descending.
    q : ndarray
        Orthogonal matrix; column i is the eigenvector of ``D r D^-1``
        for ``z[i]``.
    scale : ndarray
        The diagonal of D, ``sqrt(closure weights)``.
    m_inv : ndarray
        Phase weights: bare amplitude k at action A is
        ``sum_i m_inv[k, i] exp(-i z_i A)``.
    """

    n: int
    z: np.ndarray
    q: np.ndarray
    scale: np.ndarray
    m_inv: np.ndarray


def decompose_general(model: CouplingModel) -> DressedBasis:
    """Dressed basis of any coupling model by one symmetric eigensolve."""
    scale = np.sqrt(model.closure_weights)
    z, q = np.linalg.eigh(model.symmetrized())
    z, q = z[::-1], q[:, ::-1]
    m_inv = q * q[0] / scale[:, None]
    for a in (z, q, scale, m_inv):
        a.setflags(write=False)
    return DressedBasis(model.n, z, q, scale, m_inv)


def eigen_residual(basis: DressedBasis, w: np.ndarray) -> float:
    """Max entrywise residual of the left eigenrelations against ``w``.

    The left eigenrows of ``w`` are the rows of ``Q^T D``.
    """
    rows = basis.q.T * basis.scale
    res = rows @ w - basis.z[:, None] * rows
    return float(np.max(np.abs(res)))


def _product(a, b):
    """``a @ b`` over the first two axes, with numpy broadcasting over the
    trailing ones (both operands have the same number of axes): the inner
    index is summed in index order, one elementwise multiply and add per
    term.  On 2-d operands it is the plain matrix product."""
    out = a[:, :1] * b[:1]
    for j in range(1, a.shape[1]):
        out += a[:, j:j + 1] * b[j:j + 1]
    return out
