"""Gaussian fields and composite squared fields for the isomorphism checks.

The harnesses read a Gaussian field only on a small readout set S of states
(the test points, the start state and the support of the rebirth measure),
and the marginal of a centred Gaussian vector on S is exactly N(0, C[S, S]).
So a covariance coming out of :mod:`rklab.chains` is checked for positive
semi-definiteness on the whole table, then factored on the block C[S, S]
only (pivoted Cholesky, so rank-deficient kernels like the killed-at-zero
one keep an exact zero at state 0), and fields are drawn |S| wide.  With S
every state, the default, this is the full field.  The composite samplers
build the Gaussian side of the hitting-time and inverse-local-time
identities on whatever columns the factor carries:

* sum of squared shifted fields, with a signed tilt weight
  (1 + eta_1(y)/s) * prod (1 + eta_i(mu)/s) of mean one, and
* the pair of second-kind composites sharing constituents, where the last
  square is taken either plain or shifted by h * sqrt(2 (t ^ rho)) with rho
  exponential of mean u0(0,0).

Weights are kept signed; nothing is truncated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import HittingProfile, PotentialMatrix
from .errors import NotPSD, ZeroShift

RECONSTRUCT_ATOL = 1e-8
PIVOT_RTOL = 1e-10  # pivots below this times the block trace count as 0


@dataclass(frozen=True)
class FieldFactor:
    """Low-rank root of a covariance block.

    ``keep`` lists the table indices the root's rows stand for, in order;
    root @ root.T reproduces table[keep][:, keep].
    """

    root: np.ndarray
    rank: int
    keep: np.ndarray

    @property
    def dim(self) -> int:
        return self.root.shape[0]


def _pivoted_cholesky(C: np.ndarray, tol: float):
    """Diagonal-pivoted Cholesky; stops when pivots fall below ``tol``.

    Returns the root in original row order with zero columns dropped.
    """
    A = C.copy()
    n = A.shape[0]
    piv = np.arange(n)
    rank = n
    for i in range(n):
        d = np.diag(A)[i:]
        j = int(np.argmax(d)) + i
        if A[j, j] <= tol:
            rank = i
            break
        if j != i:
            A[:, [i, j]] = A[:, [j, i]]
            A[[i, j], :] = A[[j, i], :]
            piv[[i, j]] = piv[[j, i]]
        A[i, i] = np.sqrt(A[i, i])
        if i + 1 < n:
            A[i + 1:, i] /= A[i, i]
            A[i + 1:, i + 1:] -= np.outer(A[i + 1:, i], A[i + 1:, i])
    L = np.tril(A)[:, :rank]
    inv = np.empty(n, dtype=int)
    inv[piv] = np.arange(n)
    return L[inv, :], rank


def factor_covariance(cov: PotentialMatrix, keep=None) -> FieldFactor:
    """Build a sampling root for a PSD kernel table, on the states ``keep``.

    The positive semi-definiteness check covers the whole symmetrised table,
    so a non-PSD kernel raises :class:`NotPSD` whatever ``keep`` is.  Only
    the block on ``keep`` (table indices, sorted; ``None`` means every state)
    is factored, and fields drawn from the root are the exact marginal of
    the full field on those states.  Directions whose pivot falls below
    ``PIVOT_RTOL`` times the block's trace are zeroed and the rank recorded.
    The root must reproduce the block to ``RECONSTRUCT_ATOL``.
    """
    C = 0.5 * (cov.table + cov.table.T)
    trace = float(np.trace(C))
    eigs = np.linalg.eigvalsh(C)
    if eigs.min() < -1e-8 * max(trace, 1.0):
        raise NotPSD(f"min eigenvalue {eigs.min():.3e} for trace {trace:.3e}")
    keep = np.arange(C.shape[0]) if keep is None \
        else np.asarray(keep, dtype=np.int64)
    B = C[np.ix_(keep, keep)]
    tol = PIVOT_RTOL * max(float(np.trace(B)), 1.0)
    root, rank = _pivoted_cholesky(B, tol)
    err = np.abs(root @ root.T - B).max()
    if err > RECONSTRUCT_ATOL:
        raise NotPSD(f"factor reconstruction error {err:.3e}")
    return FieldFactor(root=root, rank=rank, keep=keep)


def sample_block(factor: FieldFactor, size: int, rng) -> np.ndarray:
    """size x dim matrix of centred Gaussian field draws on factor.keep."""
    z = rng.standard_normal((size, factor.rank))
    return z @ factor.root.T


def first_rk_composite_block(
    r: int,
    s: float,
    u0_factor: FieldFactor,
    utilde_factor: FieldFactor,
    y_index: int,
    mu_vec: np.ndarray,
    size: int,
    rng,
):
    """Vectorised first-kind composites.

    Returns (fields, weights) where fields[k] is
    sum_{i<r} (eta_i + s)^2/2 + (eta~ + s)^2/2 on the factors' states and
    weights[k] the signed tilt.  For r = 1 the single tilt factor is taken at
    the start state y, matching the one-epoch identity; for r >= 2 the factor
    on eta~ integrates against mu.  ``y_index`` and ``mu_vec`` refer to the
    factors' states, which must include y and the support of mu.
    """
    if r < 1:
        raise ValueError("epoch count r must be >= 1")
    if s == 0:
        raise ZeroShift("composite fields need a nonzero shift")
    field = np.zeros((size, u0_factor.dim))
    weight = np.ones(size)
    for i in range(r - 1):
        eta = sample_block(u0_factor, size, rng)
        field += 0.5 * (eta + s) ** 2
        tilt = eta[:, y_index] if i == 0 else eta @ mu_vec
        weight *= 1.0 + tilt / s
    eta_t = sample_block(utilde_factor, size, rng)
    field += 0.5 * (eta_t + s) ** 2
    tilt = eta_t[:, y_index] if r == 1 else eta_t @ mu_vec
    weight *= 1.0 + tilt / s
    return field, weight


def second_rk_composites_block(
    r: int,
    s: float,
    t: float,
    profile: HittingProfile,
    u0_factor: FieldFactor,
    ut0_factor: FieldFactor,
    y_index: int,
    mu_vec: np.ndarray,
    size: int,
    rng,
):
    """Vectorised second-kind composite pair sharing constituents.

    Returns (g_hat, g_bar, weights, rho).  g_hat ends in a plain
    squared field; g_bar replaces that square by
    (eta2 + h sqrt(2 (t ^ rho)))^2 / 2 with the same eta2 draw, so at t = 0
    the two composites agree sample by sample.  ``profile.h``, ``y_index``
    and ``mu_vec`` refer to the factors' states, as in
    :func:`first_rk_composite_block`.
    """
    if r < 1:
        raise ValueError("epoch count r must be >= 1")
    if s == 0:
        raise ZeroShift("composite fields need a nonzero shift")
    base = np.zeros((size, u0_factor.dim))
    weight = np.ones(size)
    for i in range(r - 1):
        eta = sample_block(u0_factor, size, rng)
        base += 0.5 * (eta + s) ** 2
        tilt = eta[:, y_index] if i == 0 else eta @ mu_vec
        weight *= 1.0 + tilt / s
    eta1 = sample_block(ut0_factor, size, rng)
    base += 0.5 * (eta1 + s) ** 2
    tilt = eta1[:, y_index] if r == 1 else eta1 @ mu_vec
    weight *= 1.0 + tilt / s
    eta2 = sample_block(ut0_factor, size, rng)
    rho = rng.exponential(scale=profile.u00, size=size)
    g_hat = base + 0.5 * eta2 ** 2
    bump = profile.h[None, :] * np.sqrt(2.0 * np.minimum(t, rho))[:, None]
    g_bar = base + 0.5 * (eta2 + bump) ** 2
    return g_hat, g_bar, weight, rho
