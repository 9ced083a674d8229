"""Gaussian fields and composite squared fields for the isomorphism checks.

The harnesses read a Gaussian field only on a small readout set S of states
(the test points, the start state and the support of the rebirth measure),
and the marginal of a centred Gaussian vector on S is exactly N(0, C[S, S]).
So a covariance table is checked for positive semi-definiteness on the
whole table passed in, then factored on the block C[S, S] only (pivoted
Cholesky, so rank-deficient kernels like the killed-at-zero one keep an
exact zero at state 0), and fields are drawn |S| wide.  With S every state,
the default, this is the full field.  The harnesses pass chain kernels
already cut to S and state 0; positive definiteness on every such block is
certified by :func:`rklab.chains.potential_matrix` from the chain's
precision.  The composite sampler
builds the Gaussian side of the Eisenbaum, hitting-time and
inverse-local-time identities on whatever columns the factor carries:

* a sum of squared shifted fields, one per life, with a signed tilt weight
  (1 + eta_1(y)/s) * prod (1 + eta_i(mu)/s) of mean one, and
* an optional last unshifted square, taken either plain or shifted by
  h * sqrt(2 (t ^ rho)) with rho exponential of mean u0(0,0).

Weights are kept signed; nothing is truncated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import PotentialMatrix
from .errors import NotPSD, ZeroShift

RECONSTRUCT_ATOL = 1e-8
PIVOT_RTOL = 1e-10  # pivots below this times the block trace count as 0


@dataclass(frozen=True)
class FieldFactor:
    """Low-rank root of a covariance block.

    ``keep`` lists the states the root's rows stand for, in order, as
    indices of the table factored (the harnesses re-label them with chain
    indices); root @ root.T reproduces table[keep][:, keep].
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

    The positive semi-definiteness check covers the whole symmetrised table
    passed in, so a non-PSD table raises :class:`NotPSD` whatever ``keep``
    is; a chain kernel cut to a block is certified by its precision.  Only
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


def composite_block(s: float, lives, size: int, rng, tail=None):
    """Vectorised composites on the factors' states, with their tilt.

    Returns (fields, weights).  ``lives`` lists (factor, tilt) pairs in draw
    order; each adds (eta + s)^2/2 to the field and multiplies the weight by
    1 + eta(tilt)/s, where ``tilt`` is a position among the factor's states
    (the start state) or a vector on them (mu).  ``tail`` = (factor, bump)
    then adds one unshifted square: eta2^2/2 when ``bump`` is None, and
    (eta2 + h sqrt(2 (t ^ rho)))^2/2 for ``bump`` = (profile, t), with rho
    exponential of mean u0(0,0) drawn after eta2, so at t = 0 the two tails
    agree sample by sample.  ``profile.h`` refers to the factors' states.
    """
    if s == 0:
        raise ZeroShift("composite fields need a nonzero shift")
    field = np.zeros((size, (lives[0] if lives else tail)[0].dim))
    weight = np.ones(size)
    for factor, tilt in lives:
        eta = sample_block(factor, size, rng)
        field += 0.5 * (eta + s) ** 2
        weight *= 1.0 + (eta[:, tilt] if np.ndim(tilt) == 0
                         else eta @ tilt) / s
    if tail is not None:
        factor, bump = tail
        eta2 = sample_block(factor, size, rng)
        if bump is not None:
            profile, t = bump
            rho = rng.exponential(scale=profile.u00, size=size)
            eta2 += profile.h[None, :] \
                * np.sqrt(2.0 * np.minimum(t, rho))[:, None]
        field += 0.5 * eta2 ** 2
    return field, weight
