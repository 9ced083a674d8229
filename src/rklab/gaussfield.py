"""Gaussian fields and composite squared fields for the isomorphism checks.

The harnesses read a Gaussian field only on a small readout set S of states
(the test points, the start state and the support of the rebirth measure),
and the marginal of a centred Gaussian vector on S is exactly N(0, C[S, S]).
So a covariance table is checked for positive semi-definiteness on the
whole table passed in, then factored on the block C[S, S] only, and fields
are drawn |S| wide (with S every state, the default, the full field).  The
harnesses pass chain kernels already cut to S and state 0, whose blocks
:func:`rklab.chains.potential_matrix` certifies positive definite from the
chain's precision but for the killed-at-zero kernel's zero row at state 0:
that row stays exactly zero, and LAPACK's Cholesky factors the rest.  The
composite sampler builds the Gaussian side of the Eisenbaum, hitting-time and
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


@dataclass(frozen=True)
class FieldFactor:
    """Cholesky root of a covariance block, with its zero rows kept.

    ``keep`` lists the states the root's rows stand for, in order, as
    indices of the table factored (the harnesses re-label them with chain
    indices); root @ root.T reproduces table[keep][:, keep].  A state of
    zero variance has a zero row; every other state has a column.
    """

    root: np.ndarray
    keep: np.ndarray

    @property
    def dim(self) -> int:
        return self.root.shape[0]

    @property
    def rank(self) -> int:
        return self.root.shape[1]


def factor_covariance(cov: PotentialMatrix, keep=None) -> FieldFactor:
    """Build a sampling root for a PSD kernel table, on the states ``keep``.

    The positive semi-definiteness check covers the whole symmetrised table
    passed in, so a non-PSD table raises :class:`NotPSD` whatever ``keep``
    is; a chain kernel cut to a block is certified by its precision.  Only
    the block on ``keep`` (table indices, sorted; ``None`` means every state)
    is factored, and fields drawn from the root are the exact marginal of
    the full field on those states.  A state whose variance is exactly 0
    keeps a zero row; the block on the other states goes to
    ``np.linalg.cholesky``, and a block it cannot factor raises
    :class:`NotPSD`.  The root must reproduce the block to
    ``RECONSTRUCT_ATOL``.
    """
    C = 0.5 * (cov.table + cov.table.T)
    trace = float(np.trace(C))
    eigs = np.linalg.eigvalsh(C)
    if eigs.min() < -1e-8 * max(trace, 1.0):
        raise NotPSD(f"min eigenvalue {eigs.min():.3e} for trace {trace:.3e}")
    keep = np.arange(C.shape[0]) if keep is None \
        else np.asarray(keep, dtype=np.int64)
    B = C[np.ix_(keep, keep)]
    live = np.flatnonzero(np.diag(B) != 0.0)
    root = np.zeros((keep.size, live.size))
    try:
        root[live] = np.linalg.cholesky(B[np.ix_(live, live)])
    except np.linalg.LinAlgError as exc:
        raise NotPSD(f"block on {live.size} states: {exc}") from None
    err = np.abs(root @ root.T - B).max()
    if err > RECONSTRUCT_ATOL:
        raise NotPSD(f"factor reconstruction error {err:.3e}")
    return FieldFactor(root=root, keep=keep)


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
