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
from .errors import NotPSD, StrictRankDeficient, ZeroShift

RECONSTRUCT_ATOL = 1e-8


@dataclass(frozen=True)
class FieldFactor:
    """Low-rank root of a covariance block.

    ``keep`` lists the table indices the root's rows stand for, in order;
    root @ root.T reproduces table[keep][:, keep].
    """

    covariance: PotentialMatrix
    root: np.ndarray
    rank: int
    jitter_used: float
    keep: np.ndarray

    @property
    def dim(self) -> int:
        return self.root.shape[0]


@dataclass(frozen=True)
class GaussianFieldSample:
    values: np.ndarray
    shift: float


@dataclass(frozen=True)
class CompositeFieldSample:
    """One composite squared-field draw with its tilt weight."""

    field: np.ndarray
    constituents: tuple
    weight: float
    rho: float | None = None


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


def factor_covariance(
    cov: PotentialMatrix, policy: str = "pivoted", pivot_tol: float = 1e-10,
    keep=None,
) -> FieldFactor:
    """Build a sampling root for a PSD kernel table, on the states ``keep``.

    The positive semi-definiteness check covers the whole symmetrised table,
    so a non-PSD kernel raises :class:`NotPSD` whatever ``keep`` is.  Only
    the block on ``keep`` (table indices, sorted; ``None`` means every state)
    is factored, and fields drawn from the root are the exact marginal of
    the full field on those states.  ``strict`` fails on any rank deficiency
    of the block; ``pivoted`` zeroes directions whose pivot is below
    ``pivot_tol`` times the block's trace and records the rank.  The root
    must reproduce the block to ``RECONSTRUCT_ATOL``.
    """
    C = 0.5 * (cov.table + cov.table.T)
    trace = float(np.trace(C))
    eigs = np.linalg.eigvalsh(C)
    if eigs.min() < -1e-8 * max(trace, 1.0):
        raise NotPSD(f"min eigenvalue {eigs.min():.3e} for trace {trace:.3e}")
    keep = np.arange(C.shape[0]) if keep is None \
        else np.asarray(keep, dtype=np.int64)
    B = C[np.ix_(keep, keep)]
    if policy == "strict":
        try:
            root = np.linalg.cholesky(B)
        except np.linalg.LinAlgError as exc:
            raise StrictRankDeficient(str(exc)) from exc
        rank = B.shape[0]
    elif policy == "pivoted":
        block_trace = float(np.trace(B))
        root, rank = _pivoted_cholesky(B, pivot_tol * max(block_trace, 1.0))
    else:
        raise ValueError(f"unknown factorisation policy {policy!r}")
    err = np.abs(root @ root.T - B).max()
    if err > RECONSTRUCT_ATOL:
        raise NotPSD(f"factor reconstruction error {err:.3e}")
    return FieldFactor(covariance=cov, root=root, rank=rank, jitter_used=0.0,
                       keep=keep)


def sample_block(factor: FieldFactor, size: int, rng) -> np.ndarray:
    """size x dim matrix of centred Gaussian field draws on factor.keep."""
    z = rng.standard_normal((size, factor.rank))
    return z @ factor.root.T


def sample_field(factor: FieldFactor, shift: float, rng) -> GaussianFieldSample:
    values = sample_block(factor, 1, rng)[0] + shift
    return GaussianFieldSample(values=values, shift=shift)


def _mu_functional(fields: np.ndarray, mu_vec: np.ndarray) -> np.ndarray:
    return fields @ mu_vec


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

    Returns (fields, weights, eta_tilde) where fields[k] is
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
        tilt = eta[:, y_index] if i == 0 else _mu_functional(eta, mu_vec)
        weight *= 1.0 + tilt / s
    eta_t = sample_block(utilde_factor, size, rng)
    field += 0.5 * (eta_t + s) ** 2
    tilt = eta_t[:, y_index] if r == 1 else _mu_functional(eta_t, mu_vec)
    weight *= 1.0 + tilt / s
    return field, weight, eta_t


def first_rk_composite(
    r, s, u0_factor, utilde_factor, y_index, mu_vec, rng
) -> CompositeFieldSample:
    field, weight, eta_t = first_rk_composite_block(
        r, s, u0_factor, utilde_factor, y_index, mu_vec, 1, rng
    )
    return CompositeFieldSample(
        field=field[0], constituents=(eta_t[0],), weight=float(weight[0])
    )


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

    Returns (g_hat, g_bar, weights, rho, eta2).  g_hat ends in a plain
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
        tilt = eta[:, y_index] if i == 0 else _mu_functional(eta, mu_vec)
        weight *= 1.0 + tilt / s
    eta1 = sample_block(ut0_factor, size, rng)
    base += 0.5 * (eta1 + s) ** 2
    tilt = eta1[:, y_index] if r == 1 else _mu_functional(eta1, mu_vec)
    weight *= 1.0 + tilt / s
    eta2 = sample_block(ut0_factor, size, rng)
    rho = rng.exponential(scale=profile.u00, size=size)
    g_hat = base + 0.5 * eta2 ** 2
    bump = profile.h[None, :] * np.sqrt(2.0 * np.minimum(t, rho))[:, None]
    g_bar = base + 0.5 * (eta2 + bump) ** 2
    return g_hat, g_bar, weight, rho, eta2


def second_rk_composites(
    r, s, t, profile, u0_factor, ut0_factor, y_index, mu_vec, rng
):
    g_hat, g_bar, weight, rho, eta2 = second_rk_composites_block(
        r, s, t, profile, u0_factor, ut0_factor, y_index, mu_vec, 1, rng
    )
    shared = (eta2[0],)
    return (
        CompositeFieldSample(field=g_hat[0], constituents=shared,
                             weight=float(weight[0]), rho=float(rho[0])),
        CompositeFieldSample(field=g_bar[0], constituents=shared,
                             weight=float(weight[0]), rho=float(rho[0])),
    )


def cross_term_expand(
    eta2: np.ndarray, profile: HittingProfile, t_clip_rho: float, d_index: int
) -> dict:
    """Split the last-square increment against the reference state d.

    For each state x the increment of (eta2 + h sqrt(2 (t^rho)))^2 / 2
    relative to x = d splits into a middle term, linear in the hitting-profile
    difference, and a last term that is the same square taken at the frozen
    profile value h_d.  The two pieces sum to the increment exactly.
    """
    h = profile.h
    bump = np.sqrt(2.0 * t_clip_rho)
    middle = (
        eta2 * (h - h[d_index]) * bump
        + 0.5 * (h ** 2 - h[d_index] ** 2) * 2.0 * t_clip_rho
    )
    frozen = 0.5 * (eta2 + h[d_index] * bump) ** 2
    last = frozen - frozen[d_index]
    return {"middle": middle, "last": last}
