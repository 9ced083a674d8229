"""Gaussian factorisation and the composite squared fields."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rklab.chains import (
    Kind,
    PotentialMatrix,
    RebirthMeasure,
    birth_death_chain,
    hitting_profile,
    killed_at_zero_potential,
    path_chain,
    potential_matrix,
)
from rklab.errors import NotPSD, ZeroShift
from rklab.gaussfield import (
    composite_block,
    factor_covariance,
    sample_block,
)
from rklab.harnesses import REGISTRY, TestPlan, _readout
from strategies import path_chains


def _pot(table, states=None):
    n = table.shape[0]
    states = states or tuple(range(n))
    return PotentialMatrix(kind=Kind.U_P, order=0.0, table=table,
                           zero_state=0, states=states,
                           index={x: i for i, x in enumerate(states)})


def _zero_row_cholesky(table, keep):
    """LAPACK's Cholesky of the symmetrised block on ``keep``, taken on the
    rows of nonzero variance, with the zero rows put back."""
    B = (0.5 * (table + table.T))[np.ix_(keep, keep)]
    live = np.flatnonzero(np.diag(B) != 0.0)
    root = np.zeros((keep.size, live.size))
    root[live] = np.linalg.cholesky(B[np.ix_(live, live)])
    return root


def test_identity_factor():
    f = factor_covariance(_pot(np.eye(4)))
    assert f.rank == 4
    assert np.allclose(f.root @ f.root.T, np.eye(4))


def test_rank_deficient_pivoting(ref_chain, rng):
    ut = killed_at_zero_potential(potential_matrix(ref_chain, 0.0))
    f = factor_covariance(ut)
    assert f.rank == 2
    z = ref_chain.zero_index
    samples = sample_block(f, 500, rng)
    assert np.all(samples[:, z] == 0.0)  # exact zero at the killed state


def test_not_psd():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(NotPSD):
        factor_covariance(_pot(bad))


def test_min_kernel_independent_increments(rng):
    scale = np.array([0.0, 1.0, 2.0, 3.0])
    f = factor_covariance(_pot(np.minimum.outer(scale, scale)))
    n = 100_000
    samples = sample_block(f, n, rng)
    inc = np.diff(samples, axis=1)
    cov = np.cov(inc.T)
    # independent increments with variances equal to the scale differences
    se = 4.0 / np.sqrt(n)
    assert np.abs(np.diag(cov) - 1.0).max() < 4 * se * 2
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() < 4 * se * 2
    assert np.all(samples[:, 0] == 0.0)


def test_sampler_covariance(ref_chain, rng):
    u0 = potential_matrix(ref_chain, 0.0)
    f = factor_covariance(u0)
    n = 100_000
    samples = sample_block(f, n, rng)
    emp = samples.T @ samples / n
    assert np.abs(emp - u0.table).max() < 4 * 2.0 / np.sqrt(n) * 2


def test_shift_mean(ref_chain, rng):
    u0 = potential_matrix(ref_chain, 0.0)
    f = factor_covariance(u0)
    n = 50_000
    vals = sample_block(f, n, rng) + 0.8
    se = vals.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(vals.mean(axis=0) - 0.8) < 4 * se)


def _rk_lives(chain, r):
    """Factors on every state and the lives of the r-life composite."""
    u0 = potential_matrix(chain, 0.0)
    ut = killed_at_zero_potential(u0)
    u0f, utf = factor_covariance(u0), factor_covariance(ut)
    mu_vec = RebirthMeasure(weights={1: 1.0}).vector(chain)
    y = chain.state_index(-1)
    if r == 1:
        return u0, utf, [(utf, y)]
    return u0, utf, [(u0f, y)] + [(u0f, mu_vec)] * (r - 2) + [(utf, mu_vec)]


def test_first_composite(ref_chain, rng):
    z = ref_chain.zero_index
    _, _, lives = _rk_lives(ref_chain, 2)
    with pytest.raises(ZeroShift):
        composite_block(0.0, lives, 4, rng)

    # r = 1: single shifted square of the killed-at-zero field
    fields, weights = composite_block(1.0, _rk_lives(ref_chain, 1)[2],
                                      20_000, rng)
    assert np.all(fields[:, z] == 0.5)  # (0 + s)^2 / 2 with s = 1
    se = weights.std() / np.sqrt(weights.size)
    assert abs(weights.mean() - 1.0) < 4 * se

    fields3, weights3 = composite_block(1.0, _rk_lives(ref_chain, 3)[2],
                                        20_000, rng)
    se = weights3.std() / np.sqrt(weights3.size)
    assert abs(weights3.mean() - 1.0) < 4 * se
    assert np.all(fields3 >= 0.0)


def test_second_composites_degenerate_and_closed_form(ref_chain):
    z = ref_chain.zero_index
    u0, utf, lives = _rk_lives(ref_chain, 2)
    profile = hitting_profile(u0)

    # the same stream drawn with a plain tail and with a bump at t = 0
    plain, w_plain = composite_block(1.0, lives, 5_000,
                                     np.random.default_rng(7), (utf, None))
    bumped, w_bumped = composite_block(1.0, lives, 5_000,
                                       np.random.default_rng(7),
                                       (utf, (profile, 0.0)))
    assert np.array_equal(plain, bumped)  # t = 0 collapses the bump exactly
    assert np.array_equal(w_plain, w_bumped)

    t = 0.8
    lives = _rk_lives(ref_chain, 1)[2]
    plain, _ = composite_block(1.0, lives, 200_000,
                               np.random.default_rng(8), (utf, None))
    bumped, _ = composite_block(1.0, lives, 200_000,
                                np.random.default_rng(8),
                                (utf, (profile, t)))
    # at state 0 the bump contributes t ^ rho on top of s^2/2; rho is the
    # last draw of the stream
    rng8 = np.random.default_rng(8)
    sample_block(utf, 200_000, rng8)
    sample_block(utf, 200_000, rng8)
    rho = rng8.exponential(scale=profile.u00, size=200_000)
    diff = bumped[:, z] - plain[:, z]
    assert np.allclose(diff, np.minimum(t, rho))
    target = 0.5 + profile.u00 * -np.expm1(-t / profile.u00)
    vals = bumped[:, z]
    se = vals.std() / np.sqrt(vals.size)
    assert abs(vals.mean() - target) < 4 * se


def test_constituent_independence(ref_chain, rng):
    u0 = potential_matrix(ref_chain, 0.0)
    ut = killed_at_zero_potential(u0)
    u0f, utf = factor_covariance(u0), factor_covariance(ut)
    n = 100_000
    a = sample_block(u0f, n, rng)
    b = sample_block(utf, n, rng)
    cross = a.T @ b / n
    assert np.abs(cross).max() < 4 * 1.0 / np.sqrt(n) * 2


# readout-set factors: the exact marginal of the field on a few states ------

def test_readout_factor_reproduces_block():
    u0 = potential_matrix(birth_death_chain(64, 64.0), 0.0)
    keep = np.array([3, 10, 11, 40])
    for table in (u0, killed_at_zero_potential(u0)):
        f = factor_covariance(table, keep=keep)
        assert f.dim == keep.size and np.array_equal(f.keep, keep)
        block = table.table[np.ix_(keep, keep)]
        assert np.abs(f.root @ f.root.T - block).max() < 1e-10


def test_readout_zero_row_exact():
    ut = killed_at_zero_potential(potential_matrix(birth_death_chain(64, 64.0),
                                                   0.0))
    keep = np.array([0, 5, 33])
    f = factor_covariance(ut, keep=keep)
    assert f.rank == 2
    assert np.all(f.root[0] == 0.0)
    samples = sample_block(f, 1000, np.random.default_rng(3))
    assert np.all(samples[:, 0] == 0.0)


def test_not_psd_outside_readout():
    bad = np.zeros((4, 4))
    bad[:2, :2] = np.eye(2)                        # fine on the readout set
    bad[2:, 2:] = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalue -1 off it
    with pytest.raises(NotPSD):
        factor_covariance(_pot(bad), keep=[0, 1])


def test_readout_all_states_matches_full_factor(ref_chain):
    u0 = potential_matrix(birth_death_chain(16, 16.0), 0.0)
    for table in (u0, killed_at_zero_potential(u0),
                  killed_at_zero_potential(potential_matrix(ref_chain, 0.0))):
        everywhere = np.arange(table.table.shape[0])
        full = _zero_row_cholesky(table.table, everywhere)
        for keep in (None, everywhere):
            f = factor_covariance(table, keep=keep)
            assert np.array_equal(f.root, full)
            a = sample_block(f, 257, np.random.default_rng(5))
            b = np.random.default_rng(5).standard_normal((257, f.rank)) \
                @ full.T
            assert np.array_equal(a, b)


@pytest.mark.parametrize("harness,kw,defect", [
    ("first-rk", {"r": 2, "s": 1.0}, "wrong-cov"),
    ("second-rk", {"r": 2, "s": 1.0, "t": 0.5}, "wrong-cov"),
    ("eisenbaum", {"s": 1.0}, "unit-weights"),
])
def test_grid_readout_keeps_power(harness, kw, defect):
    """Fields read on 5 of 33 states: the clean run passes, a defect fails."""
    chain = birth_death_chain(32, 32.0)

    def run(defect):
        plan = TestPlan(chain=chain, mu=RebirthMeasure(weights={2: 1.0}),
                        start=4, replicates=10_000, seed=17,
                        test_points=(1, 3, 10), defect=defect, **kw)
        assert _readout(plan).tolist() == [1, 2, 3, 4, 10]
        return REGISTRY[harness](plan)

    assert run(None).verdict
    assert not run(defect).verdict


@st.composite
def _path_chain_and_readout(draw):
    """A detailed-balance path chain with 0 inside, and a readout set."""
    chain = draw(path_chains())
    n = chain.n_states
    keep = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    return chain, np.array(keep)


@settings(max_examples=60, deadline=None)
@given(_path_chain_and_readout())
def test_readout_factor_property(case):
    chain, keep = case
    u0 = potential_matrix(chain, 0.0)
    z = chain.zero_index
    for table in (u0, killed_at_zero_potential(u0)):
        f = factor_covariance(table, keep=keep)
        block = table.table[np.ix_(keep, keep)]
        scale = max(1.0, float(np.abs(block).max()))
        assert np.abs(f.root @ f.root.T - block).max() <= 1e-9 * scale
        assert np.array_equal(f.root, _zero_row_cholesky(table.table, keep))
        if table is not u0 and z in keep:
            assert np.all(f.root[keep.tolist().index(z)] == 0.0)
            assert f.rank == keep.size - 1


def test_stiff_chain_keeps_its_variance():
    # at rate 1e11 the killed field has variance 1e-11 at -1 and +1: small,
    # but positive definite, so no direction of either field is dropped
    chain = path_chain((-1, 0, 1), rate=1e11, coords=(-1.0, 0.0, 1.0))
    u0 = potential_matrix(chain, 0.0)
    ut = killed_at_zero_potential(u0)
    ends = np.array([chain.state_index(-1), chain.state_index(1)])
    assert 0.0 < ut.table[ends[0], ends[0]] < 1e-10
    killed = factor_covariance(ut, keep=ends)
    assert killed.rank == 2
    assert factor_covariance(u0).rank == 3
    samples = sample_block(killed, 20_000, np.random.default_rng(11))
    var = samples.var(axis=0) / ut.table[ends, ends]
    assert np.all(np.abs(var - 1.0) < 0.05)
