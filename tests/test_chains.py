"""Exact kernel construction and its algebraic invariants."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rklab.chains import (
    ChainSpec,
    Kind,
    RebirthMeasure,
    SymmetricChain,
    birth_death_chain,
    build_chain,
    hitting_profile,
    killed_at_zero_potential,
    path_chain,
    potential_matrix,
    rebirthed_potential,
)
from rklab.errors import (
    DetailedBalanceViolation,
    InvariantError,
    NonPositiveMeasure,
    NonPositiveP,
    NotPSD,
    ZeroUnreachable,
)
from strategies import path_chains

ATOL = 1e-10


def test_reference_generator(ref_chain):
    expected = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
    assert np.array_equal(ref_chain.generator, expected)
    assert np.allclose(ref_chain.generator.sum(axis=1), 0.0)


def test_single_state_chain():
    spec = ChainSpec(states=("a",), rates={}, measure={"a": 1.0},
                     kill_rate=1.0, zero_state=0, zero_accessible=False)
    chain = build_chain(spec)
    assert chain.generator.shape == (1, 1) and chain.generator[0, 0] == 0.0
    u0 = potential_matrix(chain, 0.0)
    assert abs(u0.table[0, 0] - 1.0) < ATOL  # exponential lifetime over m


def test_detailed_balance_violation():
    spec = ChainSpec(states=(0, 1), rates={(0, 1): 2.0, (1, 0): 1.0},
                     measure={0: 1.0, 1: 1.0}, kill_rate=1.0)
    with pytest.raises(DetailedBalanceViolation):
        build_chain(spec)


def test_bad_measure_and_unreachable():
    with pytest.raises(NonPositiveMeasure):
        build_chain(ChainSpec(states=(0, 1), rates={(0, 1): 1.0, (1, 0): 1.0},
                              measure={0: 1.0, 1: 0.0}, kill_rate=1.0))
    with pytest.raises(ZeroUnreachable):
        build_chain(ChainSpec(states=(0, 1, 2),
                              rates={(1, 2): 1.0, (2, 1): 1.0},
                              measure={0: 1.0, 1: 1.0, 2: 1.0}, kill_rate=1.0))


def test_potential_oracles(ref_chain):
    u0 = potential_matrix(ref_chain, 0.0)
    assert np.abs(u0.table - np.array(
        [[5, 2, 1], [2, 4, 2], [1, 2, 5]]) / 8.0).max() < ATOL
    u1 = potential_matrix(ref_chain, 1.0)
    assert np.abs(u1.table - np.array(
        [[11, 3, 1], [3, 9, 3], [1, 3, 11]]) / 30.0).max() < ATOL
    with pytest.raises(NonPositiveP):
        potential_matrix(ref_chain, -0.5)


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0, 2.5])
def test_resolvent_identity(nonuniform_chain, p):
    chain = nonuniform_chain
    pot = potential_matrix(chain, p)
    A = (p + chain.kill_rate) * np.eye(chain.n_states) - chain.generator
    resolvent = pot.table * chain.measure[None, :]
    assert np.abs(A @ resolvent - np.eye(chain.n_states)).max() < ATOL
    # symmetric density, dominated by its diagonal
    assert np.abs(pot.table - pot.table.T).max() == 0.0
    diag = np.diag(pot.table)
    assert np.all(pot.table <= diag[None, :] + ATOL)
    assert np.all(pot.table > 0.0)


@pytest.mark.parametrize("p", [0.5, 1.0, 3.0])
def test_rebirthed_row_integral(nonuniform_chain, p):
    chain = nonuniform_chain
    mu = RebirthMeasure(weights={-1: 0.25, 1: 0.75})
    w = rebirthed_potential(chain, mu, p)
    rows = w.table @ chain.measure
    assert np.abs(rows - 1.0 / p).max() < ATOL


def test_rebirthed_oracle_and_asymmetry(ref_chain, mu_plus):
    w = rebirthed_potential(ref_chain, mu_plus, 1.0)
    i = w.index
    assert abs(w.value(-1, -1) - 2.0 / 5.0) < ATOL
    assert abs(w.value(-1, 1) - w.value(1, -1)) > 0.1  # not symmetric
    with pytest.raises(NonPositiveP):
        rebirthed_potential(ref_chain, mu_plus, 0.0)
    assert i == ref_chain.index


def test_smoothing_function_domination(nonuniform_chain):
    # f(y) = sum_x u_p(x, y) mu(x) never exceeds the diagonal
    chain = nonuniform_chain
    mu = RebirthMeasure(weights={-1: 0.5, 0: 0.2, 1: 0.3})
    for p in (0.2, 1.0, 4.0):
        u = potential_matrix(chain, p)
        f = u.table.T @ mu.vector(chain)
        assert np.all(f <= np.diag(u.table) + ATOL)


def test_killed_at_zero(ref_chain):
    ut = killed_at_zero_potential(potential_matrix(ref_chain, 0.0))
    assert ut.kind is Kind.U_TILDE_0
    z = ut.index[0]
    assert np.all(ut.table[z, :] == 0.0) and np.all(ut.table[:, z] == 0.0)
    assert abs(ut.value(-1, -1) - 0.5) < ATOL
    assert abs(ut.value(-1, 1)) < ATOL  # blocks disconnect once 0 absorbs
    eigs = np.sort(np.linalg.eigvalsh(ut.table))
    assert np.abs(eigs - np.array([0.0, 0.5, 0.5])).max() < ATOL


def test_hitting_profile(ref_chain, nonuniform_chain):
    prof = hitting_profile(potential_matrix(ref_chain, 0.0))
    assert prof.value(0) == 1.0
    assert abs(prof.value(-1) - 0.5) < ATOL
    assert abs(prof.value(1) - 0.5) < ATOL
    # harmonic off 0: (beta I - Q) h vanishes away from the zero row
    for chain in (ref_chain, nonuniform_chain):
        prof = hitting_profile(potential_matrix(chain, 0.0))
        A = chain.kill_rate * np.eye(chain.n_states) - chain.generator
        resid = A @ prof.h
        off = [i for i in range(chain.n_states) if i != chain.zero_index]
        assert np.abs(resid[off]).max() < ATOL
        assert prof.h.min() >= 0.0 and prof.h.max() <= 1.0


@st.composite
def _chain_mu_p(draw):
    """A random detailed-balance path chain, a rebirth measure off 0, p > 0."""
    chain = draw(path_chains())
    labels = [x for x in chain.states if x != 0]
    weights = [draw(st.floats(0.1, 1.0)) for _ in labels]
    mu = RebirthMeasure(weights={x: w / sum(weights)
                                 for x, w in zip(labels, weights)})
    return chain, mu, draw(st.floats(0.1, 5.0))


@settings(max_examples=60, deadline=None)
@given(_chain_mu_p())
def test_kernel_properties(case):
    chain, mu, p = case
    u0 = potential_matrix(chain, 0.0)
    assert np.array_equal(u0.table, u0.table.T)
    assert np.linalg.eigvalsh(u0.table).min() > 0.0
    ut = killed_at_zero_potential(u0)
    z = chain.zero_index
    assert np.all(ut.table[z, :] == 0.0) and np.all(ut.table[:, z] == 0.0)
    scale = np.abs(ut.table).max()
    assert np.linalg.eigvalsh(ut.table).min() >= -1e-12 * scale
    w = rebirthed_potential(chain, mu, p)
    assert np.abs(w.table @ chain.measure - 1.0 / p).max() < ATOL


def test_grid_scale_structure():
    # the Green table of the unkilled grid surrogate absorbed at 0 (the
    # inverse of -Q off the zero state, as a density) is exactly the
    # minimum-of-scale kernel with s(k/n) = k/n
    for n, rate in [(16, 16.0), (32, 64.0)]:
        chain = birth_death_chain(n, rate)
        off = np.arange(1, chain.n_states)  # the zero state is index 0
        A = -chain.generator[np.ix_(off, off)]
        green = np.linalg.solve(A, np.eye(n)) / chain.measure[off][None, :]
        coords = chain.coords[off]
        assert np.abs(green - np.minimum.outer(coords, coords)).max() < 1e-10


def test_rebirth_measure_invariants(ref_chain):
    with pytest.raises(InvariantError, match="supported away from 0"):
        RebirthMeasure(weights={0: 0.5, 1: 0.5}).validate(ref_chain)
    with pytest.raises(InvariantError):
        RebirthMeasure(weights={1: 0.7}).validate(ref_chain)  # mass != 1
    RebirthMeasure(weights={1: 1.0}).validate(ref_chain)


# kernel blocks ---------------------------------------------------------------

def _bits(a):
    return np.asarray(a).tobytes()


@st.composite
def _chain_block(draw):
    """A path or birth-death chain, p >= 0, and sorted distinct columns that
    hold the zero state or not."""
    if draw(st.booleans()):
        chain = draw(path_chains(absorbing=draw(st.booleans())))
    else:
        chain = birth_death_chain(draw(st.integers(2, 48)),
                                  draw(st.floats(0.5, 200.0)),
                                  kill_rate=draw(st.floats(0.1, 5.0)))
    n = chain.n_states
    cols = set(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    z = chain.zero_index
    if z is not None:
        if draw(st.booleans()):
            cols.add(z)
        elif len(cols) > 1:
            cols.discard(z)
    p = draw(st.one_of(st.just(0.0), st.floats(0.01, 5.0)))
    return chain, p, np.array(sorted(cols), dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(_chain_block())
def test_block_equals_full_table(case):
    chain, p, cols = case
    full = potential_matrix(chain, p)
    block = potential_matrix(chain, p, cols=cols)
    sub = np.ix_(cols, cols)
    assert _bits(block.table) == _bits(full.table[sub])
    assert block.states == tuple(chain.states[i] for i in cols)
    assert block.index == {x: k for k, x in enumerate(block.states)}
    z = chain.zero_index
    if p == 0.0 and z is not None and z in cols:
        killed = killed_at_zero_potential(block)
        assert _bits(killed.table) \
            == _bits(killed_at_zero_potential(full).table[sub])
        prof, whole = hitting_profile(block), hitting_profile(full)
        assert _bits(prof.h) == _bits(whole.h[cols])
        assert prof.u00 == whole.u00 and prof.states == block.states


@pytest.mark.parametrize("cols", [None, [0], [1], [0, 1], [0, 2], [3],
                                  [1, 2, 3]])
def test_negative_rate_fails_every_block(cols):
    # rates -2 between states 2 and 3: the precision is indefinite there,
    # and no block escapes the check, not even one away from those states
    Q = np.array([[-1.0, 1.0, 0.0, 0.0],
                  [1.0, -2.0, 1.0, 0.0],
                  [0.0, 1.0, 1.0, -2.0],
                  [0.0, 0.0, -2.0, 2.0]])
    chain = SymmetricChain(states=(0, 1, 2, 3), generator=Q,
                           measure=np.ones(4), kill_rate=1.0, zero_state=0,
                           zero_accessible=True, absorb_rate=np.zeros(4),
                           index={x: x for x in range(4)})
    assert np.linalg.eigvalsh(np.linalg.inv(np.eye(4) - Q)).min() < 0.0
    with pytest.raises(NotPSD, match="at state 2"):
        potential_matrix(chain, 0.0, cols=cols)


def test_ill_conditioned_resolvent_warns():
    # the reference chain at rate 1e13: Varah's bound ||A||_inf / min row
    # margin is (1 + 4e13) / 1, the 1-norm condition number of A
    chain = path_chain((-1, 0, 1), rate=1e13, coords=(-1.0, 0.0, 1.0))
    for cols in (None, [1], [0, 2]):
        with pytest.warns(RuntimeWarning, match="estimate 4.000e"):
            potential_matrix(chain, 0.0, cols=cols)
    # the 1025-state grid reads (1 + 4 * 128) / 1 = 513 and stays silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        potential_matrix(birth_death_chain(1024, 128.0), 0.0, cols=[512])
