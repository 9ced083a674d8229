"""Exact kernel construction and its algebraic invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rklab.chains import (
    ChainSpec,
    Kind,
    RebirthMeasure,
    birth_death_chain,
    build_chain,
    hitting_profile,
    killed_at_zero_potential,
    potential_matrix,
    rebirthed_potential,
)
from rklab.errors import (
    DetailedBalanceViolation,
    InvariantError,
    NonPositiveMeasure,
    NonPositiveP,
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
