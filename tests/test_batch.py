"""Lockstep engine: agreement with the scalar engine and the exact kernels,
and path bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rklab.batch import (
    block_plan,
    block_rng,
    make_kernel,
    mu_tables,
    simulate,
)
from rklab.chains import (
    RebirthMeasure,
    birth_death_chain,
    hitting_profile,
    killed_at_zero_potential,
    potential_matrix,
    reference_chain,
)
from rklab.pathsim import Mode, run_epoch
from rklab.selftest import absorbed_path_chain
from strategies import path_chains


def test_block_plan():
    assert block_plan(5) == [5]
    sizes = block_plan(20_000)
    assert sum(sizes) == 20_000
    assert all(s <= 8192 for s in sizes)


def test_batch_determinism(ref_chain):
    k = make_kernel(ref_chain)
    a = simulate(k, np.zeros(500, dtype=np.int64), block_rng(1, 2, 3))
    b = simulate(k, np.zeros(500, dtype=np.int64), block_rng(1, 2, 3))
    assert np.array_equal(a["field"], b["field"])
    c = simulate(k, np.zeros(500, dtype=np.int64), block_rng(1, 2, 4))
    assert not np.array_equal(a["field"], c["field"])


def test_batch_epochs_match_kernel(ref_chain):
    k = make_kernel(ref_chain)
    u0 = potential_matrix(ref_chain, 0.0)
    n = 200_000
    out = simulate(k, np.full(n, 2, dtype=np.int64), block_rng(9, 1, 0))
    mean = out["field"].mean(axis=0)
    se = out["field"].std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(mean - u0.table[2]) <= 4 * se)
    # occupation identity holds for the bulk engine too
    elapsed = out["field"] @ ref_chain.measure
    assert np.abs(elapsed - out["t"]).max() < 1e-10


def test_batch_scalar_two_sample(ref_chain):
    # same law from both engines: killed-life hit fraction and field moments
    k = make_kernel(ref_chain)
    n = 30_000
    out = simulate(k, np.full(n, 0, dtype=np.int64), block_rng(4, 1, 0),
                   stop="zero")
    hit_batch = out["stopped"]
    rng = np.random.default_rng(21)
    fields = []
    hits = []
    for _ in range(n // 3):
        rec = run_epoch(ref_chain, -1, Mode.KILL_ONLY, rng)
        hits.append(rec.hit_zero_at is not None)
        fields.append(rec.local_field_at_t0 if rec.hit_zero_at is not None
                      else rec.local_field_total)
    p1, p2 = hit_batch.mean(), np.mean(hits)
    se = np.sqrt(p1 * (1 - p1) / n + np.var(hits) / len(hits))
    assert abs(p1 - p2) < 4 * se
    f_scalar = np.array(fields)
    f_batch = out["field"]
    diff = f_batch.mean(0) - f_scalar.mean(0)
    se = np.sqrt(f_batch.var(0) / n + f_scalar.var(0) / len(fields))
    assert np.all(np.abs(diff) <= 4 * se)


def test_levelstop_zero_entry_bookkeeping(ref_chain):
    k = make_kernel(ref_chain)
    n = 20_000
    t = 0.4
    zi = ref_chain.zero_index
    out = simulate(k, np.full(n, zi, dtype=np.int64), block_rng(5, 1, 0),
                   stop="left", levels=np.full(n, t))
    reached = out["stopped"]
    # the zero local time of the result equals level ^ total, exactly
    assert np.all(out["field"][reached][:, zi] == t)
    clamped = out["field"][~reached][:, zi]
    assert np.all(np.abs(clamped - out["l0"][~reached]) < 1e-12)


def test_traces_stop_zero_bookkeeping(ref_chain, mu_plus):
    k = make_kernel(ref_chain)
    mu_idx, mu_cum = mu_tables(ref_chain, mu_plus)
    n = 20_000
    out = simulate(k, np.full(n, 0, dtype=np.int64), block_rng(6, 1, 0),
                   stop="zero", record="epochs", rebirth=(mu_idx, mu_cum),
                   r_max=3)
    stop = out["stop_epoch"]
    assert set(np.unique(stop)) <= {0, 1, 2, 3}
    kept = stop == 2
    # the stopping epoch never holds the zero state; earlier epochs neither
    zi = ref_chain.zero_index
    assert np.all(out["fields"][kept][:, :, zi] == 0.0)
    # the stop lands strictly inside the final life
    assert np.all(out["t"][kept] > out["bounds"][kept][:, 0])


def test_traces_inverse_lt_bookkeeping(ref_chain, mu_plus):
    k = make_kernel(ref_chain)
    mu_idx, mu_cum = mu_tables(ref_chain, mu_plus)
    n = 20_000
    rng = block_rng(7, 1, 0)
    levels = rng.exponential(1.0, n)
    out = simulate(k, np.full(n, 0, dtype=np.int64), rng, stop="right",
                   record="epochs", rebirth=(mu_idx, mu_cum), r_max=2,
                   levels=levels)
    kept = out["stop_epoch"] == 2
    zi = ref_chain.zero_index
    total0 = out["fields"][kept].sum(axis=1)[:, zi]
    lam = levels[kept]
    assert np.abs(total0 - lam).max() < 1e-12 * max(1.0, lam.max())
    assert out["ties"] == 0
    # crossing epoch saw the zero state
    assert not np.any(np.isnan(out["ep_t0"][kept][:, 1]))
    # first epoch ended below its level
    assert np.all(out["fields"][kept][:, 0, zi] < lam)


def test_traces_final_stops(ref_chain, mu_plus):
    k = make_kernel(ref_chain)
    mu_idx, mu_cum = mu_tables(ref_chain, mu_plus)
    n = 5_000
    zi = ref_chain.zero_index
    rebirth = (mu_idx, mu_cum)
    out = simulate(k, np.full(n, 0, dtype=np.int64), block_rng(8, 1, 0),
                   stop="zero", rebirth=rebirth, r_max=10**6)
    assert np.all(out["field"][:, zi] == 0.0)
    out = simulate(k, np.full(n, 0, dtype=np.int64), block_rng(8, 2, 0),
                   stop="right", rebirth=rebirth, r_max=10**6,
                   levels=np.full(n, 0.3))
    assert np.all(out["field"][:, zi] == 0.3)

    chain = absorbed_path_chain()
    k2 = make_kernel(chain)
    mu2 = RebirthMeasure(weights={2: 1.0})
    mi, mc = mu_tables(chain, mu2)
    out = simulate(k2, np.full(n, 0, dtype=np.int64), block_rng(8, 3, 0),
                   stop="absorb", rebirth=(mi, mc), r_max=10**6)
    assert np.all(out["stopped"])
    assert np.all(np.isfinite(out["t"]))


def test_absorbed_epochs_batch():
    chain = absorbed_path_chain()
    k = make_kernel(chain)
    out = simulate(k, np.full(10_000, 1, dtype=np.int64),
                   block_rng(12, 1, 0), stop="absorb")
    absorbed = out["stopped"]
    assert absorbed.mean() > 0.2
    # absorbed lives end next to 0, killed ones anywhere
    assert np.all(chain.absorb_rate[out["state"][absorbed]] > 0)
    assert np.abs(out["field"] @ chain.measure - out["t"]).max() < 1e-10


# agreement with the exact kernels ---------------------------------------------

def _mean_within(samples, target, z=4.0):
    mean = samples.mean(axis=0)
    se = samples.std(axis=0) / np.sqrt(samples.shape[0])
    return np.all(np.abs(mean - target) <= z * se + 1e-12)


@pytest.mark.parametrize("chain,start", [
    (reference_chain(), -1),
    (birth_death_chain(16, 8.0), 12),
], ids=["reference", "grid17"])
def test_zero_stopped_life_matches_killed_kernel(chain, start):
    # a life stopped at its entry into 0 is a life of the chain killed at 0
    target = killed_at_zero_potential(potential_matrix(chain, 0.0))
    y = chain.state_index(start)
    out = simulate(make_kernel(chain), np.full(200_000, y, dtype=np.int64),
                   block_rng(31, 1, 0), stop="zero")
    assert _mean_within(out["field"], target.table[y])


@pytest.mark.parametrize("chain", [reference_chain(),
                                   birth_death_chain(16, 8.0)],
                         ids=["reference", "grid17"])
def test_left_level_life_matches_clamp_mean(chain):
    # from 0, stopped at zero local time t and clamped strictly: the mean
    # field is h(x)^2 u00 (1 - e^{-t/u00}), the Markov term of second-rk
    prof = hitting_profile(potential_matrix(chain, 0.0))
    t = 0.5 * prof.u00
    target = prof.h ** 2 * prof.u00 * -np.expm1(-t / prof.u00)
    kernel = make_kernel(chain)
    zi = chain.zero_index
    fields = [simulate(kernel, np.full(100_000, zi, dtype=np.int64),
                       block_rng(32, 1, b), stop="left",
                       levels=t)["field"] for b in range(10)]
    assert _mean_within(np.concatenate(fields), target)


# bookkeeping on random chains -------------------------------------------------

def _check_run(chain, out, levels=None, r_max=None):
    m = chain.measure
    t = out["t"]
    field = out["field"] if "field" in out else out["fields"].sum(axis=1)
    # occupation identity: the m-weighted field is the elapsed time
    assert np.all(np.abs(field @ m - t) <= 1e-10 * np.maximum(1.0, t))
    if r_max is not None:
        stop = out["stop_epoch"]
        assert stop.min() >= 0 and stop.max() <= r_max
        assert np.array_equal(stop > 0, out["stopped"])
        if "bounds" in out:
            # a stop lies after the end of the previous life
            late = np.flatnonzero(stop >= 2)
            assert np.all(t[late] > out["bounds"][late, stop[late] - 2])
    if levels is not None:
        crossed = out["stopped"]
        zi = chain.zero_index
        assert np.all(out["l0"][crossed] == levels[crossed])
        if "field" in out:
            assert np.all(out["field"][crossed, zi] == levels[crossed])
        else:
            lam = levels[crossed]
            assert np.all(np.abs(field[crossed, zi] - lam)
                          <= 1e-12 * np.maximum(1.0, lam))


@st.composite
def _engine_case(draw, absorbing=False):
    chain = draw(path_chains(absorbing=absorbing))
    labels = [x for x in chain.states if x != 0]
    weights = [draw(st.floats(0.1, 1.0)) for _ in labels]
    mu = RebirthMeasure(weights={x: w / sum(weights)
                                 for x, w in zip(labels, weights)})
    start = chain.state_index(draw(st.sampled_from(chain.states)))
    return chain, mu, start, draw(st.integers(1, 3)), draw(st.integers(0, 99))


@settings(max_examples=60, deadline=None)
@given(_engine_case())
def test_engine_bookkeeping_property(case):
    chain, mu, start, r_max, seed = case
    kernel = make_kernel(chain)
    rebirth = mu_tables(chain, mu)
    n = 64
    starts = np.full(n, start, dtype=np.int64)
    levels = block_rng(seed, 0, 0).exponential(0.5, n)
    zero_starts = np.full(n, chain.zero_index, dtype=np.int64)

    def run(role, starts, **kw):
        return simulate(kernel, starts, block_rng(seed, role, 0), **kw)

    _check_run(chain, run(1, starts))
    _check_run(chain, run(2, starts, stop="zero", rebirth=rebirth,
                          r_max=r_max), r_max=r_max)
    _check_run(chain, run(3, starts, stop="zero", record="epochs",
                          rebirth=rebirth, r_max=r_max), r_max=r_max)
    _check_run(chain, run(4, zero_starts, stop="left", levels=levels,
                          clamp="total"), levels=levels)
    _check_run(chain, run(5, starts, stop="right", rebirth=rebirth,
                          r_max=r_max, levels=levels),
               levels=levels, r_max=r_max)
    _check_run(chain, run(6, starts, stop="right", record="epochs",
                          rebirth=rebirth, r_max=r_max, levels=levels),
               levels=levels, r_max=r_max)
    out = run(7, starts, stop="horizon", rebirth=rebirth, horizon=2.0)
    _check_run(chain, out)
    assert np.all(out["stopped"]) and np.all(out["t"] >= 2.0)


@settings(max_examples=60, deadline=None)
@given(_engine_case(absorbing=True))
def test_engine_absorb_property(case):
    chain, mu, start, r_max, seed = case
    kernel = make_kernel(chain)
    starts = np.full(64, start, dtype=np.int64)
    out = simulate(kernel, starts, block_rng(seed, 8, 0), stop="absorb",
                   record="epochs", rebirth=mu_tables(chain, mu), r_max=r_max)
    _check_run(chain, out, r_max=r_max)
    # an absorption leaves from a state next to 0
    assert np.all(chain.absorb_rate[out["state"][out["stopped"]]] > 0)
