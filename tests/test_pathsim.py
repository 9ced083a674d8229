"""Path simulation: exact path identities of the lockstep engine, per stop."""

import numpy as np
import pytest

from rklab.batch import block_rng, make_kernel, mu_tables, simulate
from rklab.chains import (
    ChainSpec,
    RebirthMeasure,
    build_chain,
    hitting_profile,
    potential_matrix,
)
from rklab.selftest import absorbed_path_chain
from test_batch import _mean_within


def _run(chain, start, n, role, **kw):
    starts = np.full(n, chain.state_index(start), dtype=np.int64)
    return simulate(make_kernel(chain), starts, block_rng(41, role, 0), **kw)


def test_single_state_lifetime():
    spec = ChainSpec(states=("a",), rates={}, measure={"a": 1.0},
                     kill_rate=1.0, zero_state=0, zero_accessible=False)
    out = _run(build_chain(spec), "a", 20_000, 1)
    assert _mean_within(out["t"], 1.0)  # exponential lifetime of mean 1


def test_occupation_identity(nonuniform_chain):
    # the discounted occupation identity: without levels a lane stops in
    # the hold that reaches the switch time (or dies before it), so the
    # m-weighted discount record, split at the switch time, is exactly
    # (1 - e^{-p T}) / p at the end T of the run
    chain = nonuniform_chain
    p, horizon = 0.7, 1.5
    out = _run(chain, -1, 500, 2, stop="horizon", record="discount",
               horizon=horizon, p=p, cols=list(range(chain.n_states)))
    assert (out["t"] > horizon).any() and (out["t"] < horizon).any()
    target = -np.expm1(-p * out["t"]) / p
    assert np.all(np.abs(out["rowsum"] - target) < 1e-12)
    assert np.all(np.abs(out["V"] @ chain.measure - target) < 1e-12)


def test_epoch_mean_field(ref_chain):
    # Kac's moments of one life from y: E[L^a] = G(y, a) and
    # E[L^a L^b] = G(y, a) G(a, b) + G(y, b) G(b, a)
    G = potential_matrix(ref_chain, 0.0).table
    y = ref_chain.state_index(-1)
    field = _run(ref_chain, -1, 100_000, 3)["field"]
    assert _mean_within(field, G[y])
    pairs = (field[:, :, None] * field[:, None, :]).reshape(len(field), -1)
    second = G[y][:, None] * G + (G[y][:, None] * G).T
    assert _mean_within(pairs, second.ravel())


def test_trace_hit_zero(ref_chain, mu_plus):
    # lives are independent: the first reaches 0 with probability h(y),
    # each later one with h(mu), so the stopping life is geometric
    h = hitting_profile(potential_matrix(ref_chain, 0.0)).h
    h_y, h_mu = h[ref_chain.state_index(-1)], h[ref_chain.state_index(1)]
    out = _run(ref_chain, -1, 20_000, 4, stop="zero", record="epochs",
               rebirth=mu_tables(ref_chain, mu_plus), r_max=50)
    stop = out["stop_epoch"]
    assert _mean_within((stop == 1).astype(float), h_y)
    assert _mean_within((stop == 2).astype(float), (1 - h_y) * h_mu)
    # no life holds local time at 0: the stop fires on the first entry
    assert np.all(out["fields"][:, :, ref_chain.zero_index] == 0.0)


def test_trace_inverse_lt_fixed(ref_chain, mu_plus):
    t = 0.37
    zi = ref_chain.zero_index
    out = _run(ref_chain, -1, 2_000, 5, stop="left", levels=t,
               record="epochs", rebirth=mu_tables(ref_chain, mu_plus),
               r_max=50)
    kept = out["stop_epoch"] > 0
    assert np.all(out["l0"][kept] == t)  # exact by design
    # event identity: the level lies inside the stopping life's span of
    # zero local time and above every earlier one (the path is monotone)
    path = np.cumsum(out["fields"][kept][:, :, zi], axis=1)
    below = np.hstack([np.zeros((kept.sum(), 1)), path[:, :-1]])
    stop = out["stop_epoch"][kept] - 1
    lanes = np.arange(kept.sum())
    assert np.all(below[lanes, stop] < t)
    assert np.all(np.abs(path[lanes, stop] - t) <= 1e-12)


def test_trace_inverse_lt_exp(ref_chain):
    # one life from 0 holds an exponential zero local time of mean u00, so an
    # Exp(1) level is passed with probability u00 / (1 + u00)
    zi = ref_chain.zero_index
    u00 = potential_matrix(ref_chain, 0.0).table[zi, zi]
    levels = block_rng(41, 0, 0).exponential(1.0, 50_000)
    out = _run(ref_chain, 0, 50_000, 6, stop="right", levels=levels)
    hit = out["stopped"]
    assert np.all(out["field"][hit, zi] == levels[hit])
    assert _mean_within(hit.astype(float), u00 / (1.0 + u00))


def test_trace_absorbed():
    chain = absorbed_path_chain()
    out = _run(chain, -1, 2_000, 7, stop="absorb", record="epochs",
               rebirth=mu_tables(chain, RebirthMeasure(weights={2: 1.0})),
               r_max=50)
    kept = out["stop_epoch"] > 0
    last = out["stop_epoch"][kept] - 1
    lanes = np.arange(kept.sum())
    # the absorbing jump leaves from a neighbour of 0 and ends the life:
    # the left-limit hitting time is the lifetime
    assert np.all(chain.absorb_rate[out["state"][kept]] > 0)
    assert np.array_equal(out["bounds"][kept][lanes, last], out["t"][kept])


def test_absorbed_epochs_qc():
    # one life is absorbed before it is killed with probability
    # ((beta I - Q)^-1 a)_y, a the absorption rates
    chain = absorbed_path_chain()
    resolvent = potential_matrix(chain, 0.0).table * chain.measure[None, :]
    out = _run(chain, -1, 20_000, 8, stop="absorb")
    absorbed = out["stopped"]
    target = (resolvent @ chain.absorb_rate)[chain.state_index(-1)]
    assert _mean_within(absorbed.astype(float), target)
    assert np.all(chain.absorb_rate[out["state"][absorbed]] > 0)


def test_stop_rule_validation(ref_chain):
    starts = np.zeros(8, dtype=np.int64)
    absorbed = make_kernel(absorbed_path_chain())
    rng = block_rng(41, 9, 0)
    with pytest.raises(ValueError):  # no zero state to hold a level at
        simulate(absorbed, starts, rng, stop="left", levels=1.0)
    with pytest.raises(ValueError):
        simulate(make_kernel(ref_chain), starts, rng, stop="hit")
    with pytest.raises(ValueError):  # per-life records need rebirth, r_max
        simulate(make_kernel(ref_chain), starts, rng, record="epochs")


def test_epoch_budget(ref_chain, mu_plus):
    out = _run(ref_chain, -1, 500, 10, stop="left", levels=1e9,
               rebirth=mu_tables(ref_chain, mu_plus), r_max=3)
    assert not out["stopped"].any()
    assert np.all(out["stop_epoch"] == 0) and np.all(out["epochs"] == 3)


def test_inverse_local_time_linear(nonuniform_chain):
    # inside the visit that crosses the level, the inverse is the time spent
    # off 0 plus level * m0, for both inverses
    chain = nonuniform_chain
    zi = chain.zero_index
    m = chain.measure
    levels = np.full(5_000, 0.4)
    for stop in ("left", "right"):
        out = _run(chain, -1, 5_000, 11, stop=stop, levels=levels)
        hit = out["stopped"]
        off = np.delete(out["field"][hit], zi, axis=1) @ np.delete(m, zi)
        assert np.all(np.abs(out["t"][hit] - (off + levels[hit] * m[zi]))
                      <= 1e-12 * np.maximum(1.0, out["t"][hit]))


def test_inverse_sides_agree(ref_chain, mu_plus):
    # off the null set of ties, the left and right inverses coincide: the
    # same draws give the same outputs
    levels = block_rng(41, 0, 1).exponential(1.0, 5_000)
    for kw in ({}, dict(rebirth=mu_tables(ref_chain, mu_plus), r_max=10)):
        left = _run(ref_chain, 0, 5_000, 12, stop="left", levels=levels,
                    **kw)
        right = _run(ref_chain, 0, 5_000, 12, stop="right", levels=levels,
                     **kw)
        assert right.pop("ties") == 0
        assert left.keys() == right.keys()
        for key in left:
            assert np.array_equal(left[key], right[key]), key


def test_inverse_sides_split_at_a_tie(ref_chain):
    # at a level equal to the zero local time at the end of a visit, the
    # left inverse (>=) stops in that visit and the right one (>) does not.
    # One lane per run, so that a stop does not shift the other lanes' draws.
    kernel = make_kernel(ref_chain)
    zi = ref_chain.zero_index
    start = np.array([zi])
    for lane in range(300):
        def run(**kw):
            return simulate(kernel, start, block_rng(41, 15, lane), **kw)

        end = run(stop="left", levels=np.inf, clamp="total")["l0"]
        left = run(stop="left", levels=end)
        right = run(stop="right", levels=end)
        assert left["stopped"][0] and left["field"][0, zi] == end[0]
        assert not right["stopped"][0] and right["ties"] == 1


def test_f_field_limits(ref_chain):
    # at level 0 the left inverse is the hitting time of 0: nothing is held
    # at 0, and a stopped lane stands at 0
    zi = ref_chain.zero_index
    out = _run(ref_chain, 1, 5_000, 13, stop="left", levels=0.0)
    assert np.all(out["field"][:, zi] == 0.0)
    assert np.all(out["state"][out["stopped"]] == zi)
    assert np.all(out["field"] >= 0.0)


def test_f_field_total_at_infinity(ref_chain):
    # the total clamp returns the whole life at an infinite level, whose
    # mean from a start at 0 is the plain kernel row
    zi = ref_chain.zero_index
    u0 = potential_matrix(ref_chain, 0.0)
    out = _run(ref_chain, 0, 60_000, 14, stop="left", levels=np.inf,
               clamp="total")
    assert not out["stopped"].any()
    assert _mean_within(out["field"], u0.table[zi])


def test_manual_two_epoch_trace(ref_chain, mu_plus):
    # the per-life fields of a trace add up to its total field: the epochs
    # record and the total record see the same draws
    rebirth = mu_tables(ref_chain, mu_plus)
    kw = dict(stop="zero", rebirth=rebirth, r_max=4)
    total = _run(ref_chain, -1, 2_000, 15, **kw)
    lives = _run(ref_chain, -1, 2_000, 15, record="epochs", **kw)
    assert np.array_equal(total["t"], lives["t"])
    assert np.array_equal(total["stop_epoch"], lives["stop_epoch"])
    summed = lives["fields"].sum(axis=1)
    assert np.all(np.abs(summed - total["field"])
                  <= 1e-12 * np.maximum(1.0, total["field"]))
