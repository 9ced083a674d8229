"""Lockstep engine: agreement with the exact kernels and Kac's law, and path
bookkeeping."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rklab.batch as batch
from rklab.batch import (
    ABSORB,
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
    rebirthed_potential,
)
from plans import absorbed_path_chain, reference_chain
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
    # the crossing life held local time at 0
    assert np.all(out["fields"][kept][:, 1, zi] > 0.0)
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


def _kac(G, lam):
    """Kac's moment formula for one life with Green kernel G:
    E_y[exp(-<lam, L>)] = ((I + G Lambda)^-1 1)_y for every y."""
    return np.linalg.solve(np.eye(len(lam)) + G * lam[None, :],
                           np.ones(len(lam)))


def test_life_matches_kac_law():
    # the Laplace transform of a whole life's field, in law: u0 for a life
    # run to its death, the killed-at-0 kernel for a life stopped at 0.
    # Both starts reach 0 often enough that swapping the kernels fails.
    for chain, start in [(reference_chain(), -1),
                         (birth_death_chain(16, 8.0), 4)]:
        u0 = potential_matrix(chain, 0.0)
        lam = np.linspace(0.25, 1.0, chain.n_states)
        y = chain.state_index(start)
        for stop, G in [("death", u0.table),
                        ("zero", killed_at_zero_potential(u0).table)]:
            out = simulate(make_kernel(chain),
                           np.full(200_000, y, dtype=np.int64),
                           block_rng(33, 1, 0), stop=stop)
            weight = np.exp(-out["field"] @ lam)[:, None]
            assert _mean_within(weight, _kac(G, lam)[y]), (chain.n_states,
                                                           stop)


def test_clocked_discount_matches_rebirthed_kernel(nonuniform_chain):
    # the horizon stop at H0 plus an Exp(p) clock, with the clocked discount
    # record: the mean V row is the rebirthed p-potential W_p and the mean
    # rowsum is 1/p, with no truncation
    p = 0.7
    n = 200_000
    for chain, mu, start in [(nonuniform_chain, {-1: 0.5, 1: 0.5}, 0),
                             (absorbed_path_chain(), {2: 1.0}, -1)]:
        mu = RebirthMeasure(weights=mu)
        y = chain.state_index(start)
        rng = block_rng(34, 1, 0)
        clocks = rng.exponential(1.0 / p, n)
        out = simulate(make_kernel(chain), np.full(n, y, dtype=np.int64),
                       rng, stop="horizon", record="discount",
                       rebirth=mu_tables(chain, mu), levels=clocks,
                       horizon=np.log(20.0) / p, p=p,
                       cols=np.arange(chain.n_states))
        target = rebirthed_potential(chain, mu, p).table[y]
        assert _mean_within(out["V"], target), chain.n_states
        assert _mean_within(out["rowsum"], 1.0 / p), chain.n_states


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
    # the clocked discount record without levels: the lane stops in the
    # hold that reaches the switch time, and the discounted total time is
    # exactly (1 - e^{-p t})/p; with levels the stop waits for the clock
    p = 0.8
    for role, lv in [(8, None), (9, levels)]:
        out = run(role, starts, stop="horizon", record="discount",
                  rebirth=rebirth, levels=lv, horizon=2.0, p=p,
                  cols=np.arange(chain.n_states))
        assert np.all(out["t"] >= 2.0 + (0.0 if lv is None else lv))
        assert np.all(np.abs(out["V"] @ chain.measure - out["rowsum"])
                      < 1e-12)
        if lv is None:
            assert np.all(np.abs(out["rowsum"] + np.expm1(-p * out["t"]) / p)
                          < 1e-12)


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


# records of some states ------------------------------------------------------

@st.composite
def _cols_case(draw):
    absorbing = draw(st.booleans())
    chain, mu, start, r_max, seed = draw(_engine_case(absorbing=absorbing))
    stop = draw(st.sampled_from(
        ("death", "zero", "absorb", "horizon")
        + (() if absorbing else ("left", "right"))))
    record = draw(st.sampled_from(("total", "epochs")))
    kw = {}
    if record == "epochs" or draw(st.booleans()):
        kw["rebirth"] = mu_tables(chain, mu)
        # without r_max a reborn lane ends only at a level or the horizon
        if record == "epochs" or stop in ("death", "zero", "absorb") \
                or draw(st.booleans()):
            kw["r_max"] = r_max
            kw["track_min"] = draw(st.booleans())
    if stop == "horizon":
        kw["horizon"] = 1.5
    if stop in ("left", "right") \
            or (stop == "horizon" and draw(st.booleans())):
        kw["levels"] = block_rng(seed, 0, 0).exponential(0.5, 64)
    kw["clamp"] = draw(st.sampled_from(("strict", "total")))
    # any distinct states in any order; 0 tracked or not, possibly none
    cols = draw(st.lists(st.integers(0, chain.n_states - 1), unique=True,
                         max_size=chain.n_states))
    return chain, np.full(64, start, dtype=np.int64), seed, stop, record, \
        kw, cols


def _bits(a):
    a = np.ascontiguousarray(a)
    return a.dtype.str, a.shape, a.tobytes()


@settings(max_examples=150, deadline=None)
@given(_cols_case())
def test_cols_record_equals_full_record_columns(case):
    chain, starts, seed, stop, record, kw, cols = case
    kernel = make_kernel(chain)
    full = simulate(kernel, starts, block_rng(seed, 1, 0), stop=stop,
                    record=record, **kw)
    part = simulate(kernel, starts, block_rng(seed, 1, 0), stop=stop,
                    record=record, cols=cols, **kw)
    key = "field" if record == "total" else "fields"
    assert key not in part and set(part) - {key + "_cols"} == set(full) - {key}
    assert _bits(part[key + "_cols"]) == _bits(full[key][..., cols])
    for name in set(full) - {key}:
        assert _bits(part[name]) == _bits(full[name]), name


@pytest.mark.parametrize("cols", [[0, 0], [3], [-1], [[0, 1]]],
                         ids=["repeated", "past-the-end", "negative",
                              "two-dimensional"])
@pytest.mark.parametrize("record", ["total", "epochs", "discount"])
def test_simulate_rejects_bad_cols(ref_chain, record, cols):
    # a repeated state would leave one of its columns at 0
    kw = dict(rebirth=(np.array([2]), np.array([1.0])), r_max=2)
    if record == "discount":
        kw.update(stop="horizon", horizon=1.0, p=1.0)
    with pytest.raises(ValueError, match="cols must be distinct states"):
        simulate(make_kernel(ref_chain), np.zeros(16, dtype=np.int64),
                 block_rng(1, 1, 0), record=record, cols=cols, **kw)


# argument checks --------------------------------------------------------------

@pytest.mark.parametrize("kw", [
    dict(stop="left"),
    dict(stop="right", rebirth=(np.array([2]), np.array([1.0])), r_max=2),
    dict(stop="horizon"),
    dict(record="discount", p=1.0, cols=[0]),
    dict(stop="horizon", record="discount", horizon=1.0, cols=[0]),
    dict(stop="horizon", record="discount", horizon=1.0, p=1.0),
], ids=["left-no-levels", "right-no-levels", "horizon-no-horizon",
        "discount-no-horizon", "discount-no-p", "discount-no-cols"])
def test_simulate_rejects_incomplete_stop_arguments(ref_chain, kw):
    with pytest.raises(ValueError):
        simulate(make_kernel(ref_chain), np.zeros(16, dtype=np.int64),
                 block_rng(1, 1, 0), **kw)


# outcome draws at the thresholds ----------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.one_of(path_chains(), path_chains(absorbing=True)))
def test_outcome_draw_at_thresholds(chain):
    # at each stored threshold and one ulp either side (uniforms in [0, 1)
    # only), the flat-table draw equals the rule over the whole (n, K) rows
    kernel = make_kernel(chain)
    top = np.nextafter(1.0, 0.0)
    states, us = [], []
    for s, row in enumerate(kernel.out_cum):
        for u in [0.0, top] + [v for c in row for v in
                               (np.nextafter(c, -np.inf), c,
                                np.nextafter(c, np.inf))]:
            if 0.0 <= u < 1.0:
                states.append(s)
                us.append(u)
    s = np.array(states, dtype=np.int64)
    u = np.array(us)
    k = (u[:, None] >= kernel.out_cum[s]).sum(1)
    expected = kernel.out_next[s, k]
    assert np.array_equal(batch._outcome(kernel, s, u), expected)
    assert (expected == ABSORB).any() == (chain.absorb_rate > 0).any()


# the draw stream, pinned ------------------------------------------------------

def _stream_shapes():
    """(id, chain, starts, keyword arguments) of the pinned engine calls."""
    ref = reference_chain()
    grid = birth_death_chain(16, 8.0)
    absorbed = absorbed_path_chain()
    n = 512
    mixed = np.arange(n, dtype=np.int64) % 3
    rb = mu_tables(ref, RebirthMeasure(weights={-1: 0.3, 1: 0.7}))
    rb_grid = mu_tables(grid, RebirthMeasure(weights={4: 0.5, 12: 0.5}))
    rb_abs = mu_tables(absorbed, RebirthMeasure(weights={2: 1.0}))
    levels = block_rng(5, 0, 0).exponential(0.7, n)
    clocks = block_rng(5, 1, 0).exponential(1.0, n)
    zeros = np.full(n, ref.zero_index, dtype=np.int64)
    return [
        ("death-total", ref, mixed, {}),
        ("death-epochs", ref, mixed,
         dict(record="epochs", rebirth=rb, r_max=3)),
        ("zero-total", ref, mixed, dict(stop="zero")),
        ("zero-epochs", ref, mixed,
         dict(stop="zero", record="epochs", rebirth=rb, r_max=3)),
        ("zero-epochs-min", grid, np.full(n, 8, dtype=np.int64),
         dict(stop="zero", record="epochs", rebirth=rb_grid, r_max=2,
              track_min=True)),
        ("absorb-total", absorbed, np.arange(n, dtype=np.int64) % 4,
         dict(stop="absorb")),
        ("absorb-epochs", absorbed, np.full(n, 1, dtype=np.int64),
         dict(stop="absorb", record="epochs", rebirth=rb_abs, r_max=3)),
        ("left-strict", ref, zeros, dict(stop="left", levels=levels)),
        ("left-total-rebirth", ref, mixed,
         dict(stop="left", levels=levels, clamp="total", rebirth=rb,
              r_max=50)),
        ("right-total-rebirth", ref, mixed,
         dict(stop="right", levels=levels, rebirth=rb, r_max=50)),
        ("right-epochs", ref, mixed,
         dict(stop="right", record="epochs", levels=levels, rebirth=rb,
              r_max=2)),
        ("horizon-total", ref, mixed,
         dict(stop="horizon", rebirth=rb, horizon=2.0)),
        ("horizon-discount", ref, mixed,
         dict(stop="horizon", record="discount", rebirth=rb, horizon=3.0,
              p=1.0, cols=[0, 1, 2])),
        ("horizon-discount-grid", grid, np.full(n, 8, dtype=np.int64),
         dict(stop="horizon", record="discount", horizon=1.5, p=0.5,
              cols=[4, 8])),
        ("horizon-clock", ref, mixed,
         dict(stop="horizon", record="discount", rebirth=rb, levels=clocks,
              horizon=np.log(20.0), p=1.0, cols=[0, 2])),
        # records of some states: each digest of field_cols/fields_cols is
        # that of the same columns of the record of every state, and the
        # other outputs keep the digests of the shape without cols
        ("death-total-cols", ref, mixed, dict(cols=[2, 0])),
        ("zero-epochs-min-cols", grid, np.full(n, 8, dtype=np.int64),
         dict(stop="zero", record="epochs", rebirth=rb_grid, r_max=2,
              track_min=True, cols=[9, 1, 4])),
        ("left-strict-cols", ref, zeros,
         dict(stop="left", levels=levels, cols=[2])),
        ("right-epochs-cols", ref, mixed,
         dict(stop="right", record="epochs", levels=levels, rebirth=rb,
              r_max=2, cols=[1, 0])),
    ]


def _digest(value):
    a = np.ascontiguousarray(np.asarray(value))
    h = hashlib.sha256(a.dtype.str.encode() + str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()[:16]


# sha256 prefixes of every output of the calls above.  They fix the draw
# order documented in rklab.batch: an engine change that keeps it reproduces
# them.  They also depend on numpy's PCG64 streams and, for the discount
# shapes, on the platform's exp/expm1.
_STREAM_DIGESTS = {
    "death-total": {
        "t": "175b51e62b6d8c03",
        "stopped": "f3c6635d8c166cdc",
        "state": "9d2b0e50e556873f",
        "field": "958a82753f6f9805",
    },
    "death-epochs": {
        "t": "5fa27b90b8fb2c18",
        "stopped": "f3c6635d8c166cdc",
        "state": "59afd1c62b655f8c",
        "fields": "74ab6f602b3e82e8",
        "bounds": "30513046da99a208",
        "epochs": "57122712c8ec06c8",
        "stop_epoch": "e4249264cfe8930d",
    },
    "zero-total": {
        "t": "1e82330bdf5016aa",
        "stopped": "d9b0668dac2e4548",
        "state": "d7294c6b43face7e",
        "field": "2cb3abdf5c5873ce",
    },
    "zero-epochs": {
        "t": "d1aec185d8568240",
        "stopped": "7914eb0bfb247abe",
        "state": "40b84eec80115d42",
        "fields": "360adc5346bddaa8",
        "bounds": "5a35e8d583f49c01",
        "epochs": "0e1e23cdafca52ed",
        "stop_epoch": "b3624639d06fb239",
    },
    "zero-epochs-min": {
        "t": "8d6e96fd4c4f1699",
        "stopped": "2d850ee94b15d877",
        "state": "8882b905db71b857",
        "fields": "3b14cf0139566b82",
        "bounds": "80449ee1c47bccc7",
        "epochs": "b5ba024debf7aaa6",
        "stop_epoch": "4784a83bb2dd4b82",
        "min_index": "3c4b86a5f116762c",
    },
    "absorb-total": {
        "t": "b5826f1d9963734f",
        "stopped": "ed6e17ae1a967939",
        "state": "32ae1c6666cd8252",
        "field": "404f8f5125d8de55",
    },
    "absorb-epochs": {
        "t": "07695ad0151f3e42",
        "stopped": "b2ba5ad5a6e35f08",
        "state": "8c9b1478e00617e2",
        "fields": "1c9a93e281fc126a",
        "bounds": "5129f4595948218e",
        "epochs": "1bfe66c4c1a1d7cd",
        "stop_epoch": "83da538ccfebe69c",
    },
    "left-strict": {
        "t": "72e475dbb1d2583c",
        "stopped": "a78fd6c5bc951455",
        "state": "ef7f28efdac44c7b",
        "field": "d9f310a043bc95e6",
        "l0": "95a26364d72a8b3e",
    },
    "left-total-rebirth": {
        "t": "b2ca6be6f107d247",
        "stopped": "bfeba188e703ab45",
        "state": "5e5dab7b61ae2a9a",
        "field": "6bf1a43f5fb3978a",
        "epochs": "fcd5a7841535f433",
        "stop_epoch": "fcd5a7841535f433",
        "l0": "c769a10b9a7d6270",
    },
    "right-total-rebirth": {
        "t": "b2ca6be6f107d247",
        "stopped": "bfeba188e703ab45",
        "state": "5e5dab7b61ae2a9a",
        "field": "6bf1a43f5fb3978a",
        "epochs": "fcd5a7841535f433",
        "stop_epoch": "fcd5a7841535f433",
        "l0": "c769a10b9a7d6270",
        "ties": "ba553f9413e2fef9",
    },
    "right-epochs": {
        "t": "9463406eb334d3e7",
        "stopped": "205121cced582df1",
        "state": "45d4f1624a2ec316",
        "fields": "c16bc1c335afe48d",
        "bounds": "6c8792c89e46c7eb",
        "epochs": "be0dd82d2e0110fc",
        "stop_epoch": "7b8e4e06586172f7",
        "l0": "2904e5b6364dd5fa",
        "ties": "ba553f9413e2fef9",
    },
    "horizon-total": {
        "t": "bb14aed72da5ee22",
        "stopped": "bfeba188e703ab45",
        "state": "a1d6a44e19411c3c",
        "field": "ea26b0cd42d65204",
    },
    "horizon-discount": {
        "t": "9416486bd0b0184b",
        "stopped": "bfeba188e703ab45",
        "state": "b6f56de99a997f02",
        "V": "64d271a0d9f9cbd2",
        "rowsum": "f7b3b5d5cb27600c",
    },
    "horizon-discount-grid": {
        "t": "4f75fa5cb61bc386",
        "stopped": "999f4a7be7f247c0",
        "state": "1dacb81ca1b06a09",
        "V": "afdbee2c0bde1e3b",
        "rowsum": "ae580f7a9e82c1f3",
    },
    "horizon-clock": {
        "t": "72e2b9e9cff7c63a",
        "stopped": "bfeba188e703ab45",
        "state": "61289c1013bb9487",
        "V": "b1411a516327f7fb",
        "rowsum": "88e99fb63a5336a2",
    },
    "death-total-cols": {
        "t": "175b51e62b6d8c03",
        "stopped": "f3c6635d8c166cdc",
        "state": "9d2b0e50e556873f",
        "field_cols": "4511c91d0ec9237c",
    },
    "zero-epochs-min-cols": {
        "t": "8d6e96fd4c4f1699",
        "stopped": "2d850ee94b15d877",
        "state": "8882b905db71b857",
        "fields_cols": "9bb3a6778705aba4",
        "bounds": "80449ee1c47bccc7",
        "epochs": "b5ba024debf7aaa6",
        "stop_epoch": "4784a83bb2dd4b82",
        "min_index": "3c4b86a5f116762c",
    },
    "left-strict-cols": {
        "t": "72e475dbb1d2583c",
        "stopped": "a78fd6c5bc951455",
        "state": "ef7f28efdac44c7b",
        "field_cols": "728dd318c124a4a2",
        "l0": "95a26364d72a8b3e",
    },
    "right-epochs-cols": {
        "t": "9463406eb334d3e7",
        "stopped": "205121cced582df1",
        "state": "45d4f1624a2ec316",
        "fields_cols": "ea4babd31d5bfdba",
        "bounds": "6c8792c89e46c7eb",
        "epochs": "be0dd82d2e0110fc",
        "stop_epoch": "7b8e4e06586172f7",
        "l0": "2904e5b6364dd5fa",
        "ties": "ba553f9413e2fef9",
    },
}


@pytest.mark.parametrize("shape", _stream_shapes(), ids=lambda c: c[0])
def test_engine_stream_pinned(shape):
    name, chain, starts, kw = shape
    out = simulate(make_kernel(chain), starts, block_rng(20261018, 7, 0),
                   **kw)
    pinned = _STREAM_DIGESTS[name]
    assert {key: _digest(out[key]) for key in pinned} == pinned
