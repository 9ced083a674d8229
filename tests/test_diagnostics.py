"""Reduction identity and the non-gating ratio sweeps."""

import numpy as np
import pytest

from rklab import diagnostics
from rklab.batch import make_kernel
from rklab.chains import (
    RebirthMeasure,
    birth_death_chain,
    hitting_profile,
    killed_at_zero_potential,
    potential_matrix,
)
from rklab.config import parse_config
from rklab.diagnostics import (
    SweepConfig,
    SweepResult,
    lil_sweep,
    local_modulus_sweep,
    reduction_identity_test,
    uniform_modulus_sweep,
)
from rklab.errors import (
    ConditioningTooRare,
    GridTooCoarse,
    InvariantError,
    SchemaError,
)
from rklab.harnesses import TestPlan
from plans import reduction_chain


def _reduction_plan(replicates=40_000, seed=300, **kw):
    chain = reduction_chain()
    base = dict(chain=chain, mu=RebirthMeasure(weights={32: 1.0}), start=64,
                replicates=replicates, seed=seed, test_points=(16, 32, 64),
                r=2)
    base.update(kw)
    return TestPlan(**base)


def test_reduction_passes():
    rep = reduction_identity_test(_reduction_plan(), (0.5, 0.25, 0.125))
    assert rep.verdict, f"max |z| = {rep.max_abs_z():.2f}"
    viol = [r for r in rep.rows
            if r.statistic == "early_life_support_violations"][0]
    assert viol.lhs == 0.0
    info = [r for r in rep.rows if not r.gating]
    assert info, "single-life rows must be reported as informational"


def test_reduction_whole_interval():
    # sup over the whole grid: both sides become total suprema and the
    # in-law identity still holds
    rep = reduction_identity_test(_reduction_plan(seed=301), (1.0, 0.5))
    assert rep.verdict, f"max |z| = {rep.max_abs_z():.2f}"


def test_reduction_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        reduction_identity_test(_reduction_plan(), (0.03,))


def _rhs_block(chain, y, mu, r, keep, seed, b, size=8192):
    # singleton sups: column i of each returned row is the field at keep[i]
    dpos = [np.array([i]) for i in range(len(keep))]
    _, (hit, die) = diagnostics._conditioned_lives(
        make_kernel(chain), RebirthMeasure(weights=mu).vector(chain))
    return diagnostics._blk_reduction_rhs(hit, die, chain.state_index(y), r,
                                          keep, dpos, size, seed, 9, b)


@pytest.mark.parametrize("r,mu", [(2, {8: 1.0}), (3, {8: 1.0}),
                                  (3, {8: 0.5, 24: 0.5})],
                         ids=["2", "3", "3-two-atoms"])
def test_reduction_rhs_matches_exact_kernels(r, mu):
    # the summed lives have mean field ut0(y, x) g(x) / g(y) for the life
    # from y that never hits 0, (r - 2) <mu, ut0(., x)> g(x) / <mu, g> for
    # the middle lives and <mu, ut0(., x)> h(x) / <mu, h> for the life that
    # hits 0, with h the hitting profile, g = 1 - h and ut0 the kernel
    # killed at 0; with two atoms the starts follow mu tilted by g or h
    chain = reduction_chain()
    y = 16
    keep = np.array([chain.state_index(x) for x in (4, 8, 16, 32, 64)])
    pot = potential_matrix(chain, 0.0)
    ut0 = killed_at_zero_potential(pot).table
    h = hitting_profile(pot).h
    g = 1.0 - h
    yi = chain.state_index(y)
    m = RebirthMeasure(weights=mu).vector(chain)
    exact = (ut0[yi, keep] * g[keep] / g[yi]
             + (r - 2) * (m @ ut0[:, keep]) * g[keep] / (m @ g)
             + (m @ ut0[:, keep]) * h[keep] / (m @ h))
    sups = np.concatenate([_rhs_block(chain, y, mu, r, keep, seed, b)["sups"]
                           for seed in (1, 2) for b in range(3)])
    z = (sups.mean(axis=0) - exact) \
        / (sups.std(axis=0) / np.sqrt(sups.shape[0]))
    assert np.all(np.abs(z) <= 4.0), z


def _counting_simulate(monkeypatch):
    """Replace the engine of the reduction by one that records, per call,
    the record kind, the lanes and how many of them stopped."""
    calls = []
    simulate = diagnostics.simulate

    def counted(kernel, starts, rng, **kw):
        out = simulate(kernel, starts, rng, **kw)
        calls.append((kw.get("record", "total"), len(starts),
                      int(out["stopped"].sum())))
        return out

    monkeypatch.setattr(diagnostics, "simulate", counted)
    return calls


def test_reduction_rhs_draws_exactly_the_kept_pairs(monkeypatch):
    # one sum of lives per kept trace, none rejected: per block a part of
    # lives that all enter 0, then the early parts (from y, then from mu),
    # of the same size, none of whose lives enters 0
    calls = _counting_simulate(monkeypatch)
    rep = reduction_identity_test(
        _reduction_plan(replicates=10_000, seed=303, r=3,
                        mu=RebirthMeasure(weights={16: 1.0})), (0.25,))
    rhs = [(lanes, stopped) for record, lanes, stopped in calls
           if record == "total"]  # the left side records per life
    assert len(rhs) == 3  # 2000-odd pairs fill one block
    (lanes, hit), early = rhs[0], rhs[1:]
    assert lanes == hit == rep.n_lhs == rep.n_rhs
    assert early == [(lanes, 0)] * 2


def test_reduction_too_rare_draws_no_right_side(monkeypatch):
    # the shipped plan keeps 762 of 1e4 traces, below MIN_CONDITIONED: the
    # plan is refused after the left side, before any right-side life
    calls = _counting_simulate(monkeypatch)
    plan = _reduction_plan(replicates=10_000, seed=20260810,
                           mu=RebirthMeasure(weights={32: 1.0}))
    with pytest.raises(ConditioningTooRare, match="only 762 of 10000"):
        reduction_identity_test(plan, (0.5,))
    assert [record for record, _, _ in calls] == ["epochs", "epochs"]


def test_reduction_kept_fraction_sees_a_wrong_rebirth_site(monkeypatch):
    # the kept fraction is gated against g(y) <mu, h> from the exact
    # kernels: traces reborn at 8 instead of the plan's 16 fail there
    plan = _reduction_plan(replicates=10_000, seed=304,
                           mu=RebirthMeasure(weights={16: 1.0}))

    def kept(rep):
        return [r for r in rep.rows if r.statistic == "exact:kept_fraction"]

    (row,) = kept(reduction_identity_test(plan, (0.25,)))
    assert row.gating and abs(row.z) <= plan.z_max
    monkeypatch.setattr(diagnostics, "mu_tables", lambda chain, mu: (
        np.array([chain.state_index(8)]), np.array([1.0])))
    rep = reduction_identity_test(plan, (0.25,))
    (row,) = kept(rep)
    assert not rep.verdict and row.z > 8.0, row.z


def _sweep_cfg(n=64, rate=256.0, **kw):
    chain = birth_death_chain(n, rate)
    base = dict(chain=chain, mu=RebirthMeasure(weights={n // 4: 1.0}),
                start=n // 2, replicates=16, seed=42,
                scales=(0.25, 0.125), stop_kind="zero")
    base.update(kw)
    return SweepConfig(**base)


def test_sweep_result_invariants():
    with pytest.raises(InvariantError):
        SweepResult(sweep_id="x", scales=(0.1, 0.2), ratios=(1.0, 1.0),
                    target=1.0, replicates=8, seed=1)
    with pytest.raises(InvariantError):
        SweepResult(sweep_id="x", scales=(0.2, 0.1),
                    ratios=(1.0, float("nan")), target=1.0, replicates=8,
                    seed=1)


def test_local_modulus_frozen_field():
    cfg = _sweep_cfg(d=32)
    fields = np.full((16, cfg.chain.n_states), 3.0)  # constant profile
    res = local_modulus_sweep(cfg, fields=fields)
    assert res.ratios == (0.0, 0.0)
    assert len(res.ratios) == len(res.scales)


def test_uniform_modulus_frozen_field():
    cfg = _sweep_cfg(interval=(0.25, 0.75))
    fields = np.full((16, cfg.chain.n_states), 2.0)
    res = uniform_modulus_sweep(cfg, fields=fields)
    assert res.ratios == (0.0, 0.0)


def test_lil_zero_field():
    cfg = _sweep_cfg()
    fields = np.zeros((16, cfg.chain.n_states))
    res = lil_sweep(cfg, fields=fields)
    assert res.ratios == (0.0, 0.0)
    assert len(res.ratios) == len(res.scales)


def test_sweeps_record_band(tmp_path):
    cfg = _sweep_cfg(n=128, rate=512.0, replicates=32, d=64,
                     scales=(0.25, 0.125, 0.0625))
    res = local_modulus_sweep(cfg)
    assert len(res.ratios) == 3
    assert np.isfinite(res.finest_median)
    d = res.to_dict()
    assert d["gating"] is False and "within_factor2_band" in d
    from rklab.reporting import write_sweep_csv

    path = tmp_path / "sweep.csv"
    write_sweep_csv(res, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "scale,statistic,target,replicates,seed"
    assert len(lines) == 4


def test_grid_too_coarse_sweep():
    with pytest.raises(GridTooCoarse):
        _sweep_cfg(n=16, rate=64.0, scales=(0.25, 0.125), d=8)
        local_modulus_sweep(_sweep_cfg(n=16, rate=64.0,
                                       scales=(0.25, 0.125), d=8))


def test_uniform_window_narrower_than_scale():
    # 13 grid points in [0.3, 0.5] hold no pair 0.25 apart
    cfg = _sweep_cfg(interval=(0.3, 0.5))
    with pytest.raises(GridTooCoarse, match="narrower than the largest"):
        uniform_modulus_sweep(cfg, fields=np.ones((16, cfg.chain.n_states)))


def test_loglog_scale_ceiling():
    cfg = _sweep_cfg(scales=(0.5, 0.25))
    with pytest.raises(InvariantError):
        lil_sweep(cfg, fields=np.zeros((16, cfg.chain.n_states)))


def test_uniform_rejects_loglog():
    # the correction is fixed per sweep: log here, and no config chooses it
    cfg = _sweep_cfg(interval=(0.25, 0.75))
    res = uniform_modulus_sweep(cfg, fields=np.ones((16, cfg.chain.n_states)))
    assert res.metadata["phi_kind"] == "log"
    doc = """
harness: modulus-uniform
chain: {kind: birth-death, n: 64, rate: 256.0}
mu: {16: 1.0}
start: 32
plan: {replicates: 16, scales: [0.25, 0.125], interval: [0.25, 0.75],
       phi_kind: loglog}
seed: 1
"""
    with pytest.raises(SchemaError, match="phi_kind"):
        parse_config(doc)


def test_sweep_rejects_unknown_stop():
    with pytest.raises(InvariantError, match="unknown sweep stop"):
        _sweep_cfg(stop_kind="horizon")
