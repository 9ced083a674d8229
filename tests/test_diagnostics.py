"""Reduction identity and the non-gating ratio sweeps."""

import numpy as np
import pytest

from rklab.chains import RebirthMeasure, birth_death_chain
from rklab.config import parse_config
from rklab.diagnostics import (
    SweepConfig,
    SweepResult,
    lil_sweep,
    local_modulus_sweep,
    reduction_identity_test,
    uniform_modulus_sweep,
)
from rklab.errors import GridTooCoarse, InvariantError, SchemaError
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
