"""Acceptance suite: every criterion at its published tolerance.

One test per criterion; each prints a PASS/FAIL line (run pytest with -s to
see them inline).  Simulation sizes and tolerances are pinned here and are
not configurable: 4 pooled standard errors for statistical gates, 1e-10 for
kernel algebra, 1e-12 for exact path identities.
"""

import json
import time

import numpy as np
import pytest

from rklab import cli
from rklab.batch import block_rng, make_kernel, mu_tables, simulate
from rklab.chains import (
    RebirthMeasure,
    hitting_profile,
    killed_at_zero_potential,
    potential_matrix,
    rebirthed_potential,
)
from rklab.config import load_config
from rklab.diagnostics import (
    SweepConfig,
    lil_sweep,
    local_modulus_sweep,
    reduction_identity_test,
    uniform_modulus_sweep,
)
from rklab.gaussfield import factor_covariance, second_rk_composites_block
from rklab.harnesses import REGISTRY, TestPlan
from rklab.reporting import write_sweep_csv
from plans import absorbed_path_chain, reduction_chain, ref_plan

SEED = 20260810
N_FULL = 200_000

def _verdict_line(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_01_exact_oracles(ref_chain, mu_plus):
    t0 = time.perf_counter()
    tol = 1e-10
    u0 = potential_matrix(ref_chain, 0.0)
    u1 = potential_matrix(ref_chain, 1.0)
    ut = killed_at_zero_potential(u0)
    prof = hitting_profile(u0)
    w1 = rebirthed_potential(ref_chain, mu_plus, 1.0)
    checks = [
        np.abs(u0.table - np.array([[5, 2, 1], [2, 4, 2], [1, 2, 5]]) / 8
               ).max() < tol,
        np.abs(u1.table - np.array([[11, 3, 1], [3, 9, 3], [1, 3, 11]]) / 30
               ).max() < tol,
        abs(ut.value(-1, -1) - 0.5) < tol,
        abs(ut.value(-1, 1)) < tol,
        abs(prof.value(-1) - 0.5) < tol,
        abs(prof.value(1) - 0.5) < tol,
        abs(w1.value(-1, -1) - 0.4) < tol,
    ]
    elapsed = time.perf_counter() - t0
    _verdict_line(1, all(checks) and elapsed < 1.0,
                  f"exact kernel oracles to 1e-10 in {elapsed:.3f}s")


def test_criterion_02_structural_invariants(ref_chain, mu_plus,
                                            nonuniform_chain):
    ok = True
    # kernel algebra at 1e-10
    for chain, mu in [(ref_chain, mu_plus),
                      (nonuniform_chain,
                       RebirthMeasure(weights={-1: 0.3, 1: 0.7}))]:
        u0 = potential_matrix(chain, 0.0)
        ut = killed_at_zero_potential(u0)
        prof = hitting_profile(u0)
        for p in (0.5, 1.0, 2.0):
            w = rebirthed_potential(chain, mu, p)
            ok &= np.abs(w.table @ chain.measure - 1.0 / p).max() < 1e-10
        z = chain.zero_index
        ok &= np.all(ut.table[z, :] == 0.0) and np.all(ut.table[:, z] == 0.0)
        ok &= np.linalg.eigvalsh(u0.table).min() > 0.0
        ok &= np.linalg.eigvalsh(ut.table).min() > -1e-10
        A = chain.kill_rate * np.eye(chain.n_states) - chain.generator
        resid = A @ prof.h
        off = [i for i in range(chain.n_states) if i != z]
        ok &= np.abs(resid[off]).max() < 1e-10

    # exact path identities on 10^4 rebirthed traces, one run per stop
    absorbed = absorbed_path_chain()
    levels = block_rng(SEED, 5, 0).exponential(1.0, 2000)
    runs = [
        (ref_chain, mu_plus, 4000, dict(stop="zero")),
        (absorbed, RebirthMeasure(weights={2: 1.0}), 2000,
         dict(stop="absorb")),
        (ref_chain, mu_plus, 2000, dict(stop="left", levels=0.6)),
        (ref_chain, mu_plus, 2000, dict(stop="right", levels=levels)),
    ]
    occupation_worst = level_worst = 0.0
    for k, (chain, mu, n, kw) in enumerate(runs):
        out = simulate(make_kernel(chain),
                       np.full(n, chain.state_index(-1), dtype=np.int64),
                       block_rng(SEED, 1, k), record="epochs",
                       rebirth=mu_tables(chain, mu), r_max=50, **kw)
        # each life's m-weighted field is its duration: lives run from one
        # death to the next, and the last one ends when the lane ends
        lanes = np.arange(n)
        ends = out["bounds"].copy()
        ends[lanes, out["epochs"] - 1] = out["t"]
        begins = np.hstack([np.zeros((n, 1)), ends[:, :-1]])
        used = np.arange(50)[None, :] < out["epochs"][:, None]
        occ = out["fields"] @ chain.measure
        ok &= np.all(occ[~used] == 0.0)
        dur = (ends - begins)[used]
        occupation_worst = max(occupation_worst, float(
            (np.abs(occ[used] - dur) / np.maximum(1.0, dur)).max()))
        if "levels" in kw:
            # a lane stopped by its level holds exactly that local time at 0
            hit = out["stopped"]
            lam = np.broadcast_to(kw["levels"], (n,))[hit]
            ok &= np.array_equal(out["l0"][hit], lam)
            at0 = out["fields"][hit][:, :, chain.zero_index].sum(axis=1)
            level_worst = max(level_worst, float(
                (np.abs(at0 - lam) / np.maximum(1.0, lam)).max()))
    ok &= occupation_worst < 1e-12 and level_worst < 1e-12
    _verdict_line(2, ok,
                  "row integrals, kernels, harmonicity at 1e-10; per-life "
                  "occupation and the level at 0 exact on 10^4 traces under "
                  "the zero, absorb, left and right stops (worst occupation "
                  f"defect {occupation_worst:.2e}, level defect "
                  f"{level_worst:.2e})")


def test_criterion_03_normalization(ref_chain):
    t0 = time.perf_counter()
    plan = ref_plan(SEED, 1, replicates=N_FULL, start=None, p=1.0)
    rep = REGISTRY["normalization"](plan)
    elapsed = time.perf_counter() - t0
    pair_rows = [r for r in rep.rows if r.statistic.startswith("w[")]
    ok = rep.verdict and len(pair_rows) == 9 and elapsed < 120.0
    _verdict_line(3, ok,
                  f"all 9 discounted pairs within 4 SE at N=2e5 "
                  f"(max |z| = {rep.max_abs_z():.2f}) in {elapsed:.0f}s")


def test_criterion_04_first_rk():
    worst = 0.0
    ok = True
    for r in (1, 2, 3):
        for s in (0.7, 1.0, 2.0):
            rep = REGISTRY["first-rk"](
                ref_plan(SEED, 1, replicates=N_FULL, r=r, s=s))
            ok &= rep.verdict
            worst = max(worst, rep.max_abs_z())
    defect = REGISTRY["first-rk"](
        ref_plan(SEED, 1, replicates=N_FULL, r=2, s=1.0,
                  defect="unit-weights"))
    ok &= not defect.verdict
    _verdict_line(4, ok,
                  f"hitting-time identity for r in {{1,2,3}}, s in "
                  f"{{0.7,1,2}} (worst |z| = {worst:.2f}); unit-weight "
                  f"defect fails at |z| = {defect.max_abs_z():.1f}")


def test_criterion_05_second_rk(ref_chain, mu_plus):
    worst = 0.0
    ok = True
    for r in (1, 2):
        for t in (0.5, 2.0):
            rep = REGISTRY["second-rk"](
                ref_plan(SEED, 1, replicates=N_FULL, r=r, t=t))
            ok &= rep.verdict
            worst = max(worst, rep.max_abs_z())
    # t = 0 degeneracy is sample-exact with shared constituents
    u0 = potential_matrix(ref_chain, 0.0)
    ut = killed_at_zero_potential(u0)
    g_hat, g_bar, _, _ = second_rk_composites_block(
        2, 1.0, 0.0, hitting_profile(u0), factor_covariance(u0),
        factor_covariance(ut), 0, mu_plus.vector(ref_chain), 50_000,
        block_rng(SEED, 5000, 0),
    )
    degenerate = np.array_equal(g_hat, g_bar)
    ok &= degenerate
    _verdict_line(5, ok,
                  f"inverse-local-time identity, standalone and combined, "
                  f"r in {{1,2}}, t in {{0.5,2}} (worst |z| = {worst:.2f}); "
                  f"t=0 composites bit-identical: {degenerate}")


def test_criterion_06_conditional_independence():
    rep1 = REGISTRY["first-rk-cond"](
        ref_plan(SEED, 1, replicates=N_FULL, r=2))
    rep2 = REGISTRY["second-rk-cond"](
        ref_plan(SEED, 1, replicates=N_FULL, r=2, p=1.0))
    ok = rep1.verdict and rep2.verdict
    for rep in (rep1, rep2):
        stats = [r.statistic for r in rep.rows]
        ok &= any(s.startswith("condind") for s in stats)
        ok &= "factorization" in stats
        ok &= any(s.startswith("marginal") for s in stats)
    _verdict_line(6, ok,
                  "conditional factorisation at hitting and inverse times, "
                  f"r=2, N=2e5 (max |z| = "
                  f"{max(rep1.max_abs_z(), rep2.max_abs_z()):.2f})")


def test_criterion_07_tminus():
    plan = TestPlan(chain=absorbed_path_chain(),
                    mu=RebirthMeasure(weights={2: 1.0}), start=-1,
                    replicates=N_FULL, seed=SEED, test_points=(-1, 1, 2),
                    r=2)
    rep = REGISTRY["tminus"](plan)
    qc = [r for r in rep.rows if r.statistic == "qc_violations"][0]
    ok = rep.verdict and qc.lhs == 0.0
    _verdict_line(7, ok,
                  f"left-limit hitting harness passes at r=2 (max |z| = "
                  f"{rep.max_abs_z():.2f}); lifetime-hit identity "
                  f"violations = {int(qc.lhs)}")


def test_criterion_08_reduction():
    plan = TestPlan(chain=reduction_chain(),
                    mu=RebirthMeasure(weights={32: 1.0}), start=64,
                    replicates=100_000, seed=SEED, test_points=(16, 32, 64),
                    r=2)
    rep = reduction_identity_test(plan, (0.5, 0.25, 0.125))
    viol = [r for r in rep.rows
            if r.statistic == "early_life_support_violations"][0]
    ok = rep.verdict and viol.lhs == 0.0
    _verdict_line(8, ok,
                  f"sup-functional reduction on the n=128 surrogate, r=2, "
                  f"N=1e5 (max |z| = {rep.max_abs_z():.2f}); early-life "
                  f"support violations = {int(viol.lhs)}")


def _small_run(harness, workers):
    if harness in ("modulus-local", "modulus-uniform", "lil"):
        from rklab.chains import birth_death_chain

        chain = birth_death_chain(128, 512.0)
        kw = dict(chain=chain, mu=RebirthMeasure(weights={32: 1.0}),
                  start=64, replicates=24, seed=SEED,
                  scales=(0.25, 0.125), stop_kind="zero", workers=workers)
        if harness == "modulus-local":
            sweep = local_modulus_sweep(SweepConfig(d=64, **kw))
        elif harness == "modulus-uniform":
            sweep = uniform_modulus_sweep(
                SweepConfig(interval=(0.25, 0.75), **kw))
        else:
            sweep = lil_sweep(SweepConfig(**kw))
        return json.dumps(sweep.to_dict(), sort_keys=True)
    if harness == "reduction":
        plan = TestPlan(chain=reduction_chain(),
                        mu=RebirthMeasure(weights={32: 1.0}), start=64,
                        replicates=20_000, seed=SEED,
                        test_points=(16, 32, 64), r=2, workers=workers)
        return reduction_identity_test(plan, (0.5, 0.25)).to_json()
    if harness == "tminus":
        plan = TestPlan(chain=absorbed_path_chain(),
                        mu=RebirthMeasure(weights={2: 1.0}), start=-1,
                        replicates=10_000, seed=SEED,
                        test_points=(-1, 1, 2), r=2, workers=workers)
        return REGISTRY["tminus"](plan).to_json()
    kw = {"replicates": 10_000}
    if harness == "normalization":
        kw["start"] = None
    return REGISTRY[harness](ref_plan(SEED, workers, **kw)).to_json()


def test_criterion_09_determinism():
    mismatched = [h for h in REGISTRY
                  if _small_run(h, 1) != _small_run(h, 3)]
    _verdict_line(9, not mismatched,
                  "byte-identical reports for every harness across worker "
                  f"counts 1 and 3 (mismatches: {mismatched or 'none'})")


def test_criterion_10_sweeps(tmp_path):
    medians = {}
    for name in ("modulus_local", "modulus_uniform", "lil"):
        cfg = load_config(f"{cli.CONFIGS}/{name}.yaml")
        assert cfg.seed == SEED
        sweep = REGISTRY[cfg.harness](cfg.run_plan())
        path = tmp_path / f"{name}.csv"
        write_sweep_csv(sweep, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "scale,statistic,target,replicates,seed"
        assert len(lines) == 1 + len(sweep.scales)
        payload = sweep.to_dict()
        assert "within_factor2_band" in payload and payload["gating"] is False
        medians[cfg.harness] = (sweep.finest_median,
                                payload["within_factor2_band"])
    ok = all(np.isfinite(v[0]) for v in medians.values())
    _verdict_line(10, ok,
                  "modulus and iterated-logarithm sweeps recorded with "
                  "finest-scale medians "
                  + ", ".join(f"{k}={v[0]:.3g}{'*' if v[1] else ''}"
                              for k, v in medians.items())
                  + " (* = inside the informational factor-2 band; not gated)")
