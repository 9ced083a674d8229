"""Statistical harnesses: same-law passes, defect power, edge behaviour.

Full-size runs at the published tolerances live in test_acceptance; these
runs use smaller ensembles to keep the suite quick.  Defects produce biases,
so a failure detected here only grows with the sample size.
"""

import numpy as np
import pytest

from rklab.chains import ChainSpec, RebirthMeasure, build_chain, path_chain
from rklab.errors import ConditioningTooRare, DegenerateESS, InvariantError
from rklab.harnesses import REGISTRY, TestPlan
from rklab.selftest import _ref_plan, absorbed_path_chain, reduction_chain
from rklab.stats import compare_fields

N_FAST = 30_000


def test_plan_invariants(ref_chain, mu_plus):
    with pytest.raises(InvariantError):
        TestPlan(chain=ref_chain, mu=mu_plus, start=-1, replicates=100,
                 seed=1, test_points=(-1,))
    with pytest.raises(InvariantError):
        TestPlan(chain=ref_chain, mu=mu_plus, start=0, replicates=10_000,
                 seed=1, test_points=(-1,))
    with pytest.raises(InvariantError):
        TestPlan(chain=ref_chain, mu=mu_plus, start=-1, replicates=10_000,
                 seed=1, test_points=())
    with pytest.raises(InvariantError):
        TestPlan(chain=ref_chain, mu=mu_plus, start=-1, replicates=10_000,
                 seed=1, test_points=(-1,), laplace_probes=((0.1, 0.2),))
    plan = TestPlan(chain=ref_chain, mu=mu_plus, start=-1, replicates=10_000,
                    seed=1, test_points=(-1, 0, 1))
    assert len(plan.laplace_probes) == 3


def test_single_state_rebirth_rejected():
    spec = ChainSpec(states=("a",), rates={}, measure={"a": 1.0},
                     kill_rate=1.0, zero_state=0, zero_accessible=False)
    chain = build_chain(spec)
    plan = TestPlan(chain=chain, mu=RebirthMeasure(weights={"a": 1.0}),
                    start=None, replicates=10_000, seed=1, test_points=("a",))
    with pytest.raises(InvariantError, match="two states"):
        REGISTRY["normalization"](plan)


@pytest.mark.parametrize("name,kw", [
    ("eisenbaum", {}),
    ("eisenbaum", {"s": 10.0}),     # both sides dominated by s^2/2
    ("first-rk", {"r": 1}),
    ("first-rk", {"r": 2}),
    ("first-rk", {"r": 3, "s": 0.7}),
    ("second-rk", {"r": 1, "t": 0.5}),
    ("second-rk", {"r": 2, "t": 2.0}),
    ("first-rk-cond", {"r": 2}),
    ("second-rk-cond", {"r": 2, "p": 1.0}),
])
def test_reference_chain_passes(name, kw):
    rep = REGISTRY[name](_ref_plan(911, 1, replicates=N_FAST, **kw))
    assert rep.verdict, f"max |z| = {rep.max_abs_z():.2f}"
    assert rep.metadata.get("analytic_first_moment_gap", 0.0) <= 1e-12


def test_nonuniform_measure_passes(nonuniform_chain):
    mu = RebirthMeasure(weights={-1: 0.5, 1: 0.5})
    plan = TestPlan(chain=nonuniform_chain, mu=mu, start=1,
                    replicates=N_FAST, seed=912, test_points=(-1, 0, 1), r=2)
    rep = REGISTRY["first-rk"](plan)
    assert rep.verdict, f"max |z| = {rep.max_abs_z():.2f}"


def test_normalization_passes(ref_chain, mu_plus):
    plan = _ref_plan(913, 1, replicates=N_FAST, start=None, p=1.0)
    rep = REGISTRY["normalization"](plan)
    assert rep.verdict, f"max |z| = {rep.max_abs_z():.2f}"
    labels = [row.statistic for row in rep.rows]
    assert "w[-1,-1]" in labels and "rowsum[0]" in labels


def test_normalization_absorbing_chain_passes():
    # an absorption is a death: the lane is reborn, not sent to a state
    chain = absorbed_path_chain()
    plan = TestPlan(chain=chain, mu=RebirthMeasure(weights={2: 1.0}),
                    start=None, replicates=20_000, seed=921,
                    test_points=(-2, -1, 1, 2), p=1.0)
    rep = REGISTRY["normalization"](plan)
    assert rep.verdict, f"max |z| = {rep.max_abs_z():.2f}"


def test_tminus_passes():
    chain = absorbed_path_chain()
    plan = TestPlan(chain=chain, mu=RebirthMeasure(weights={2: 1.0}),
                    start=-1, replicates=N_FAST, seed=914,
                    test_points=(-1, 1, 2), r=2)
    rep = REGISTRY["tminus"](plan)
    assert rep.verdict, f"max |z| = {rep.max_abs_z():.2f}"
    qc = [row for row in rep.rows if row.statistic == "qc_violations"][0]
    assert qc.lhs == 0.0 and qc.z == 0.0


@pytest.mark.parametrize("name,kw", [
    ("eisenbaum", {"defect": "unit-weights"}),
    ("first-rk", {"r": 2, "defect": "unit-weights"}),
    ("first-rk", {"r": 2, "defect": "wrong-cov"}),
    ("second-rk", {"r": 2, "defect": "unit-weights"}),
    ("second-rk", {"r": 2, "defect": "wrong-cov"}),
    ("second-rk-cond", {"r": 2, "defect": "unconditioned-marginal"}),
    ("normalization", {"start": None, "defect": "no-rebirth-target"}),
])
def test_defect_power_reference(name, kw):
    rep = REGISTRY[name](_ref_plan(915, 1, replicates=N_FAST, **kw))
    assert not rep.verdict
    assert rep.max_abs_z() > 8.0


def test_defect_power_cond_marginal(five_path):
    # the three-state chain is degenerate for this defect (single-hold lives
    # from the rebirth site), so power is demonstrated on the 5-state path
    mu = RebirthMeasure(weights={2: 1.0})
    base = dict(chain=five_path, mu=mu, start=-1, replicates=N_FAST,
                seed=916, test_points=(-1, 1, 2), r=2)
    ok = REGISTRY["first-rk-cond"](TestPlan(**base))
    assert ok.verdict
    bad = REGISTRY["first-rk-cond"](TestPlan(**base,
                                             defect="unconditioned-marginal"))
    assert not bad.verdict and bad.max_abs_z() > 8.0


def test_defect_power_tminus():
    chain = absorbed_path_chain()
    plan = TestPlan(chain=chain, mu=RebirthMeasure(weights={2: 1.0}),
                    start=-1, replicates=N_FAST, seed=917,
                    test_points=(-1, 1, 2), r=2, defect="unconditioned-last")
    rep = REGISTRY["tminus"](plan)
    assert not rep.verdict and rep.max_abs_z() > 8.0


def test_conditioning_too_rare():
    chain = reduction_chain()
    plan = TestPlan(chain=chain, mu=RebirthMeasure(weights={32: 1.0}),
                    start=64, replicates=10_000, seed=918,
                    test_points=(16, 32, 64), r=3)
    with pytest.raises(ConditioningTooRare):
        REGISTRY["first-rk-cond"](plan)


def test_same_law_mode_repeats(ref_chain, mu_plus):
    # both sides drawn from the identical construction must pass in nearly
    # every seeded repetition
    from rklab.batch import block_rng, make_kernel, simulate

    kernel = make_kernel(ref_chain)
    passes = 0
    reps = 30
    for k in range(reps):
        a = simulate(kernel, np.full(10_000, 0, dtype=np.int64),
                     block_rng(5000 + k, 1, 0))["field"]
        b = simulate(kernel, np.full(10_000, 0, dtype=np.int64),
                     block_rng(5000 + k, 2, 0))["field"]
        rep = compare_fields("self", a, b, ["-1", "0", "1"],
                             [[0.25, 0.25, 0.25]], seed=k)
        passes += rep.verdict
    assert passes >= reps - 1


def test_second_rk_large_t_probe(ref_chain, mu_plus):
    # at t far beyond the mean of the exponential clamp, the zero statistic
    # approaches the kernel diagonal at 0
    from rklab.batch import block_rng, make_kernel, simulate
    from rklab.chains import hitting_profile, potential_matrix

    prof = hitting_profile(potential_matrix(ref_chain, 0.0))
    t = 1000.0 * prof.u00
    kernel = make_kernel(ref_chain)
    n = 100_000
    out = simulate(kernel, np.full(n, ref_chain.zero_index, dtype=np.int64),
                   block_rng(919, 1, 0), stop="left", levels=np.full(n, t))
    vals = out["field"][:, ref_chain.zero_index]
    se = vals.std() / np.sqrt(n)
    target = prof.u00 * -np.expm1(-t / prof.u00)  # = u00 up to 4e-435
    assert abs(vals.mean() - target) < 4 * se
    assert abs(target - prof.u00) < 1e-12


def test_workers_do_not_change_reports():
    for name, kw in [("first-rk", {"r": 2}), ("first-rk-cond", {"r": 2})]:
        a = REGISTRY[name](_ref_plan(920, 1, replicates=10_000, **kw))
        b = REGISTRY[name](_ref_plan(920, 2, replicates=10_000, **kw))
        assert a.to_json() == b.to_json()
