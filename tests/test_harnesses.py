"""Statistical harnesses: same-law passes, defect power, edge behaviour.

Full-size runs at the published tolerances live in test_acceptance; these
runs use smaller ensembles to keep the suite quick.  Defects produce biases,
so a failure detected here only grows with the sample size.
"""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

import rklab.harnesses as harnesses
from rklab.chains import (
    ChainSpec,
    HittingProfile,
    RebirthMeasure,
    birth_death_chain,
    build_chain,
    killed_at_zero_potential,
    path_chain,
    potential_matrix,
)
from rklab.errors import ConditioningTooRare, DegenerateESS, InvariantError
from rklab.gaussfield import factor_covariance
from rklab.harnesses import REGISTRY, TestPlan
from rklab.stats import compare_fields, strict_json
from plans import (
    absorbed_path_chain,
    five_path_chain,
    reduction_chain,
    ref_plan,
    reference_chain,
)

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
    rep = REGISTRY[name](ref_plan(911, 1, replicates=N_FAST, **kw))
    assert rep.verdict, f"max |z| = {rep.max_abs_z():.2f}"
    if name.endswith("-cond"):
        return
    # the tilted identities carry exact first-moment rows, one per test
    # point and form, that agree to roundoff
    exact = _exact_rows(rep)
    assert len(exact) == 3 * (2 if name == "second-rk" else 1)
    assert all(row.gating and row.se == 0.0 and abs(row.z) < 1e-3
               for row in exact), exact


def test_nonuniform_measure_passes(nonuniform_chain):
    mu = RebirthMeasure(weights={-1: 0.5, 1: 0.5})
    plan = TestPlan(chain=nonuniform_chain, mu=mu, start=1,
                    replicates=N_FAST, seed=912, test_points=(-1, 0, 1), r=2)
    rep = REGISTRY["first-rk"](plan)
    assert rep.verdict, f"max |z| = {rep.max_abs_z():.2f}"


def test_normalization_passes(ref_chain, mu_plus):
    plan = ref_plan(913, 1, replicates=N_FAST, start=None, p=1.0)
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


def _ref_power(**kw):
    return lambda: ref_plan(915, 1, replicates=N_FAST, **kw)


# (harness, defect) -> (plan of the power case, |z| the defect must exceed)
POWER_CASES = {
    ("normalization", "no-rebirth-target"): (_ref_power(start=None), 8.0),
    ("eisenbaum", "unit-weights"): (_ref_power(), 8.0),
    ("first-rk", "unit-weights"): (_ref_power(r=2), 8.0),
    ("first-rk", "wrong-cov"): (_ref_power(r=2), 8.0),
    ("second-rk", "unit-weights"): (_ref_power(r=2), 8.0),
    ("second-rk", "wrong-cov"): (_ref_power(r=2), 8.0),
    ("second-rk-cond", "unconditioned-marginal"): (_ref_power(r=2), 8.0),
    # the three-state chain is degenerate for this defect (single-hold lives
    # from the rebirth site), so power is demonstrated on the 5-state path
    ("first-rk-cond", "unconditioned-marginal"): (lambda: TestPlan(
        chain=five_path_chain(), mu=RebirthMeasure(weights={2: 1.0}), start=-1,
        replicates=N_FAST, seed=916, test_points=(-1, 1, 2), r=2), 8.0),
    ("tminus", "unconditioned-last"): (lambda: TestPlan(
        chain=absorbed_path_chain(), mu=RebirthMeasure(weights={2: 1.0}),
        start=-1, replicates=N_FAST, seed=917, test_points=(-1, 1, 2),
        r=2), 8.0),
    ("reduction", "single-life"): (lambda: TestPlan(
        chain=reduction_chain(), mu=RebirthMeasure(weights={32: 1.0}),
        start=64, replicates=100_000, seed=302, test_points=(16, 32, 64),
        r=2, scales=(0.5, 0.25, 0.125)), 6.0),
}
DECLARED = sorted((name, defect) for name, run in REGISTRY.items()
                  for defect in run.defects)


@pytest.mark.parametrize("name,defect", DECLARED,
                         ids=[f"{n}-{d}" for n, d in DECLARED])
def test_declared_defect_has_power(name, defect):
    # a declared defect without a power case fails here
    assert set(POWER_CASES) == set(DECLARED)
    make_plan, z_min = POWER_CASES[name, defect]
    plan = dataclasses.replace(make_plan(), defect=defect)
    rep = REGISTRY[name](plan)
    assert not rep.verdict and rep.max_abs_z() > z_min


def test_first_rk_cond_five_path_passes():
    # the clean twin of the five-path power case
    make_plan, _ = POWER_CASES["first-rk-cond", "unconditioned-marginal"]
    rep = REGISTRY["first-rk-cond"](make_plan())
    assert rep.verdict, f"max |z| = {rep.max_abs_z():.2f}"


# at kill rate 1e-3 a first life almost surely ends in its stop: it dies
# before reaching 0 with probability about 1e-3 (first-rk-cond), before its
# absorption with about 2e-3 (tminus), and under its Exp(1) level at 0 with
# about 1 / (1 + u0(0, 0)), u0(0, 0) about 333 (second-rk-cond), so some
# tens of 1e4 traces, never MIN_CONDITIONED, stop in their second life
@pytest.mark.parametrize("name,chain,test_points,verb", [
    ("first-rk-cond", reference_chain(kill_rate=1e-3), (-1, 0, 1), "stopped"),
    ("second-rk-cond", reference_chain(kill_rate=1e-3), (-1, 0, 1),
     "crossed"),
    ("tminus", absorbed_path_chain(kill_rate=1e-3), (-1, 1, 2), "absorbed"),
], ids=["first-rk-cond", "second-rk-cond", "tminus"])
def test_conditioning_too_rare(name, chain, test_points, verb):
    plan = ref_plan(918, 1, replicates=10_000, chain=chain,
                    test_points=test_points, r=2)
    with pytest.raises(ConditioningTooRare,
                       match=f"of 10000 traces {verb} at epoch 2"):
        REGISTRY[name](plan)


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
        a = REGISTRY[name](ref_plan(920, 1, replicates=10_000, **kw))
        b = REGISTRY[name](ref_plan(920, 2, replicates=10_000, **kw))
        assert a.to_json() == b.to_json()


def test_first_rk_lives_record_only_the_readout(monkeypatch):
    # on a 513-state grid each Markov life of first-rk keeps the 4 states
    # the harness reads, never a column per state
    chain = birth_death_chain(512, 128.0)
    plan = TestPlan(chain=chain, mu=RebirthMeasure(weights={248: 1.0}),
                    start=256, replicates=10_000, seed=5,
                    test_points=(252, 256, 260), r=2)
    keep = harnesses._readout(plan)
    assert keep.tolist() == [248, 252, 256, 260]
    widths = []
    engine = harnesses.simulate

    def spy(*args, **kw):
        out = engine(*args, **kw)
        assert "field" not in out
        widths.append(out["field_cols"].shape[1])
        return out

    monkeypatch.setattr(harnesses, "simulate", spy)
    rep = harnesses.run_first_rk(plan)
    assert rep.n_lhs == 10_000
    assert widths == [keep.size] * 4  # two lives, two blocks each


def test_factors_solve_only_the_readout_block(monkeypatch):
    # on a 513-state grid the Green kernel is solved for the columns of
    # K = S + {0} only, no eigvalsh sees more than a K-block, no 513 x 513
    # array is made but A and its LU factor, and the roots are the full
    # table's bit for bit
    chain = birth_death_chain(512, 128.0)
    plan = TestPlan(chain=chain, mu=RebirthMeasure(weights={248: 1.0}),
                    start=256, replicates=10_000, seed=5,
                    test_points=(252, 256, 260), r=2)
    keep = harnesses._readout(plan)
    n, k = chain.n_states, keep.size + 1
    solve, eigvalsh = np.linalg.solve, np.linalg.eigvalsh
    rhs, eig = [], []
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: rhs.append(b.shape) or solve(a, b))
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: eig.append(a.shape) or eigvalsh(a))
    tracemalloc.start()
    green, _, u0f, utf = harnesses._factors(plan)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    monkeypatch.undo()
    assert rhs == [(n, k)]
    assert green[0].tolist() == [0] + keep.tolist()
    assert eig and all(shape <= (k, k) for shape in eig)
    assert peak < 2.5 * n * n * 8
    full = potential_matrix(chain, 0.0)
    for got, table in ((u0f, full), (utf, killed_at_zero_potential(full))):
        want = factor_covariance(table, keep=keep)
        assert got.keep.tolist() == keep.tolist() and got.rank == want.rank
        assert got.root.tobytes() == want.root.tobytes()


def _exact_rows(rep):
    return [row for row in rep.rows if "exact:" in row.statistic]


def _sampled_digest(rep):
    rows = [row.to_dict() for row in rep.rows
            if "exact:" not in row.statistic]
    return hashlib.sha256(strict_json(rows).encode()).hexdigest()[:16]


# sha256 prefixes of every sampled row of the tilted identities at 1e4
# replicates.  They fix the random streams and the draw order of the Markov
# legs and the composites; a refactor that keeps both reproduces them.
@pytest.mark.parametrize("name,kw,digest", [
    ("eisenbaum", {"s": 1.0}, "430c3cf879e1f543"),
    ("eisenbaum", {"s": 10.0}, "18492411fc0b20db"),
    ("first-rk", {"r": 1}, "c6e3e919b9156dd6"),
    ("first-rk", {"r": 2}, "9c7536ed3022bee8"),
    ("first-rk", {"r": 3}, "24c88413f7ad69b0"),
    ("second-rk", {"r": 1}, "09a1f1a160b0bed8"),
    ("second-rk", {"r": 2}, "063955eea735412c"),
])
def test_tilted_rows_pinned(name, kw, digest):
    rep = REGISTRY[name](ref_plan(20260810, 1, replicates=10_000, **kw))
    assert _sampled_digest(rep) == digest


ABSORBED = dict(chain=absorbed_path_chain(), test_points=(-1, 1, 2))


# sha256 prefixes of the whole report JSON of the conditioned-trace
# harnesses at 1e4 replicates: traces, lives and the marginal ensemble keep
# their streams, and every row, count and metadata value its bits.
@pytest.mark.parametrize("name,kw,digest", [
    ("first-rk-cond", {"r": 2}, "1cfc446b999be455"),
    ("first-rk-cond", {"r": 3}, "d2628a97b3f72377"),
    ("second-rk-cond", {"r": 2, "p": 1.0}, "4b13cf1a87debb59"),
    ("second-rk-cond", {"r": 3, "p": 1.0}, "5ae4a932a7465bd0"),
    ("tminus", {"r": 2, **ABSORBED}, "bc2e7f4ed5f5d924"),
    ("tminus", {"r": 3, **ABSORBED}, "9e1a1c5d720532d0"),
])
def test_conditional_reports_pinned(name, kw, digest):
    rep = REGISTRY[name](ref_plan(20260810, 1, replicates=10_000, **kw))
    assert hashlib.sha256(rep.to_json().encode()).hexdigest()[:16] == digest


def test_second_rk_cond_needs_state_zero():
    # its level is a local time at 0, which an absorbing chain never holds
    plan = ref_plan(926, 1, replicates=10_000, **ABSORBED)
    with pytest.raises(InvariantError, match="reaches 0"):
        REGISTRY["second-rk-cond"](plan)


def test_exact_mean_does_not_depend_on_the_block():
    # a spread mu on a grid: one more test point enlarges the block K the
    # kernel is solved on, and leaves the other exact:mean rows bit for bit
    base = dict(chain=birth_death_chain(32, 16.0), start=16, r=2,
                mu=RebirthMeasure(weights={4: 0.2, 19: 0.3, 29: 0.5}),
                replicates=10_000, seed=925)
    rows = [_exact_rows(REGISTRY["first-rk"](TestPlan(test_points=tp,
                                                      **base)))
            for tp in [(12, 18, 22), (12, 18, 22, 1)]]
    assert [row.lhs for row in rows[0]] == [row.lhs for row in rows[1][:3]]


def _first_rk_parts(plan):
    green, _, u0f, utf = harnesses._factors(plan)
    legs, lives = harnesses._first_rk_spec(plan, u0f, utf)
    return green, legs, lives


@pytest.mark.parametrize("r", [1, 2, 3])
def test_miswired_leg_fails_exact_rows(r):
    # the life stopped at 0 run to its death instead: the legs' mean no
    # longer matches the tilt's share of the killed factor
    plan = ref_plan(922, 1, replicates=10_000, r=r)
    green, legs, lives = _first_rk_parts(plan)
    legs[-1] = legs[-1][:3] + ("death",)
    rep = harnesses._tilted(plan, "first-rk", green, legs, lives, None,
                            (60, 61))
    assert not rep.verdict
    assert max(abs(row.z) for row in _exact_rows(rep)) > 1e6


def test_reversed_profile_restriction_fails(monkeypatch):
    # h read at the readout states -1, 1, 2 in reverse order bumps -1 by
    # h(2) != h(-1)
    restrict = HittingProfile.restrict
    monkeypatch.setattr(HittingProfile, "restrict",
                        lambda self, keep: restrict(self, keep[::-1]))
    plan = TestPlan(chain=five_path_chain(),
                    mu=RebirthMeasure(weights={2: 1.0}), start=-1,
                    replicates=10_000, seed=923, test_points=(-1, 1, 2), r=2)
    rep = REGISTRY["second-rk"](plan)
    assert not rep.verdict
    for part in ("standalone", "combined"):
        exact = [row for row in _exact_rows(rep)
                 if row.statistic.startswith(part)]
        assert max(abs(row.z) for row in exact) > 1e6


@pytest.mark.parametrize("name,r", [("first-rk", 1), ("first-rk", 2),
                                    ("second-rk", 1), ("second-rk", 2)])
def test_wrong_cov_fails_on_exact_rows(name, r):
    plan = ref_plan(924, 1, replicates=10_000, r=r, defect="wrong-cov")
    rep = REGISTRY[name](plan)
    exact = _exact_rows(rep)
    assert max(abs(row.z) for row in exact) > 1e6
    # the exact rows alone give the FAIL
    assert not dataclasses.replace(rep, rows=exact).verdict
