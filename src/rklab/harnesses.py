"""Statistical harnesses comparing Markov-side and Gaussian-side ensembles.

Each harness realises one identity in law as a two-sample (or
sample-vs-exact) comparison of first and second moments and Laplace probes
at the test points, with verdicts at ``z_max`` pooled standard errors.
Before any simulation runs, the first-moment identity behind the harness is
evaluated analytically on both sides from the exact kernels and must agree
to 1e-12; a failure there means mis-wired ensembles, not bad luck.

:data:`REGISTRY` is the one table of harnesses: every harness id of a config
maps to its run function, which declares the number that fixes its random
streams (:func:`tag_for`), the plan type it takes and the injected defects
(``plan.defect``) it implements.  A defect deliberately breaks one
ingredient so that the test suite can demonstrate statistical power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import (
    _draw_mu,
    block_plan,
    block_rng,
    make_kernel,
    map_blocks,
    mu_tables,
    simulate,
)
from .chains import (
    RebirthMeasure,
    SymmetricChain,
    hitting_profile,
    killed_at_zero_potential,
    potential_matrix,
    rebirthed_potential,
)
from .errors import ConditioningTooRare, InvariantError
from .gaussfield import (
    factor_covariance,
    first_rk_composite_block,
    sample_block,
    second_rk_composites_block,
)
from .stats import (
    ComparisonReport,
    StatRow,
    compare_fields,
    compare_sides,
    covariance_zero_rows,
    default_probes,
    product_fraction_row,
    rows_vs_exact,
    side_estimates,
    zscore,
)

ANALYTIC_ATOL = 1e-12
MIN_CONDITIONED = 1000


def tag_for(harness: str, role: int) -> int:
    return REGISTRY[harness].num * 1000 + role


@dataclass
class TestPlan:
    """One harness invocation: chain, rebirth measure, sizes, parameters."""

    __test__ = False  # bare "Test" prefix; not a pytest class

    chain: SymmetricChain
    mu: RebirthMeasure | None
    start: object
    replicates: int
    seed: int
    test_points: tuple
    laplace_probes: tuple = ()
    moment_orders: tuple = (1, 2)
    r: int = 2
    s: float = 1.0
    p: float = 1.0
    t: float = 1.0
    z_max: float = 4.0
    workers: int = 1
    defect: str | None = None
    scales: tuple = ()  # sup scales of the reduction identity

    def __post_init__(self):
        if self.replicates < 10**4:
            raise InvariantError("replicates must be at least 1e4")
        if not self.test_points:
            raise InvariantError("test_points must be nonempty")
        if not self.moment_orders or not set(self.moment_orders) <= {1, 2}:
            raise InvariantError(
                f"moment_orders must be a nonempty list of 1 and 2, got "
                f"{list(self.moment_orders)}")
        if len(set(self.tp_cols.tolist())) != len(self.test_points):
            raise InvariantError(f"test_points must be distinct states, got "
                                 f"{list(self.test_points)}")
        if self.start is not None:
            if self.chain.zero_accessible \
                    and self.chain.state_index(self.start) == self.chain.zero_index:
                raise InvariantError("start state must differ from 0")
            self.chain.state_index(self.start)
        if self.mu is not None:
            self.mu.validate(self.chain)
        if not self.laplace_probes:
            self.laplace_probes = tuple(
                tuple(v) for v in default_probes(len(self.test_points))
            )
        for nu in self.laplace_probes:
            if len(nu) != len(self.test_points) or min(nu) < 0:
                raise InvariantError(
                    "each Laplace probe needs one nonnegative weight per test point"
                )

    @property
    def tp_cols(self) -> np.ndarray:
        return np.array([self.chain.state_index(x) for x in self.test_points])

    @property
    def point_labels(self):
        return [str(x) for x in self.test_points]


@dataclass
class SweepConfig:
    """One ratio sweep on a grid surrogate chain."""

    chain: object
    mu: object
    start: object
    replicates: int
    seed: int
    scales: tuple
    stop_kind: str = "zero"        # zero | absorb
    d: object = None               # local modulus centre
    interval: tuple | None = None  # uniform modulus window
    workers: int = 1

    def __post_init__(self):
        if self.replicates < 8:
            raise InvariantError("sweeps need at least 8 replicates")
        if not self.scales:
            raise InvariantError("sweeps need a scales list")
        if any(b >= a for a, b in zip(self.scales, self.scales[1:])):
            raise InvariantError("scales must be strictly decreasing")
        if self.chain.coords is None:
            raise InvariantError("sweeps need a chain with grid coordinates")
        if self.stop_kind not in ("zero", "absorb"):
            raise InvariantError(f"unknown sweep stop {self.stop_kind!r}")
        if self.mu is None:
            raise InvariantError("sweeps need a rebirth measure (mu)")
        self.mu.validate(self.chain)


# block workers (top level so process pools can pickle them) ----------------

def _starts(start_spec, size, rng):
    kind = start_spec[0]
    if kind == "fixed":
        return np.full(size, start_spec[1], dtype=np.int64)
    mu_idx, mu_cum = start_spec[1], start_spec[2]
    return _draw_mu(mu_idx, mu_cum, rng.random(size))


def _levels(level_spec, size, rng):
    if level_spec[0] == "fixed":
        return np.full(size, float(level_spec[1]))
    return rng.exponential(1.0 / float(level_spec[1]), size)


def _blk_markov(kernel, start_spec, level_spec, engine, size, seed, tag, b):
    """One block of a Markov ensemble: draw the starts, then the levels (if
    any), then run :func:`simulate` with the keyword arguments ``engine``.
    Drawn levels are returned as ``levels``; the level stops read them as
    zero local times, the ``horizon`` stop as clocks."""
    rng = block_rng(seed, tag, b)
    starts = _starts(start_spec, size, rng)
    levels = None if level_spec is None else _levels(level_spec, size, rng)
    out = simulate(kernel, starts, rng, levels=levels, **engine)
    if levels is not None:
        out["levels"] = levels
    return out


def _blk_gauss_shift_sq(factor, s, y_idx, size, seed, tag, b):
    rng = block_rng(seed, tag, b)
    eta = sample_block(factor, size, rng)
    return {"vals": 0.5 * (eta + s) ** 2, "tilt": 1.0 + eta[:, y_idx] / s}


def _blk_gauss_square(factor, size, seed, tag, b):
    rng = block_rng(seed, tag, b)
    eta = sample_block(factor, size, rng)
    return {"vals": 0.5 * eta ** 2}


def _blk_gauss_first(r, s, u0f, utf, y_idx, mu_vec, size, seed, tag, b):
    rng = block_rng(seed, tag, b)
    fields, weights = first_rk_composite_block(
        r, s, u0f, utf, y_idx, mu_vec, size, rng
    )
    return {"field": fields, "weight": weights}


def _blk_gauss_second(r, s, t, profile, u0f, utf, y_idx, mu_vec, size, seed,
                      tag, b):
    rng = block_rng(seed, tag, b)
    g_hat, g_bar, weights, rho = second_rk_composites_block(
        r, s, t, profile, u0f, utf, y_idx, mu_vec, size, rng
    )
    return {"g_hat": g_hat, "g_bar": g_bar, "weight": weights, "rho": rho}


def _blk_gauss_standalone_rhs(utf, profile, t, size, seed, tag, b):
    rng = block_rng(seed, tag, b)
    eta2 = sample_block(utf, size, rng)
    rho = rng.exponential(scale=profile.u00, size=size)
    bump = profile.h[None, :] * np.sqrt(2.0 * np.minimum(t, rho))[:, None]
    return {"vals": 0.5 * (eta2 + bump) ** 2}


def _collect(plan, fn, static_args, role):
    """Run one ensemble of plan.replicates lanes, block by block."""
    tag = static_args[0]
    payloads = []
    for b, size in enumerate(block_plan(plan.replicates)):
        fn_args = static_args[1] + (size, plan.seed, tag, b)
        payloads.append((fn, fn_args))
    results = map_blocks(payloads, plan.workers)
    merged = {}
    for key in results[0]:
        if np.isscalar(results[0][key]):
            merged[key] = sum(r[key] for r in results)
        else:
            merged[key] = np.concatenate([r[key] for r in results])
    return merged


def _ensemble(plan, harness, role, fn, *args):
    return _collect(plan, fn, (tag_for(harness, role), tuple(args)), role)


def _markov(plan, harness, role, kernel, start_spec, level_spec=None,
            **engine):
    """A Markov ensemble: ``engine`` holds the keyword arguments of
    :func:`simulate` (stop policy, record kind, rebirth table, ...)."""
    return _ensemble(plan, harness, role, _blk_markov, kernel, start_spec,
                     level_spec, engine)


# shared bits ----------------------------------------------------------------

def _mu_vec(plan):
    return plan.mu.vector(plan.chain)


def _readout(plan):
    """Sorted state indices the Gaussian side is read at.

    That is the test points, the start state (first tilt factor) and the
    support of mu (the tilt through <eta, mu>).  Fields are sampled on these
    states only, as the exact marginal of the full field.
    """
    keep = set(plan.tp_cols.tolist())
    keep.add(plan.chain.state_index(plan.start))
    if plan.mu is not None:
        keep.update(np.flatnonzero(_mu_vec(plan)).tolist())
    return np.array(sorted(keep), dtype=np.int64)


def _on_readout(plan, keep):
    """Test-point positions and the start position within the readout set
    ``keep``, and mu restricted to it."""
    pos = np.searchsorted(keep, plan.tp_cols)
    y_pos = int(np.searchsorted(keep, plan.chain.state_index(plan.start)))
    mu_vec = _mu_vec(plan)[keep] if plan.mu is not None \
        else np.zeros(keep.size)
    return pos, y_pos, mu_vec


def _factors(plan):
    keep = _readout(plan)
    u0 = potential_matrix(plan.chain, 0.0)
    ut = killed_at_zero_potential(u0)
    u0f = factor_covariance(u0, keep=keep)
    utf = factor_covariance(ut, keep=keep)
    if plan.defect == "wrong-cov":
        utf = u0f
    return u0, ut, u0f, utf


def _first_rk_analytic(plan, u0, ut):
    """First-moment formulas of both sides; must agree to ANALYTIC_ATOL."""
    cols = plan.tp_cols
    y = plan.chain.state_index(plan.start)
    s, r = plan.s, plan.r
    base = (r - 1) * 0.5 * (np.diag(u0.table)[cols] + s**2) \
        + 0.5 * (np.diag(ut.table)[cols] + s**2)
    if r == 1:
        markov = ut.table[y, cols]
        tilt = ut.table[y, cols]
    else:
        mu_vec = _mu_vec(plan)
        markov = u0.table[y, cols] + (r - 2) * (u0.table @ mu_vec)[cols] \
            + (ut.table @ mu_vec)[cols]
        tilt = u0.table[y, cols] + (r - 2) * (u0.table @ mu_vec)[cols] \
            + (ut.table @ mu_vec)[cols]
    return markov + base, base + tilt


def _second_rk_analytic(plan, u0, ut, profile):
    cols = plan.tp_cols
    y = plan.chain.state_index(plan.start)
    s, r, t = plan.s, plan.r, plan.t
    h2 = profile.h[cols] ** 2
    clamp_mean = profile.u00 * -np.expm1(-t / profile.u00)  # E[t ^ rho]
    base = (r - 1) * 0.5 * (np.diag(u0.table)[cols] + s**2) \
        + 0.5 * (np.diag(ut.table)[cols] + s**2) \
        + 0.5 * np.diag(ut.table)[cols]
    if r == 1:
        killed = ut.table[y, cols]
        tilt = ut.table[y, cols]
    else:
        mu_vec = _mu_vec(plan)
        killed = u0.table[y, cols] + (r - 2) * (u0.table @ mu_vec)[cols] \
            + (ut.table @ mu_vec)[cols]
        tilt = u0.table[y, cols] + (r - 2) * (u0.table @ mu_vec)[cols] \
            + (ut.table @ mu_vec)[cols]
    markov = killed + h2 * clamp_mean + base
    gauss = base + tilt + h2 * clamp_mean
    return markov, gauss


def _check_analytic(markov, gauss, metadata):
    gap = float(np.abs(markov - gauss).max())
    metadata["analytic_first_moment_gap"] = gap
    if gap > ANALYTIC_ATOL:
        raise InvariantError(
            f"analytic first-moment identity violated by {gap:.3e}"
        )


# harnesses ------------------------------------------------------------------

def run_normalization(plan: TestPlan) -> ComparisonReport:
    """Simulated discounted local times of the rebirthed process against the
    exact rebirthed kernel, for every (start, target) pair of test points.

    Each lane is discounted exactly up to H0 = ln(20)/p and then ended by an
    independent Exp(p) clock (the ``horizon`` stop at H0 plus an Exp(p)
    level, with the clocked ``discount`` record of :mod:`rklab.batch`), so
    every ``w`` row is an unbiased one-sample estimate of W_p with no
    truncation.  When the test points are every state, ``rowsum[x]``, the
    discounted total time, is checked against 1/p.
    """
    if plan.p <= 0:
        raise InvariantError("normalization needs p > 0")
    if plan.chain.n_states < 2:
        raise InvariantError(
            "rebirth verification needs at least two states"
        )
    chain = plan.chain
    mu_pack = mu_tables(chain, plan.mu)
    wmat = rebirthed_potential(chain, plan.mu, plan.p)
    target = wmat.table
    if plan.defect == "no-rebirth-target":
        target = potential_matrix(chain, plan.p).table
    kernel = make_kernel(chain)
    cols = plan.tp_cols
    # switch time H0: the Exp(p) clock finishes the last e^{-p H0} = 5 % of
    # each discount integral; an earlier switch (ln 10 / p) raised the
    # variance of some rows by 5 %, this one by at most about 1.5 %
    horizon = float(np.log(20.0) / plan.p)
    rows = []
    all_states = len(cols) == chain.n_states
    for k, x in enumerate(plan.test_points):
        out = _markov(
            plan, "normalization", 10 + k, kernel,
            ("fixed", chain.state_index(x)), ("exp", plan.p), stop="horizon",
            record="discount", rebirth=mu_pack, horizon=horizon, p=plan.p,
            cols=cols,
        )
        labels = [f"w[{x},{y}]" for y in plan.test_points]
        rows += rows_vs_exact(out["V"], target[chain.state_index(x), cols],
                              labels)
        if all_states:
            rows += rows_vs_exact(
                out["rowsum"][:, None],
                [1.0 / plan.p],
                [f"rowsum[{x}]"],
            )
    return ComparisonReport(
        test_id="normalization", rows=rows, seed=plan.seed,
        n_lhs=plan.replicates * len(plan.test_points), n_rhs=0,
        z_max=plan.z_max,
        metadata={"horizon": horizon, "p": plan.p, "defect": plan.defect},
    )


def run_eisenbaum(plan: TestPlan) -> ComparisonReport:
    """One killed life plus an independent shifted square against the tilted
    shifted square."""
    if plan.s == 0:
        raise InvariantError("eisenbaum harness needs s != 0")
    chain = plan.chain
    u0 = potential_matrix(chain, 0.0)
    u0f = factor_covariance(u0, keep=_readout(plan))
    pos, y_pos, _ = _on_readout(plan, u0f.keep)
    y = chain.state_index(plan.start)
    cols = plan.tp_cols
    metadata = {"defect": plan.defect}
    markov = u0.table[y, cols] + 0.5 * (np.diag(u0.table)[cols] + plan.s**2)
    gauss = 0.5 * (np.diag(u0.table)[cols] + plan.s**2) + u0.table[y, cols]
    _check_analytic(markov, gauss, metadata)

    kernel = make_kernel(chain)
    eps = _markov(plan, "eisenbaum", 1, kernel, ("fixed", y), cols=cols)
    gl = _ensemble(plan, "eisenbaum", 2, _blk_gauss_shift_sq, u0f, plan.s,
                   y_pos)
    lhs = eps["field_cols"][:, np.arange(cols.size)] + gl["vals"][:, pos]
    gr = _ensemble(plan, "eisenbaum", 3, _blk_gauss_shift_sq, u0f, plan.s,
                   y_pos)
    rhs = gr["vals"][:, pos]
    weights = np.ones(rhs.shape[0]) if plan.defect == "unit-weights" \
        else gr["tilt"]
    return compare_fields(
        "eisenbaum", lhs, rhs, plan.point_labels, plan.laplace_probes,
        plan.seed, rhs_weights=weights, z_max=plan.z_max,
        moment_orders=plan.moment_orders, metadata=metadata,
    )


def _first_rk_markov_fields(plan, kernel, mu_pack, keep,
                            harness="first-rk"):
    """Sum of the lives on the Markov side of the hitting-time identity, on
    the readout set ``keep``."""
    chain = plan.chain
    y = chain.state_index(plan.start)
    total = None
    if plan.r >= 2:
        ep = _markov(plan, harness, 20, kernel, ("fixed", y), cols=keep)
        total = ep["field_cols"]
        for i in range(2, plan.r):
            ep = _markov(plan, harness, 20 + i, kernel, ("mu",) + mu_pack,
                         cols=keep)
            total = total + ep["field_cols"]
        killed = _markov(plan, harness, 40, kernel, ("mu",) + mu_pack,
                         stop="zero", cols=keep)
    else:
        killed = _markov(plan, harness, 40, kernel, ("fixed", y),
                         stop="zero", cols=keep)
    field = killed["field_cols"]
    return field if total is None else total + field


def run_first_rk(plan: TestPlan) -> ComparisonReport:
    """Generalised hitting-time identity: lives plus fresh composites,
    unweighted, against tilted composites."""
    if plan.r < 1:
        raise InvariantError("first-rk needs r >= 1")
    chain = plan.chain
    mu_pack = mu_tables(chain, plan.mu) if plan.r >= 2 else None
    u0, ut, u0f, utf = _factors(plan)
    metadata = {"defect": plan.defect, "r": plan.r, "s": plan.s}
    if plan.defect != "wrong-cov":
        markov, gauss = _first_rk_analytic(plan, u0, ut)
        _check_analytic(markov, gauss, metadata)
    kernel = make_kernel(chain)
    pos, y_pos, mu_vec = _on_readout(plan, u0f.keep)

    markov_fields = _first_rk_markov_fields(plan, kernel, mu_pack, u0f.keep)
    gl = _ensemble(plan, "first-rk", 60, _blk_gauss_first,
                   plan.r, plan.s, u0f, utf, y_pos, mu_vec)
    lhs = markov_fields[:, pos] + gl["field"][:, pos]
    gr = _ensemble(plan, "first-rk", 61, _blk_gauss_first,
                   plan.r, plan.s, u0f, utf, y_pos, mu_vec)
    rhs = gr["field"][:, pos]
    weights = np.ones(rhs.shape[0]) if plan.defect == "unit-weights" \
        else gr["weight"]
    return compare_fields(
        "first-rk", lhs, rhs, plan.point_labels, plan.laplace_probes,
        plan.seed, rhs_weights=weights, z_max=plan.z_max,
        moment_orders=plan.moment_orders, metadata=metadata,
    )


def run_first_rk_cond(plan: TestPlan) -> ComparisonReport:
    """Conditional factorisation at the hitting time: the stopping epoch's
    field matches an independently conditioned life, transformed early and
    late epochs are uncorrelated, and the stop-epoch probability factorises."""
    if plan.r < 2:
        raise InvariantError("conditional harness needs r >= 2")
    chain = plan.chain
    kernel = make_kernel(chain)
    mu_pack = mu_tables(chain, plan.mu)
    y = chain.state_index(plan.start)
    cols = plan.tp_cols
    r = plan.r

    at = np.arange(cols.size)  # the test points' columns in a record on cols

    traces = _markov(plan, "first-rk-cond", 1, kernel, ("fixed", y),
                     stop="zero", record="epochs", rebirth=mu_pack, r_max=r,
                     cols=cols)
    kept = traces["stop_epoch"] == r
    n_kept = int(np.count_nonzero(kept))
    if n_kept < MIN_CONDITIONED:
        raise ConditioningTooRare(
            f"only {n_kept} of {plan.replicates} traces stopped at epoch {r}"
        )
    early = traces["fields_cols"][kept][:, 0, :][:, at]
    last = traces["fields_cols"][kept][:, r - 1, :][:, at]

    marginal = _markov(plan, "first-rk-cond", 2, kernel, ("mu",) + mu_pack,
                       stop="zero", cols=cols)
    if plan.defect == "unconditioned-marginal":
        ref = marginal["field_cols"][:, at]
    else:
        ref = marginal["field_cols"][marginal["stopped"]][:, at]

    rows = compare_sides(
        side_estimates(last, plan.point_labels, plan.laplace_probes,
                       moment_orders=plan.moment_orders),
        side_estimates(ref, plan.point_labels, plan.laplace_probes,
                       moment_orders=plan.moment_orders),
    )
    rows = [StatRow(f"marginal:{row.statistic}", row.lhs, row.rhs, row.se,
                    row.z) for row in rows]
    rows += covariance_zero_rows(np.exp(-early), np.exp(-last),
                                 plan.point_labels, plan.point_labels)

    # stop-epoch probability against the product of per-life factors
    fracs, ns = [], []
    for i in range(1, r + 1):
        spec = ("fixed", y) if i == 1 else ("mu",) + mu_pack
        ens = _markov(plan, "first-rk-cond", 10 + i, kernel, spec,
                      stop="zero", cols=cols)
        frac_hit = float(np.mean(ens["stopped"]))
        fracs.append(frac_hit if i == r else 1.0 - frac_hit)
        ns.append(ens["stopped"].shape[0])
    rows.append(product_fraction_row(
        "factorization", n_kept / plan.replicates, plan.replicates, fracs, ns,
    ))
    return ComparisonReport(
        test_id="first-rk-cond", rows=rows, seed=plan.seed,
        n_lhs=n_kept, n_rhs=ref.shape[0], z_max=plan.z_max,
        metadata={"defect": plan.defect, "r": r,
                  "conditioned_fraction": n_kept / plan.replicates},
    )


def run_tminus(plan: TestPlan) -> ComparisonReport:
    """Left-limit hitting on an absorbing chain: traces stopped at the first
    absorption against sums of independently conditioned lives."""
    if plan.r < 2:
        raise InvariantError("tminus harness needs r >= 2")
    chain = plan.chain
    if chain.zero_accessible or not np.any(chain.absorb_rate > 0):
        raise InvariantError("tminus needs an absorbing chain")
    kernel = make_kernel(chain)
    mu_pack = mu_tables(chain, plan.mu)
    y = chain.state_index(plan.start)
    cols = plan.tp_cols
    r = plan.r

    at = np.arange(cols.size)  # the test points' columns in a record on cols

    traces = _markov(plan, "tminus", 1, kernel, ("fixed", y), stop="absorb",
                     record="epochs", rebirth=mu_pack, r_max=r, cols=cols)
    kept = traces["stop_epoch"] == r
    n_kept = int(np.count_nonzero(kept))
    if n_kept < MIN_CONDITIONED:
        raise ConditioningTooRare(
            f"only {n_kept} of {plan.replicates} traces absorbed at epoch {r}"
        )
    lhs = traces["fields_cols"][kept].sum(axis=1)[:, at]

    parts = []
    qc_violations = 0
    for i in range(1, r + 1):
        spec = ("fixed", y) if i == 1 else ("mu",) + mu_pack
        ens = _markov(plan, "tminus", 10 + i, kernel, spec, stop="absorb",
                      cols=cols)
        absorbed = ens["stopped"]
        # an absorbed life must end next to 0, where absorption has a rate
        qc_violations += int(np.count_nonzero(
            absorbed & (chain.absorb_rate[ens["state"]] == 0.0)
        ))
        if i == r and plan.defect != "unconditioned-last":
            keep = absorbed
        elif i == r:
            keep = np.ones_like(absorbed)
        else:
            keep = ~absorbed
        parts.append(ens["field_cols"][keep][:, at])
    m = min(pt.shape[0] for pt in parts)
    rhs = sum(pt[:m] for pt in parts)

    report = compare_fields(
        "tminus", lhs, rhs, plan.point_labels, plan.laplace_probes,
        plan.seed, z_max=plan.z_max, moment_orders=plan.moment_orders,
        metadata={"defect": plan.defect, "r": r,
                  "conditioned_fraction": n_kept / plan.replicates},
    )
    report.rows.append(StatRow("qc_violations", float(qc_violations), 0.0,
                               0.0, zscore(float(qc_violations), 0.0)))
    return report


def run_second_rk(plan: TestPlan) -> ComparisonReport:
    """Inverse-local-time identity, standalone and combined forms."""
    if plan.r < 1:
        raise InvariantError("second-rk needs r >= 1")
    if plan.t <= 0:
        raise InvariantError("second-rk needs t > 0")
    chain = plan.chain
    mu_pack = mu_tables(chain, plan.mu) if plan.r >= 2 else None
    u0, ut, u0f, utf = _factors(plan)
    profile = hitting_profile(u0)
    metadata = {"defect": plan.defect, "r": plan.r, "s": plan.s, "t": plan.t}
    if plan.defect != "wrong-cov":
        markov, gauss = _second_rk_analytic(plan, u0, ut, profile)
        _check_analytic(markov, gauss, metadata)
    kernel = make_kernel(chain)
    zero = chain.zero_index
    keep = u0f.keep
    pos, y_pos, mu_vec = _on_readout(plan, keep)
    profile_s = profile.restrict(u0f.keep)

    # standalone: life from 0 run to the inverse time, plus a plain square,
    # against the bumped square (both sides unweighted)
    tau_ep = _markov(plan, "second-rk", 1, kernel, ("fixed", zero),
                     ("fixed", plan.t), stop="left", cols=keep)
    sq = _ensemble(plan, "second-rk", 2, _blk_gauss_square, utf)
    lhs_sa = tau_ep["field_cols"][:, pos] + sq["vals"][:, pos]
    rhs_sa = _ensemble(plan, "second-rk", 3, _blk_gauss_standalone_rhs,
                       utf, profile_s, plan.t)["vals"][:, pos]
    rows = compare_sides(
        side_estimates(lhs_sa, plan.point_labels, plan.laplace_probes,
                       moment_orders=plan.moment_orders),
        side_estimates(rhs_sa, plan.point_labels, plan.laplace_probes,
                       moment_orders=plan.moment_orders),
    )
    rows = [StatRow(f"standalone:{r_.statistic}", r_.lhs, r_.rhs, r_.se, r_.z)
            for r_ in rows]

    # combined: lives + killed life + inverse-time life + plain composite,
    # against the bumped composite under the tilt
    markov_fields = _first_rk_markov_fields(plan, kernel, mu_pack, keep,
                                            harness="second-rk")
    tau_ep2 = _markov(plan, "second-rk", 4, kernel, ("fixed", zero),
                      ("fixed", plan.t), stop="left", cols=keep)
    gl = _ensemble(plan, "second-rk", 60, _blk_gauss_second,
                   plan.r, plan.s, plan.t, profile_s, u0f, utf, y_pos, mu_vec)
    lhs = markov_fields[:, pos] + tau_ep2["field_cols"][:, pos] \
        + gl["g_hat"][:, pos]
    gr = _ensemble(plan, "second-rk", 61, _blk_gauss_second,
                   plan.r, plan.s, plan.t, profile_s, u0f, utf, y_pos, mu_vec)
    rhs = gr["g_bar"][:, pos]
    weights = np.ones(rhs.shape[0]) if plan.defect == "unit-weights" \
        else gr["weight"]
    combined = compare_fields(
        "second-rk", lhs, rhs, plan.point_labels, plan.laplace_probes,
        plan.seed, rhs_weights=weights, z_max=plan.z_max,
        moment_orders=plan.moment_orders, metadata=metadata,
    )
    combined.rows = rows + [
        StatRow(f"combined:{r_.statistic}", r_.lhs, r_.rhs, r_.se, r_.z,
                r_.gating)
        for r_ in combined.rows
    ]
    combined.n_lhs = lhs.shape[0]
    return combined


def run_second_rk_cond(plan: TestPlan) -> ComparisonReport:
    """Conditional factorisation at an exponential inverse-local-time level:
    marginal of the stopping epoch against independent clamped lives,
    decorrelation of transformed epochs, path identities, factorisation."""
    if plan.r < 2:
        raise InvariantError("conditional harness needs r >= 2")
    if plan.p <= 0:
        raise InvariantError("second-rk-cond needs p > 0")
    chain = plan.chain
    kernel = make_kernel(chain)
    mu_pack = mu_tables(chain, plan.mu)
    y = chain.state_index(plan.start)
    zero = chain.zero_index
    r = plan.r
    # records keep the test points and 0, whose local time the level and
    # hit checks read
    cols = np.union1d(plan.tp_cols, [zero])
    at = np.searchsorted(cols, plan.tp_cols)
    z = int(np.searchsorted(cols, zero))

    traces = _markov(plan, "second-rk-cond", 1, kernel, ("fixed", y),
                     ("exp", plan.p), stop="right", record="epochs",
                     rebirth=mu_pack, r_max=r, cols=cols)
    kept = traces["stop_epoch"] == r
    n_kept = int(np.count_nonzero(kept))
    if n_kept < MIN_CONDITIONED:
        raise ConditioningTooRare(
            f"only {n_kept} of {plan.replicates} traces crossed at epoch {r}"
        )
    early = traces["fields_cols"][kept][:, 0, :][:, at]
    last = traces["fields_cols"][kept][:, r - 1, :][:, at]

    # path identities on every conditioned trace (exact bookkeeping)
    lam = traces["levels"][kept]
    l0_final = traces["fields_cols"][kept].sum(axis=1)[:, z]
    id_viol = int(np.count_nonzero(
        np.abs(l0_final - lam) > 1e-12 * np.maximum(1.0, lam)
    ))
    offs = traces["t"][kept] - traces["bounds"][kept][:, r - 2]
    tau_viol = int(np.count_nonzero(~(offs > 0.0)))
    # the stopping life crossed its level, so it held local time at 0
    hit_viol = int(np.count_nonzero(
        ~(traces["fields_cols"][kept, r - 1, z] > 0.0)))

    marginal = _markov(plan, "second-rk-cond", 2, kernel, ("mu",) + mu_pack,
                       ("exp", plan.p), stop="left", clamp="total", cols=cols)
    if plan.defect == "unconditioned-marginal":
        ref = marginal["field_cols"][:, at]
    else:
        ref = marginal["field_cols"][marginal["stopped"]][:, at]

    rows = compare_sides(
        side_estimates(last, plan.point_labels, plan.laplace_probes,
                       moment_orders=plan.moment_orders),
        side_estimates(ref, plan.point_labels, plan.laplace_probes,
                       moment_orders=plan.moment_orders),
    )
    rows = [StatRow(f"marginal:{row.statistic}", row.lhs, row.rhs, row.se,
                    row.z) for row in rows]
    rows += covariance_zero_rows(np.exp(-early), np.exp(-last),
                                 plan.point_labels, plan.point_labels)
    for name, count in [("level_identity_violations", id_viol),
                        ("tau_offset_violations", tau_viol),
                        ("stop_epoch_hit_violations", hit_viol)]:
        rows.append(StatRow(name, float(count), 0.0, 0.0,
                            zscore(float(count), 0.0)))

    fracs, ns = [], []
    for i in range(1, r + 1):
        spec = ("fixed", y) if i == 1 else ("mu",) + mu_pack
        ens = _markov(plan, "second-rk-cond", 10 + i, kernel, spec,
                      ("exp", plan.p), cols=cols)
        below = ens["field_cols"][:, z] < ens["levels"]
        frac = float(np.mean(~below)) if i == r else float(np.mean(below))
        fracs.append(frac)
        ns.append(below.shape[0])
    rows.append(product_fraction_row(
        "factorization", n_kept / plan.replicates, plan.replicates, fracs, ns,
    ))
    return ComparisonReport(
        test_id="second-rk-cond", rows=rows, seed=plan.seed,
        n_lhs=n_kept, n_rhs=ref.shape[0], z_max=plan.z_max,
        metadata={"defect": plan.defect, "r": r, "p": plan.p,
                  "conditioned_fraction": n_kept / plan.replicates,
                  "level_ties": int(traces["ties"])},
    )


# The grid diagnostics live in :mod:`rklab.diagnostics`, which imports this
# module; their run functions import it when called.

def run_reduction(plan: TestPlan) -> ComparisonReport:
    """The reduction identity at the sup scales ``plan.scales``."""
    from . import diagnostics

    return diagnostics.reduction_identity_test(plan, plan.scales)


def run_modulus_local(cfg: SweepConfig):
    from . import diagnostics

    return diagnostics.local_modulus_sweep(cfg)


def run_modulus_uniform(cfg: SweepConfig):
    from . import diagnostics

    return diagnostics.uniform_modulus_sweep(cfg)


def run_lil(cfg: SweepConfig):
    from . import diagnostics

    return diagnostics.lil_sweep(cfg)


def _entry(fn, num, defects=(), plan_type=TestPlan):
    """Declare a harness on its run function: ``num`` fixes its random
    streams (never renumber one), ``defects`` are the ``plan.defect`` names
    it implements and ``plan_type`` is the type of its argument."""
    fn.num, fn.defects, fn.plan_type = num, frozenset(defects), plan_type
    return fn


REGISTRY = {
    "normalization": _entry(run_normalization, 1, ["no-rebirth-target"]),
    "eisenbaum": _entry(run_eisenbaum, 2, ["unit-weights"]),
    "first-rk": _entry(run_first_rk, 3, ["unit-weights", "wrong-cov"]),
    "first-rk-cond": _entry(run_first_rk_cond, 4, ["unconditioned-marginal"]),
    "tminus": _entry(run_tminus, 5, ["unconditioned-last"]),
    "second-rk": _entry(run_second_rk, 6, ["unit-weights", "wrong-cov"]),
    "second-rk-cond": _entry(run_second_rk_cond, 7,
                             ["unconditioned-marginal"]),
    "reduction": _entry(run_reduction, 8, ["single-life"]),
    "modulus-local": _entry(run_modulus_local, 9, plan_type=SweepConfig),
    "modulus-uniform": _entry(run_modulus_uniform, 10, plan_type=SweepConfig),
    "lil": _entry(run_lil, 11, plan_type=SweepConfig),
}
