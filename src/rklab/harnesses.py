"""Statistical harnesses comparing Markov-side and Gaussian-side ensembles.

Each harness realises one identity in law as a two-sample (or
sample-vs-exact) comparison of first and second moments and Laplace probes
at the test points, with verdicts at ``z_max`` pooled standard errors.

The Eisenbaum identity and the first and second Ray-Knight identities share
one shape, Markov lives plus an untilted squared shifted field against the
tilted squared field, and one runner, :func:`_tilted`, that takes each as
data.  Their gated ``exact:mean`` rows put the lives' first moment, from the
kernel tables, against the tilt's share of the tilted side, from the
sampling roots; the two agree to roundoff, so a gap there means a mis-wired
life, factor or restriction, not bad luck.

The conditioned-trace harnesses share one runner, :func:`_conditioned`:
rebirthed traces kept where they stop in life r, against r independent
lives.  :func:`_factorised` reports the two conditional factorisations.

:data:`REGISTRY` is the one table of harnesses: every harness id of a config
maps to its run function, which declares the number that fixes its random
streams (:func:`tag_for`), the plan type it takes and the injected defects
(``plan.defect``) it implements.  A defect deliberately breaks one
ingredient so that the test suite can demonstrate statistical power.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
from .gaussfield import composite_block, factor_covariance
from .stats import (
    ComparisonReport,
    StatRow,
    compare_fields,
    compare_sides,
    covariance_zero_rows,
    default_probes,
    gated_z,
    product_fraction_row,
    rows_vs_exact,
    side_estimates,
    zscore,
)

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


def _blk_gauss(s, lives, tail, size, seed, tag, b):
    rng = block_rng(seed, tag, b)
    field, weight = composite_block(s, lives, size, rng, tail)
    return {"field": field, "weight": weight}


def _ensemble(plan, harness, role, fn, *args):
    """Run one ensemble of plan.replicates lanes block by block through
    ``fn(*args, size, seed, tag, b)``; counts add up over the blocks and
    arrays are concatenated."""
    tag = tag_for(harness, role)
    results = map_blocks(
        [(fn, args + (size, plan.seed, tag, b))
         for b, size in enumerate(block_plan(plan.replicates))],
        plan.workers)
    merged = {}
    for key in results[0]:
        if np.isscalar(results[0][key]):
            merged[key] = sum(r[key] for r in results)
        else:
            merged[key] = np.concatenate([r[key] for r in results])
    return merged


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
    """The start position within the readout set ``keep``, and mu restricted
    to it."""
    y_pos = int(np.searchsorted(keep, plan.chain.state_index(plan.start)))
    mu_vec = _mu_vec(plan)[keep] if plan.mu is not None \
        else np.zeros(keep.size)
    return y_pos, mu_vec


def _with_zero(chain, states):
    """The chain indices ``states``, sorted, with state 0 added."""
    states = np.sort(states)
    z = chain.zero_index
    if z is None or z in states:
        return states
    return np.insert(states, np.searchsorted(states, z), z)


def _green(plan):
    """The readout set S, the block K of S and state 0 (sorted chain
    indices), and u0 on K: every kernel entry a tilted identity reads."""
    keep = _readout(plan)
    block = _with_zero(plan.chain, keep)
    return keep, block, potential_matrix(plan.chain, 0.0, cols=block)


def _root(table, block, keep):
    """The sampling root of a kernel ``table`` on the block, on the chain
    indices ``keep``, which it keeps as its states."""
    factor = factor_covariance(table, keep=np.searchsorted(block, keep))
    return replace(factor, keep=keep)


def _factors(plan):
    """u0 and u~0 on the block K as ``green`` = (K, u0, u~0), the block u0,
    and the roots of u0 and u~0 on the readout set."""
    keep, block, u0 = _green(plan)
    ut = killed_at_zero_potential(u0)
    u0f, utf = _root(u0, block, keep), _root(ut, block, keep)
    if plan.defect == "wrong-cov":
        utf = u0f
    return (block, u0.table, ut.table), u0, u0f, utf


def _leg_mean(plan, green, leg):
    """Exact mean field of one Markov leg at the test points, from the
    kernel tables ``green`` = (K, u0, u~0) on the block K."""
    _, start, level, stop = leg
    block, u0, ut = green
    cols = np.searchsorted(block, plan.tp_cols)
    if stop == "left":  # from 0 to the left inverse local time at level t
        z = np.searchsorted(block, plan.chain.zero_index)
        return u0[z, cols] ** 2 / u0[z, z] * -np.expm1(-level[1] / u0[z, z])
    table = ut if stop == "zero" else u0
    if start[0] == "fixed":
        return table[np.searchsorted(block, start[1]), cols]
    # summed atom by atom, so that the bits do not depend on K
    mu_vec = _mu_vec(plan)
    return sum(mu_vec[x] * table[np.searchsorted(block, x), cols]
               for x in np.flatnonzero(mu_vec))


def _tilt_share(lives, tail, pos):
    """What the tilt and the bump add to the mean of the tilted composite at
    the positions ``pos``, from the sampling roots: sum over lives of
    C[pos, tilt] (or C[pos] @ mu), plus h^2 E[t ^ rho] for a bumped tail."""
    share = 0.0
    for factor, tilt in lives:
        cov = factor.root @ factor.root.T
        share = share + (cov[:, tilt] if np.ndim(tilt) == 0
                         else cov @ tilt)[pos]
    if tail is not None and tail[1] is not None:
        profile, t = tail[1]
        share = share + profile.h[pos] ** 2 * profile.u00 \
            * -np.expm1(-t / profile.u00)
    return share


def _tilted(plan, harness, green, legs, lives, tail, roles, weighted=True):
    """One tilted identity, given as data.

    Left side: the Markov ``legs``, each (role, start spec, level spec,
    stop), summed in order, plus the composite of ``lives`` (see
    :func:`composite_block`) with ``tail`` = (factor, bump) drawn plain.
    Right side: the same composite with the tail bumped, under its tilt
    when ``weighted``.  ``roles`` number the two composite streams.  The
    ``exact:mean`` rows compare the legs' mean from ``green`` = (K, u0, u~0)
    with the tilt's share from the sampling roots (se 0).
    """
    keep = (lives[0] if lives else tail)[0].keep
    pos = np.searchsorted(keep, plan.tp_cols)
    kernel = make_kernel(plan.chain)
    lhs = 0.0
    for role, start, level, stop in legs:
        out = _markov(plan, harness, role, kernel, start, level, stop=stop,
                      cols=keep)
        lhs = lhs + out["field_cols"][:, pos]
    plain = None if tail is None else (tail[0], None)
    lhs = lhs + _ensemble(plan, harness, roles[0], _blk_gauss, plan.s, lives,
                          plain)["field"][:, pos]
    right = _ensemble(plan, harness, roles[1], _blk_gauss, plan.s, lives,
                      tail)
    rhs = right["field"][:, pos]
    weights = None
    if weighted:
        weights = np.ones(rhs.shape[0]) if plan.defect == "unit-weights" \
            else right["weight"]
    report = compare_fields(
        harness, lhs, rhs, plan.point_labels, plan.laplace_probes,
        plan.seed, rhs_weights=weights, z_max=plan.z_max,
        moment_orders=plan.moment_orders, metadata={"defect": plan.defect},
    )
    exact = sum(_leg_mean(plan, green, leg) for leg in legs)
    share = _tilt_share(lives, tail, pos)
    report.rows += [
        StatRow(f"exact:mean[{x}]", float(a), float(b), 0.0,
                gated_z(float(a), float(b), 0.0))
        for x, a, b in zip(plan.point_labels, exact, share)
    ]
    return report


def _first_rk_spec(plan, u0f, utf):
    """Legs and lives of the hitting-time identity with r lives: a full life
    from y, r - 2 full lives from mu and a life from mu stopped at 0 (for
    r = 1, one life from y stopped at 0), tilted at y and then at mu."""
    y = plan.chain.state_index(plan.start)
    y_pos, mu_vec = _on_readout(plan, u0f.keep)
    if plan.r == 1:
        return [(40, ("fixed", y), None, "zero")], [(utf, y_pos)]
    mu = ("mu",) + mu_tables(plan.chain, plan.mu)
    legs = [(20, ("fixed", y), None, "death")] \
        + [(20 + i, mu, None, "death") for i in range(2, plan.r)] \
        + [(40, mu, None, "zero")]
    lives = [(u0f, y_pos)] + [(u0f, mu_vec)] * (plan.r - 2) \
        + [(utf, mu_vec)]
    return legs, lives


def _conditioned(plan, harness, cols, stop, life_stop, level=None,
                 what="stopped", marginal=None):
    """(traces, kept, fields, lives, ref) of a conditioned-trace harness,
    recorded on ``cols`` under the level spec ``level``.  Role 1: traces
    run to ``stop`` in at most r lives, ``kept`` where it fired in life r
    (``fields``, at least MIN_CONDITIONED; the error says how few were
    ``what``).  Roles 11 .. 10 + r: lives from y, then from mu, run to
    ``life_stop``.  Role 2, on the engine arguments ``marginal``: lives from
    mu whose stopped lanes (all under ``unconditioned-marginal``) are ``ref``.
    """
    r = plan.r
    if r < 2:
        raise InvariantError(f"{harness} needs r >= 2")
    kernel = make_kernel(plan.chain)
    mu_pack = mu_tables(plan.chain, plan.mu)
    y, mu = ("fixed", plan.chain.state_index(plan.start)), ("mu",) + mu_pack
    traces = _markov(plan, harness, 1, kernel, y, level, stop=stop,
                     record="epochs", rebirth=mu_pack, r_max=r, cols=cols)
    kept = traces["stop_epoch"] == r
    n_kept = int(np.count_nonzero(kept))
    if n_kept < MIN_CONDITIONED:
        raise ConditioningTooRare(
            f"only {n_kept} of {plan.replicates} traces {what} at epoch {r}")
    lives = [_markov(plan, harness, 10 + i, kernel, y if i == 1 else mu,
                     level, stop=life_stop, cols=cols)
             for i in range(1, r + 1)]
    ref = None
    if marginal is not None:
        out = _markov(plan, harness, 2, kernel, mu, level, cols=cols,
                      **marginal)
        ref = out["field_cols"] if plan.defect == "unconditioned-marginal" \
            else out["field_cols"][out["stopped"]]
    return traces, kept, traces["fields_cols"][kept], lives, ref


def _factorised(plan, harness, fields, at, ref, hits):
    """The report of a conditional factorisation: the stopping life of the
    kept traces' ``fields`` against ``ref`` (``marginal:`` rows), its
    transform uncorrelated with the first life's (``condind`` rows), and the
    kept fraction against the product of the r lives' factors, P(no hit)
    for the early lives and P(hit) for the last, from ``hits`` (the
    ``factorization`` row).  ``at`` are the test points' record columns."""
    r, n_kept = plan.r, fields.shape[0]
    early = fields[:, 0, :][:, at]
    last = fields[:, r - 1, :][:, at]
    rows = compare_sides(
        side_estimates(last, plan.point_labels, plan.laplace_probes,
                       moment_orders=plan.moment_orders),
        side_estimates(ref[:, at], plan.point_labels, plan.laplace_probes,
                       moment_orders=plan.moment_orders),
    )
    rows = [StatRow(f"marginal:{row.statistic}", row.lhs, row.rhs, row.se,
                    row.z) for row in rows]
    rows += covariance_zero_rows(np.exp(-early), np.exp(-last),
                                 plan.point_labels, plan.point_labels)
    fracs = [float(np.mean(hit)) if i == r else 1.0 - float(np.mean(hit))
             for i, hit in enumerate(hits, 1)]
    rows.append(product_fraction_row(
        "factorization", n_kept / plan.replicates, plan.replicates, fracs,
        [hit.shape[0] for hit in hits]))
    return ComparisonReport(
        test_id=harness, rows=rows, seed=plan.seed, n_lhs=n_kept,
        n_rhs=ref.shape[0], z_max=plan.z_max,
        metadata={"defect": plan.defect, "r": r,
                  "conditioned_fraction": n_kept / plan.replicates},
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
    """One full life plus an independent shifted square against the tilted
    shifted square."""
    if plan.s == 0:
        raise InvariantError("eisenbaum harness needs s != 0")
    keep, block, u0 = _green(plan)
    u0f = _root(u0, block, keep)
    y = plan.chain.state_index(plan.start)
    y_pos, _ = _on_readout(plan, keep)
    return _tilted(plan, "eisenbaum", (block, u0.table, None),
                   [(1, ("fixed", y), None, "death")], [(u0f, y_pos)], None,
                   (2, 3))


def run_first_rk(plan: TestPlan) -> ComparisonReport:
    """Generalised hitting-time identity: lives plus fresh composites,
    unweighted, against tilted composites."""
    if plan.r < 1:
        raise InvariantError("first-rk needs r >= 1")
    green, _, u0f, utf = _factors(plan)
    legs, lives = _first_rk_spec(plan, u0f, utf)
    report = _tilted(plan, "first-rk", green, legs, lives,
                     None, (60, 61))
    report.metadata.update(r=plan.r, s=plan.s)
    return report


def run_first_rk_cond(plan: TestPlan) -> ComparisonReport:
    """Conditional factorisation at the hitting time: the stopping epoch's
    field matches an independently conditioned life, transformed early and
    late epochs are uncorrelated, and the stop-epoch probability factorises."""
    cols = plan.tp_cols
    _, _, fields, lives, ref = _conditioned(
        plan, "first-rk-cond", cols, "zero", "zero", marginal={"stop": "zero"})
    return _factorised(plan, "first-rk-cond", fields, np.arange(cols.size),
                       ref, [ens["stopped"] for ens in lives])


def run_tminus(plan: TestPlan) -> ComparisonReport:
    """Left-limit hitting on an absorbing chain: traces stopped at the first
    absorption against sums of independently conditioned lives."""
    chain = plan.chain
    if chain.zero_accessible or not np.any(chain.absorb_rate > 0):
        raise InvariantError("tminus needs an absorbing chain")
    cols = plan.tp_cols
    at = np.arange(cols.size)  # the test points' columns in a record on cols
    _, _, fields, lives, _ = _conditioned(plan, "tminus", cols, "absorb",
                                          "absorb", what="absorbed")
    lhs = fields.sum(axis=1)[:, at]

    parts = []
    qc_violations = 0
    for i, ens in enumerate(lives, 1):
        absorbed = ens["stopped"]
        # an absorbed life must end next to 0, where absorption has a rate
        qc_violations += int(np.count_nonzero(
            absorbed & (chain.absorb_rate[ens["state"]] == 0.0)
        ))
        keep = absorbed | (plan.defect == "unconditioned-last") \
            if i == plan.r else ~absorbed
        parts.append(ens["field_cols"][keep][:, at])
    m = min(pt.shape[0] for pt in parts)
    rhs = sum(pt[:m] for pt in parts)

    report = compare_fields(
        "tminus", lhs, rhs, plan.point_labels, plan.laplace_probes,
        plan.seed, z_max=plan.z_max, moment_orders=plan.moment_orders,
        metadata={"defect": plan.defect, "r": plan.r,
                  "conditioned_fraction": fields.shape[0] / plan.replicates},
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
    green, u0, u0f, utf = _factors(plan)
    at = np.searchsorted(green[0], u0f.keep)
    tail = (utf, (hitting_profile(u0).restrict(at), plan.t))
    to_level = (("fixed", plan.chain.zero_index), ("fixed", plan.t), "left")
    # standalone: life from 0 run to the inverse time, plus a plain square,
    # against the bumped square (both sides unweighted)
    standalone = _tilted(plan, "second-rk", green, [(1,) + to_level], [],
                         tail, (2, 3), weighted=False)
    # combined: lives + killed life + inverse-time life + plain composite,
    # against the bumped composite under the tilt
    legs, lives = _first_rk_spec(plan, u0f, utf)
    report = _tilted(plan, "second-rk", green, legs + [(4,) + to_level],
                     lives, tail, (60, 61))
    report.rows = [
        StatRow(f"{part}:{row.statistic}", row.lhs, row.rhs, row.se, row.z,
                row.gating)
        for part, rows in [("standalone", standalone.rows),
                           ("combined", report.rows)]
        for row in rows
    ]
    report.metadata.update(r=plan.r, s=plan.s, t=plan.t)
    return report


def run_second_rk_cond(plan: TestPlan) -> ComparisonReport:
    """Conditional factorisation at an exponential inverse-local-time level:
    marginal of the stopping epoch against independent clamped lives,
    decorrelation of transformed epochs, path identities, factorisation."""
    if plan.p <= 0:
        raise InvariantError("second-rk-cond needs p > 0")
    if not plan.chain.zero_accessible:
        raise InvariantError("second-rk-cond needs a chain that reaches 0")
    # records keep the test points and 0, whose local time the level and
    # hit checks read
    cols = _with_zero(plan.chain, plan.tp_cols)
    at = np.searchsorted(cols, plan.tp_cols)
    z = int(np.searchsorted(cols, plan.chain.zero_index))
    traces, kept, fields, lives, ref = _conditioned(
        plan, "second-rk-cond", cols, "right", "death", ("exp", plan.p),
        what="crossed", marginal={"stop": "left", "clamp": "total"})

    # path identities on every conditioned trace (exact bookkeeping)
    lam = traces["levels"][kept]
    l0_final = fields.sum(axis=1)[:, z]
    id_viol = int(np.count_nonzero(
        np.abs(l0_final - lam) > 1e-12 * np.maximum(1.0, lam)
    ))
    offs = traces["t"][kept] - traces["bounds"][kept][:, plan.r - 2]
    tau_viol = int(np.count_nonzero(~(offs > 0.0)))
    # the stopping life crossed its level, so it held local time at 0
    hit_viol = int(np.count_nonzero(~(fields[:, plan.r - 1, z] > 0.0)))

    report = _factorised(
        plan, "second-rk-cond", fields, at, ref,
        [ens["field_cols"][:, z] >= ens["levels"] for ens in lives])
    # the path identities go before the factorisation row
    report.rows[-1:-1] = [
        StatRow(name, float(count), 0.0, 0.0, zscore(float(count), 0.0))
        for name, count in [("level_identity_violations", id_viol),
                            ("tau_offset_violations", tau_viol),
                            ("stop_epoch_hit_violations", hit_viol)]]
    report.metadata.update(p=plan.p, level_ties=int(traces["ties"]))
    return report


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
