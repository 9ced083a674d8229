"""Grid-surrogate diagnostics: reduction identity and asymptotic-ratio sweeps.

The reduction test is the only gating member: conditioned on the stop epoch,
the trace's local-time field is a sum of independently conditioned lives, so
any path functional of it - here the running supremum over a neighbourhood
of 0 - must match the same functional of summed independent conditioned
lives.  The single-life comparison (dropping the early lives entirely) is
reported alongside as informational rows; it only becomes exact as the
neighbourhood shrinks.

The modulus and iterated-logarithm sweeps record ratio statistics against
their theoretical normalisations.  Their limits are almost-sure statements
as the scale tends to zero; at any affordable grid the medians are expected
within a factor-two band, which is noted but never gated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .batch import block_rng, make_kernel, mu_tables, simulate
from .chains import potential_matrix
from .errors import (
    ConditioningTooRare,
    EpochBudgetExceeded,
    GridTooCoarse,
    InvariantError,
)
from .harnesses import (
    MIN_CONDITIONED,
    SweepConfig,
    TestPlan,
    _ensemble,
    _markov,
    _starts,
)
from .stats import ComparisonReport, StatRow, compare_sides, side_estimates, zscore

SWEEP_BUDGET = 10**6  # lives per trace before a sweep gives up
PHI_SCALE = 2.0


@dataclass
class SweepResult:
    sweep_id: str
    scales: tuple
    ratios: tuple          # per-scale median ratio across replicates
    target: float
    replicates: int
    seed: int
    metadata: dict = field(default_factory=dict)
    verdict = True  # informational: a sweep never gates

    def __post_init__(self):
        if any(b >= a for a, b in zip(self.scales, self.scales[1:])):
            raise InvariantError("scales must be strictly decreasing")
        if not all(np.isfinite(self.ratios)):
            raise InvariantError("sweep produced non-finite ratio statistics")

    @property
    def finest_median(self) -> float:
        return float(self.ratios[-1])

    @property
    def within_band(self) -> bool:
        # informational factor-two band around the theoretical limit
        m = self.finest_median
        return self.target / 2.0 <= m <= self.target * 2.0

    def to_dict(self):
        return {
            "sweep_id": self.sweep_id,
            "scales": list(self.scales),
            "ratios": list(self.ratios),
            "target": self.target,
            "replicates": self.replicates,
            "seed": self.seed,
            "finest_median": self.finest_median,
            "within_factor2_band": self.within_band,
            "gating": False,
            "metadata": self.metadata,
        }

    def csv_rows(self):
        for scale, ratio in zip(self.scales, self.ratios):
            yield (scale, ratio, self.target, self.replicates, self.seed)


def _grid_spacing(chain):
    steps = np.diff(chain.coords)
    if steps.size == 0 or np.abs(steps - steps[0]).max() > 1e-12 * steps[0]:
        raise InvariantError("sweep chains must sit on a uniform grid")
    return float(steps[0])


def _check_grid(cfg, spacing):
    if int(np.floor(min(cfg.scales) / spacing + 1e-9)) < 8:
        raise GridTooCoarse(
            f"fewer than 8 grid points inside scale {min(cfg.scales)}"
        )


def _modulus_phi(kind, sigma2, offsets_coord):
    """phi per offset: sqrt(PHI_SCALE * sigma^2 * log-correction), with the
    ``loglog`` correction of the local modulus or the ``log`` one of the
    uniform modulus."""
    dist = np.abs(offsets_coord)
    if kind == "loglog":
        if np.any(dist >= np.exp(-1.0)):
            raise InvariantError("loglog correction needs scales below 1/e")
        corr = np.log(np.log(1.0 / dist))
    else:
        if np.any(dist >= 1.0):
            raise InvariantError("log correction needs scales below 1")
        corr = np.log(1.0 / dist)
    return np.sqrt(PHI_SCALE * sigma2 * corr)


def _sweep_fields(cfg, sweep_id, window):
    """Total fields, on the states ``window``, of rebirthed traces run to the
    sweep's stop.  ``fields`` injected into a sweep (its testing hook) are
    over every state and are cut to the same window."""
    kernel = make_kernel(cfg.chain)
    start = ("fixed", cfg.chain.state_index(cfg.start))
    out = _markov(cfg, sweep_id, 1, kernel, start, stop=cfg.stop_kind,
                  rebirth=mu_tables(cfg.chain, cfg.mu), r_max=SWEEP_BUDGET,
                  cols=window)
    if np.any(out["stop_epoch"] == 0):
        raise EpochBudgetExceeded(
            f"trace exceeded {SWEEP_BUDGET} lives before the stop fired"
        )
    return out["field_cols"]


def _median_ratios(per_scale):
    medians = []
    counts = []
    for vals in per_scale:
        finite = vals[np.isfinite(vals)]
        counts.append(int(finite.size))
        medians.append(float(np.median(finite)) if finite.size else np.nan)
    return medians, counts


def _checkpointed(scales, spacing, offsets, increments, denom):
    """Per scale h, the lanes' running maximum of ``increments(o)`` (arrays
    of one value per lane) over the offsets o = 1 .. ``offsets`` with
    o * spacing <= h, over ``denom``."""
    checkpoints = {}
    for h in scales:
        checkpoints.setdefault(int(np.floor(h / spacing + 1e-9)), []).append(h)
    running = np.zeros(denom.shape[0])
    at_scale = {}
    for o in range(1, offsets + 1):
        for inc in increments(o):
            np.maximum(running, inc, out=running)
        for h in checkpoints.get(o, ()):
            at_scale[h] = running / denom
    return [at_scale[h] for h in scales]


def local_modulus_sweep(cfg: SweepConfig, fields=None) -> SweepResult:
    """Median ratio of the local increment modulus at d to sqrt(2 L^d).

    ``fields`` injects precomputed local-time fields (testing hook).
    """
    chain = cfg.chain
    spacing = _grid_spacing(chain)
    _check_grid(cfg, spacing)
    d_col = chain.state_index(cfg.d)
    if chain.zero_accessible and d_col == chain.zero_index:
        raise InvariantError("local modulus centre must differ from 0")
    o_max = int(np.floor(max(cfg.scales) / spacing + 1e-9))
    n = chain.n_states
    # the window d +- o for o <= o_max; column col of the chain is col - lo
    # in the fields and in u0, which is solved on the window only
    lo = max(d_col - o_max, 0)
    window = np.arange(lo, min(d_col + o_max, n - 1) + 1)
    u0 = potential_matrix(chain, 0.0, cols=window).table
    dd = d_col - lo
    fields = _sweep_fields(cfg, "modulus-local", window) if fields is None \
        else fields[:, window]
    denom = np.sqrt(2.0 * fields[:, dd])
    denom[denom == 0.0] = np.nan

    def increments(o):
        for col in (d_col - o, d_col + o):
            if 0 <= col < n:
                c = col - lo
                sig2 = u0[c, c] + u0[dd, dd] - 2.0 * u0[c, dd]
                phi = _modulus_phi("loglog", np.array([sig2]),
                                   np.array([o * spacing]))[0]
                yield np.abs(fields[:, c] - fields[:, dd]) / phi

    medians, counts = _median_ratios(
        _checkpointed(cfg.scales, spacing, o_max, increments, denom))
    return SweepResult(
        sweep_id="modulus-local", scales=tuple(cfg.scales),
        ratios=tuple(medians), target=1.0, replicates=cfg.replicates,
        seed=cfg.seed,
        metadata={"finite_counts": counts, "d": str(cfg.d),
                  "stop_kind": cfg.stop_kind, "phi_kind": "loglog"},
    )


def uniform_modulus_sweep(cfg: SweepConfig, fields=None) -> SweepResult:
    """Median ratio of the pairwise increment modulus over the window to the
    supremum of sqrt(2 L).  ``fields`` injects precomputed fields."""
    chain = cfg.chain
    spacing = _grid_spacing(chain)
    _check_grid(cfg, spacing)
    if cfg.interval is None or cfg.interval[0] <= 0:
        raise InvariantError("uniform modulus needs a window [c, d] with c > 0")
    lo, hi = cfg.interval
    cols = np.nonzero((chain.coords >= lo - 1e-12)
                      & (chain.coords <= hi + 1e-12))[0]
    if cols.size < 9:
        raise GridTooCoarse("window holds fewer than 9 grid points")
    o_max = int(np.floor(max(cfg.scales) / spacing + 1e-9))
    if o_max >= cols.size:
        raise GridTooCoarse("window is narrower than the largest scale")
    u0 = potential_matrix(chain, 0.0, cols=cols).table  # on the window
    F = _sweep_fields(cfg, "modulus-uniform", cols) if fields is None \
        else fields[:, cols]
    denom = np.sqrt(2.0 * F.max(axis=1))
    denom[denom == 0.0] = np.nan
    diag = np.diag(u0)

    def increments(o):
        sig2 = diag[:-o] + diag[o:] - 2.0 * np.diagonal(u0, o)
        phi = _modulus_phi("log", sig2, np.full(sig2.size, o * spacing))
        return [(np.abs(F[:, o:] - F[:, :-o]) / phi[None, :]).max(axis=1)]

    medians, counts = _median_ratios(
        _checkpointed(cfg.scales, spacing, o_max, increments, denom))
    return SweepResult(
        sweep_id="modulus-uniform", scales=tuple(cfg.scales),
        ratios=tuple(medians), target=1.0, replicates=cfg.replicates,
        seed=cfg.seed,
        metadata={"finite_counts": counts, "interval": list(cfg.interval),
                  "stop_kind": cfg.stop_kind, "phi_kind": "log"},
    )


def lil_sweep(cfg: SweepConfig, fields=None) -> SweepResult:
    """Median of sup_{0<x<=delta} L^x / (s(x) loglog(1/s(x))) per delta.

    ``fields`` injects precomputed fields (testing hook).
    """
    chain = cfg.chain
    spacing = _grid_spacing(chain)
    _check_grid(cfg, spacing)
    if max(cfg.scales) >= np.exp(-1.0):
        raise InvariantError("iterated-logarithm scales must stay below 1/e")
    coords = chain.coords
    window = _delta_cols(chain, [max(cfg.scales)])[0]
    fields = _sweep_fields(cfg, "lil", window) if fields is None \
        else fields[:, window]
    per_scale = []
    for cols in _delta_cols(chain, cfg.scales):
        s = coords[cols]
        denom = s * np.log(np.log(1.0 / s))
        at = np.searchsorted(window, cols)
        per_scale.append((fields[:, at] / denom[None, :]).max(axis=1))
    medians, counts = _median_ratios(per_scale)
    return SweepResult(
        sweep_id="lil", scales=tuple(cfg.scales), ratios=tuple(medians),
        target=1.0, replicates=cfg.replicates, seed=cfg.seed,
        metadata={"finite_counts": counts, "stop_kind": cfg.stop_kind},
    )


# reduction identity ----------------------------------------------------------

def _delta_cols(chain, deltas):
    """The states in (0, delta] for each delta, ascending."""
    cols = []
    for delta in deltas:
        c = np.nonzero((chain.coords > 1e-12)
                       & (chain.coords <= delta + 1e-12))[0]
        if c.size < 8:
            raise GridTooCoarse(
                f"fewer than 8 grid points inside delta {delta}"
            )
        cols.append(c)
    return cols


def _blk_reduction_lhs(kernel, mu_pack, start_idx, r, keep, dpos, size,
                       seed, tag, b):
    rng = block_rng(seed, tag, b)
    starts = np.full(size, start_idx, dtype=np.int64)
    out = simulate(kernel, starts, rng, stop="zero", record="epochs",
                   rebirth=mu_pack, r_max=r, track_min=True, cols=keep)
    kept = out["stop_epoch"] == r
    fields = out["fields_cols"][kept]
    total = fields.sum(axis=1)
    sups = np.stack([total[:, c].max(axis=1) for c in dpos], axis=1) \
        if kept.any() else np.zeros((0, len(dpos)))
    # an early life holds no local time below the lowest state it visited;
    # checked on the recorded states, which lie next to 0
    viol = 0
    for e in range(r - 1):
        mi = out["min_index"][kept][:, e]
        below = keep[None, :] < mi[:, None]
        viol += int(np.count_nonzero((fields[:, e, :] != 0.0) & below))
    return {"sups": sups, "viol_851": viol}


def _blk_reduction_rhs(kernel, mu_pack, start_idx, r, keep, dpos, size,
                       seed, tag, b):
    # one stream per block: the early lives and the hitting life are drawn
    # sequentially, hence independent
    rng = block_rng(seed, tag, b)
    parts = []
    starts_y = np.full(size, start_idx, dtype=np.int64)
    ep = simulate(kernel, starts_y, rng, stop="zero", cols=keep)
    parts.append(ep["field_cols"][~ep["stopped"]])
    for _ in range(r - 2):
        starts_mu = _starts(("mu",) + mu_pack, size, rng)
        ep = simulate(kernel, starts_mu, rng, stop="zero", cols=keep)
        parts.append(ep["field_cols"][~ep["stopped"]])
    starts_mu = _starts(("mu",) + mu_pack, size, rng)
    ep = simulate(kernel, starts_mu, rng, stop="zero", cols=keep)
    hit_fields = ep["field_cols"][ep["stopped"]]
    m = min([p.shape[0] for p in parts] + [hit_fields.shape[0]])
    total = hit_fields[:m].copy()
    for p in parts:
        total += p[:m]
    sups = np.stack([total[:, c].max(axis=1) for c in dpos], axis=1)
    single = np.stack([hit_fields[:m, :][:, c].max(axis=1) for c in dpos],
                      axis=1)
    return {"sups": sups, "single": single}


def reduction_identity_test(plan: TestPlan, deltas) -> ComparisonReport:
    """Gating comparison of sup functionals near 0.

    The trace side (conditioned on the stop epoch) is compared against sums
    of independently conditioned lives - the exact consequence of the
    conditional factorisation.  Dropping the early lives (single-life rows)
    is only exact in the vanishing-neighbourhood limit and is reported
    without gating.
    """
    chain = plan.chain
    if not chain.zero_accessible:
        raise InvariantError("reduction test needs a chain that reaches 0")
    if plan.r < 2:
        raise InvariantError("reduction test needs r >= 2")
    if chain.coords is None:
        raise InvariantError("reduction test needs a grid chain")
    deltas = tuple(deltas)
    if not deltas:
        raise InvariantError("reduction test needs sup scales")
    dcols = _delta_cols(chain, deltas)
    # record the states in (0, max delta]; each sup reads its positions there
    keep = dcols[int(np.argmax(deltas))]
    dpos = [np.searchsorted(keep, c) for c in dcols]
    kernel = make_kernel(chain)
    mu_pack = mu_tables(chain, plan.mu)
    y = chain.state_index(plan.start)

    args = (kernel, mu_pack, y, plan.r, keep, dpos)
    lhs = _ensemble(plan, "reduction", 1, _blk_reduction_lhs, *args)
    rhs = _ensemble(plan, "reduction", 2, _blk_reduction_rhs, *args)
    lhs_sups, rhs_sups, single_sups = lhs["sups"], rhs["sups"], rhs["single"]
    n_kept = lhs_sups.shape[0]
    if n_kept < MIN_CONDITIONED or rhs_sups.shape[0] < MIN_CONDITIONED:
        raise ConditioningTooRare(
            f"conditioned counts {n_kept}/{rhs_sups.shape[0]} below floor"
        )
    viol = lhs["viol_851"]

    if plan.defect == "single-life":
        rhs_sups = single_sups  # deliberately drops the early lives

    labels = [f"delta={d}" for d in deltas]
    rows = compare_sides(
        side_estimates(lhs_sups, labels, [], moment_orders=(1, 2)),
        side_estimates(rhs_sups, labels, [], moment_orders=(1, 2)),
    )
    rows = [StatRow(f"sup:{row.statistic}", row.lhs, row.rhs, row.se, row.z)
            for row in rows]
    single_rows = compare_sides(
        side_estimates(lhs_sups, labels, [], moment_orders=(1,)),
        side_estimates(single_sups, labels, [], moment_orders=(1,)),
    )
    rows += [StatRow(f"single-life:{row.statistic}", row.lhs, row.rhs,
                     row.se, row.z, gating=False) for row in single_rows]
    rows.append(StatRow("early_life_support_violations", float(viol), 0.0,
                        0.0, zscore(float(viol), 0.0)))
    return ComparisonReport(
        test_id="reduction", rows=rows, seed=plan.seed,
        n_lhs=n_kept, n_rhs=rhs_sups.shape[0], z_max=plan.z_max,
        metadata={
            "deltas": list(deltas), "r": plan.r, "defect": plan.defect,
            "conditioned_fraction": n_kept / plan.replicates,
        },
    )
