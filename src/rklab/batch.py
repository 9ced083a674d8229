"""Vectorised lockstep simulation used by the statistical harnesses.

All replicates of a block advance one jump event per round; every random
draw is an array draw from the block's own generator, so results depend only
on (seed, tag, block index) and never on the worker count.  Blocks have a
fixed size and are merged in index order, which makes reports byte-identical
across reruns and worker counts.

The scalar engine in :mod:`rklab.pathsim` is the readable reference; this
module must agree with it in law (tested) and on exact path identities.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chains import RebirthMeasure, SymmetricChain

BLOCK_SIZE = 8192

KILL = -1
ABSORB = -2

# death causes / trace outcomes
EXP_DEATH = 0
ABSORB_DEATH = 1
ZERO_STOP = 2
NOT_STOPPED = 0  # stop_epoch sentinel for abandoned traces


@dataclass(frozen=True)
class Kernel:
    """Sampling tables: total event rates and cumulative outcome rows."""

    chain: SymmetricChain
    total_rate: np.ndarray
    out_cum: np.ndarray   # (n, K) cumulative outcome probabilities, pad 2.0
    out_next: np.ndarray  # (n, K) jump target, KILL or ABSORB

    @property
    def n(self):
        return self.chain.n_states

    @property
    def m(self):
        return self.chain.measure

    @property
    def zero(self):
        return self.chain.zero_index


def make_kernel(chain: SymmetricChain) -> Kernel:
    n = chain.n_states
    Q = chain.generator
    total = -np.diag(Q) + chain.kill_rate
    rows = []
    for i in range(n):
        entries = [(Q[i, j], int(j)) for j in np.nonzero(Q[i] > 0)[0]]
        if chain.absorb_rate[i] > 0:
            entries.append((chain.absorb_rate[i], ABSORB))
        entries.append((chain.kill_rate, KILL))
        rows.append(entries)
    K = max(len(e) for e in rows)
    cum = np.full((n, K), 2.0)
    nxt = np.full((n, K), KILL, dtype=np.int64)
    for i, entries in enumerate(rows):
        acc = 0.0
        for k, (r, j) in enumerate(entries):
            acc += r / total[i]
            cum[i, k] = acc
            nxt[i, k] = j
        cum[i, len(entries) - 1] = 1.0  # guard against cumsum roundoff
    return Kernel(chain=chain, total_rate=total, out_cum=cum, out_next=nxt)


def mu_tables(chain: SymmetricChain, mu: RebirthMeasure):
    """(state indices, cumulative weights) for inverse-cdf rebirth draws."""
    labels = [x for x, w in mu.weights.items() if w > 0]
    idx = np.array([chain.state_index(x) for x in labels], dtype=np.int64)
    cum = np.cumsum([mu.weights[x] for x in labels])
    cum[-1] = 1.0
    return idx, cum


def _draw_next(kernel: Kernel, states, u):
    """Outcome per lane from one uniform: jump target, KILL or ABSORB."""
    cum = kernel.out_cum[states]
    k = (u[:, None] >= cum).sum(axis=1)
    return kernel.out_next[states, k]


def _draw_mu(mu_idx, mu_cum, u):
    return mu_idx[np.searchsorted(mu_cum, u, side="right")]


# deterministic block scheduling -------------------------------------------

def block_plan(n_total: int):
    """Fixed-size block sizes, independent of worker count."""
    sizes = []
    done = 0
    while done < n_total:
        size = min(BLOCK_SIZE, n_total - done)
        sizes.append(size)
        done += size
    return sizes


def block_rng(seed: int, tag: int, block: int):
    return np.random.default_rng(np.random.SeedSequence(entropy=[seed, tag, block]))


def _call(payload):
    fn, args = payload
    return fn(*args)


def map_blocks(payloads, workers: int = 1):
    """Run (fn, args) payloads preserving order; processes when workers > 1."""
    if workers <= 1:
        return [_call(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(_call, payloads))


# epoch runners -------------------------------------------------------------

def run_epochs(kernel: Kernel, starts, rng, stop_on_zero=False,
               snapshot_t0=False):
    """Simulate one life per lane.

    ``stop_on_zero`` freezes a lane the instant it jumps into the zero state
    (field at the hitting time, no occupation there), realising the life of
    the chain killed at 0.  Otherwise lanes run to their death; on
    zero-accessible chains the first entry into 0 is recorded and optionally
    the field is snapshotted there.
    """
    starts = np.asarray(starts, dtype=np.int64)
    N = starts.shape[0]
    n = kernel.n
    zero = kernel.zero
    st = starts.copy()
    alive = np.ones(N, dtype=bool)
    field = np.zeros((N, n))
    t = np.zeros(N)
    zeta = np.zeros(N)
    cause = np.zeros(N, dtype=np.int8)
    t0 = np.full(N, np.nan)
    hit = np.zeros(N, dtype=bool)
    field_t0 = np.zeros((N, n)) if snapshot_t0 else None
    if zero is not None and not stop_on_zero:
        at0 = st == zero
        t0[at0] = 0.0
        hit[at0] = True
    while alive.any():
        idx = np.nonzero(alive)[0]
        s = st[idx]
        d = rng.standard_exponential(idx.size) / kernel.total_rate[s]
        field[idx, s] += d / kernel.m[s]
        t[idx] += d
        u = rng.random(idx.size)
        nxt = _draw_next(kernel, s, u)
        dead = nxt < 0
        di = idx[dead]
        zeta[di] = t[di]
        cause[di] = np.where(nxt[dead] == ABSORB, ABSORB_DEATH, EXP_DEATH)
        ai = di[nxt[dead] == ABSORB]
        t0[ai] = t[ai]  # left-limit hit of 0 coincides with the lifetime
        hit[ai] = True
        alive[di] = False
        ji = idx[~dead]
        tg = nxt[~dead]
        if zero is not None:
            entering = tg == zero
            ei = ji[entering]
            if stop_on_zero:
                t0[ei] = t[ei]
                zeta[ei] = t[ei]
                cause[ei] = ZERO_STOP
                hit[ei] = True
                alive[ei] = False
                ji = ji[~entering]
                tg = tg[~entering]
            else:
                fresh = ei[~hit[ei]]
                t0[fresh] = t[fresh]
                hit[fresh] = True
                if snapshot_t0:
                    field_t0[fresh] = field[fresh]
        st[ji] = tg
    out = {
        "field": field, "zeta": zeta, "cause": cause, "t0": t0, "hit": hit,
    }
    if zero is not None:
        out["l0_total"] = field[:, zero].copy()
    if snapshot_t0:
        # lanes starting at 0 or never hitting keep a zero snapshot
        field_t0[~hit] = 0.0
        out["field_t0"] = field_t0
    return out


def run_epochs_levelstop(kernel: Kernel, starts, rng, levels, clamp="strict"):
    """Field at the left inverse of the lane's zero local time.

    Lanes freeze the instant their zero local time reaches ``levels[lane]``
    (mid-hold at 0, split exactly).  Lanes dying first are clamped: with
    ``strict`` the field is frozen at the end of their last visit to 0
    (zero field if they never visited); with ``total`` the whole life counts.
    """
    starts = np.asarray(starts, dtype=np.int64)
    levels = np.broadcast_to(np.asarray(levels, dtype=float), starts.shape).copy()
    N = starts.shape[0]
    n = kernel.n
    zero = kernel.zero
    if zero is None:
        raise ValueError("level stop needs the zero state in the space")
    m0 = kernel.m[zero]
    st = starts.copy()
    alive = np.ones(N, dtype=bool)
    field = np.zeros((N, n))
    snap = np.zeros((N, n))       # field at end of last completed 0-visit
    t = np.zeros(N)
    l0 = np.zeros(N)
    reached = np.zeros(N, dtype=bool)
    clamped = np.zeros(N, dtype=bool)
    t0 = np.full(N, np.nan)
    hit = st == zero
    t0[hit] = 0.0
    tau = np.full(N, np.nan)
    while alive.any():
        idx = np.nonzero(alive)[0]
        s = st[idx]
        d = rng.standard_exponential(idx.size) / kernel.total_rate[s]
        at0 = s == zero
        gained = np.where(at0, d / m0, 0.0)
        crossing = at0 & (l0[idx] + gained >= levels[idx])
        ci = idx[crossing]
        if ci.size:
            part = (levels[ci] - l0[ci]) * m0
            field[ci, zero] += levels[ci] - l0[ci]
            t[ci] += part
            l0[ci] = levels[ci]
            tau[ci] = t[ci]
            reached[ci] = True
            alive[ci] = False
        keep = ~crossing
        ki = idx[keep]
        sk = s[keep]
        dk = d[keep]
        field[ki, sk] += dk / kernel.m[sk]
        t[ki] += dk
        l0[ki] += gained[keep]
        u = rng.random(idx.size)  # one uniform per lane incl. crossed (unused)
        nxt = _draw_next(kernel, sk, u[keep])
        dead = nxt < 0
        di = ki[dead]
        if di.size:
            died_at0 = sk[dead] == zero
            snap[di[died_at0]] = field[di[died_at0]]
            clamped[di] = True
            if clamp == "total":
                snap[di] = field[di]
            alive[di] = False
        ji = ki[~dead]
        tg = nxt[~dead]
        if ji.size:
            leaving = sk[~dead] == zero
            li = ji[leaving]
            snap[li] = field[li]
            entering = tg == zero
            ei = ji[entering]
            fresh = ei[np.isnan(t0[ei])]
            t0[fresh] = t[fresh]
            st[ji] = tg
    result = np.where(reached[:, None], field, snap)
    return {
        "field": result, "reached": reached, "clamped": clamped,
        "l0": l0, "tau": tau, "t0": t0, "zeta_or_stop": t,
    }


# trace runners --------------------------------------------------------------

def run_traces_stop_zero(kernel: Kernel, mu_idx, mu_cum, start, rng, r_max):
    """Rebirthed traces stopped at the first entry into 0.

    Lanes are abandoned (stop_epoch = 0) once ``r_max`` lives ended without
    hitting 0, since only stop epochs up to r_max are of interest.  Per-epoch
    fields are stored separately; the stopping epoch's slot holds its field
    at the hitting time.
    """
    starts = np.asarray(start, dtype=np.int64)
    N = starts.shape[0]
    n = kernel.n
    zero = kernel.zero
    st = starts.copy()
    ep = np.ones(N, dtype=np.int64)
    alive = np.ones(N, dtype=bool)
    fields = np.zeros((N, r_max, n))
    t = np.zeros(N)
    stop_epoch = np.zeros(N, dtype=np.int64)
    stop_time = np.full(N, np.nan)
    bounds = np.full((N, r_max), np.nan)
    min_idx = np.full((N, r_max), -1, dtype=np.int64)
    min_idx[:, 0] = st
    while alive.any():
        idx = np.nonzero(alive)[0]
        s = st[idx]
        e = ep[idx] - 1
        d = rng.standard_exponential(idx.size) / kernel.total_rate[s]
        fields[idx, e, s] += d / kernel.m[s]
        t[idx] += d
        u = rng.random(idx.size)
        nxt = _draw_next(kernel, s, u)
        dead = nxt == KILL
        di = idx[dead]
        if di.size:
            bounds[di, ep[di] - 1] = t[di]
            over = ep[di] >= r_max
            alive[di[over]] = False
            rb = di[~over]
            if rb.size:
                ep[rb] += 1
                st[rb] = _draw_mu(mu_idx, mu_cum, rng.random(rb.size))
                min_idx[rb, ep[rb] - 1] = st[rb]
        ji = idx[~dead]
        tg = nxt[~dead]
        if ji.size:
            entering = tg == zero
            ei = ji[entering]
            if ei.size:
                stop_epoch[ei] = ep[ei]
                stop_time[ei] = t[ei]
                alive[ei] = False
                ji = ji[~entering]
                tg = tg[~entering]
            st[ji] = tg
            np.minimum.at(min_idx, (ji, ep[ji] - 1), tg)
    return {
        "fields": fields, "stop_epoch": stop_epoch, "stop_time": stop_time,
        "bounds": bounds, "min_index": min_idx,
    }


def run_traces_stop_absorb(kernel: Kernel, mu_idx, mu_cum, start, rng, r_max):
    """Rebirthed traces on an absorbing chain, stopped at the first
    absorption death; the stopping epoch's field is its complete field."""
    starts = np.asarray(start, dtype=np.int64)
    N = starts.shape[0]
    n = kernel.n
    st = starts.copy()
    ep = np.ones(N, dtype=np.int64)
    alive = np.ones(N, dtype=bool)
    fields = np.zeros((N, r_max, n))
    t = np.zeros(N)
    stop_epoch = np.zeros(N, dtype=np.int64)
    stop_time = np.full(N, np.nan)
    bounds = np.full((N, r_max), np.nan)
    while alive.any():
        idx = np.nonzero(alive)[0]
        s = st[idx]
        e = ep[idx] - 1
        d = rng.standard_exponential(idx.size) / kernel.total_rate[s]
        fields[idx, e, s] += d / kernel.m[s]
        t[idx] += d
        u = rng.random(idx.size)
        nxt = _draw_next(kernel, s, u)
        dead = nxt < 0
        di = idx[dead]
        if di.size:
            absorbed = nxt[dead] == ABSORB
            bounds[di, ep[di] - 1] = t[di]
            ai = di[absorbed]
            stop_epoch[ai] = ep[ai]
            stop_time[ai] = t[ai]
            alive[ai] = False
            ki = di[~absorbed]
            over = ep[ki] >= r_max
            alive[ki[over]] = False
            rb = ki[~over]
            if rb.size:
                ep[rb] += 1
                st[rb] = _draw_mu(mu_idx, mu_cum, rng.random(rb.size))
        ji = idx[~dead]
        st[ji] = nxt[~dead]
    return {
        "fields": fields, "stop_epoch": stop_epoch, "stop_time": stop_time,
        "bounds": bounds,
    }


def run_traces_inverse_lt(kernel: Kernel, mu_idx, mu_cum, start, rng, levels,
                          r_max):
    """Rebirthed traces stopped when the zero local time first exceeds the
    lane's level (right-continuous inverse).

    Exact float ties between the level and an end-of-visit value are counted
    and the lane keeps running (the inverse then sits in a later visit).
    Returns per-epoch fields, zero-local-time boundaries, the first zero hit
    of each stopping epoch and the stop offset within it.
    """
    starts = np.asarray(start, dtype=np.int64)
    levels = np.broadcast_to(np.asarray(levels, dtype=float), starts.shape).copy()
    N = starts.shape[0]
    n = kernel.n
    zero = kernel.zero
    m0 = kernel.m[zero]
    st = starts.copy()
    ep = np.ones(N, dtype=np.int64)
    alive = np.ones(N, dtype=bool)
    fields = np.zeros((N, r_max, n))
    t = np.zeros(N)
    l0 = np.zeros(N)
    stop_epoch = np.zeros(N, dtype=np.int64)
    stop_time = np.full(N, np.nan)
    bounds = np.full((N, r_max), np.nan)
    l0_bounds = np.full((N, r_max), np.nan)
    ep_start = np.zeros(N)            # trace time at current epoch start
    ep_t0 = np.full((N, r_max), np.nan)  # first zero hit within each epoch
    at0_from_start = st == zero
    ep_t0[at0_from_start, 0] = 0.0
    ties = 0
    while alive.any():
        idx = np.nonzero(alive)[0]
        s = st[idx]
        e = ep[idx] - 1
        d = rng.standard_exponential(idx.size) / kernel.total_rate[s]
        at0 = s == zero
        gained = np.where(at0, d / m0, 0.0)
        l0_after = l0[idx] + gained
        crossing = at0 & (l0_after > levels[idx])
        ties += int(np.count_nonzero(at0 & (l0_after == levels[idx])))
        ci = idx[crossing]
        if ci.size:
            part = (levels[ci] - l0[ci]) * m0
            fields[ci, ep[ci] - 1, zero] += levels[ci] - l0[ci]
            t[ci] += part
            l0[ci] = levels[ci]
            stop_epoch[ci] = ep[ci]
            stop_time[ci] = t[ci]
            alive[ci] = False
        keep = ~crossing
        ki = idx[keep]
        sk = s[keep]
        dk = d[keep]
        ek = ep[ki] - 1
        fields[ki, ek, sk] += dk / kernel.m[sk]
        t[ki] += dk
        l0[ki] = l0_after[keep]
        u = rng.random(idx.size)
        nxt = _draw_next(kernel, sk, u[keep])
        dead = nxt == KILL
        di = ki[dead]
        if di.size:
            bounds[di, ep[di] - 1] = t[di]
            l0_bounds[di, ep[di] - 1] = l0[di]
            over = ep[di] >= r_max
            alive[di[over]] = False
            rb = di[~over]
            if rb.size:
                ep[rb] += 1
                st[rb] = _draw_mu(mu_idx, mu_cum, rng.random(rb.size))
                ep_start[rb] = t[rb]
                land0 = st[rb] == zero
                ep_t0[rb[land0], ep[rb[land0]] - 1] = 0.0
        ji = ki[~dead]
        tg = nxt[~dead]
        if ji.size:
            entering = tg == zero
            ei = ji[entering]
            fresh = ei[np.isnan(ep_t0[ei, ep[ei] - 1])]
            ep_t0[fresh, ep[fresh] - 1] = t[fresh] - ep_start[fresh]
            st[ji] = tg
    return {
        "fields": fields, "stop_epoch": stop_epoch, "stop_time": stop_time,
        "bounds": bounds, "l0_bounds": l0_bounds, "levels": levels,
        "ep_t0": ep_t0, "ep_start": ep_start, "ties": ties,
    }


def run_traces_final(kernel: Kernel, mu_idx, mu_cum, start, rng, stop_kind,
                     levels=None, budget=10**6):
    """Rebirthed traces run to their stop with only the total field kept.

    ``stop_kind``: "zero" stops at the first entry into 0, "absorb" at the
    first absorption death, "invlt" when the zero local time first exceeds
    the lane's level.  Used by the sweep diagnostics, where traces may span
    many lives; exceeding ``budget`` lives raises.
    """
    from .errors import EpochBudgetExceeded

    starts = np.asarray(start, dtype=np.int64)
    N = starts.shape[0]
    n = kernel.n
    zero = kernel.zero
    m0 = kernel.m[zero] if zero is not None else None
    if stop_kind == "invlt":
        levels = np.broadcast_to(np.asarray(levels, dtype=float),
                                 starts.shape).copy()
    st = starts.copy()
    alive = np.ones(N, dtype=bool)
    field = np.zeros((N, n))
    t = np.zeros(N)
    l0 = np.zeros(N)
    epochs = np.ones(N, dtype=np.int64)
    stop_time = np.full(N, np.nan)
    while alive.any():
        idx = np.nonzero(alive)[0]
        s = st[idx]
        d = rng.standard_exponential(idx.size) / kernel.total_rate[s]
        if stop_kind == "invlt":
            at0 = s == zero
            gained = np.where(at0, d / m0, 0.0)
            crossing = at0 & (l0[idx] + gained > levels[idx])
            ci = idx[crossing]
            if ci.size:
                t[ci] += (levels[ci] - l0[ci]) * m0
                field[ci, zero] = levels[ci]  # exact at the crossing
                l0[ci] = levels[ci]
                stop_time[ci] = t[ci]
                alive[ci] = False
            keep = ~crossing
            idx = idx[keep]
            s = s[keep]
            d = d[keep]
            l0[idx] += gained[keep]
            if idx.size == 0:
                continue
        field[idx, s] += d / kernel.m[s]
        t[idx] += d
        u = rng.random(idx.size)
        nxt = _draw_next(kernel, s, u)
        dead = nxt < 0
        di = idx[dead]
        if di.size:
            absorbed = nxt[dead] == ABSORB
            if stop_kind == "absorb":
                ai = di[absorbed]
                stop_time[ai] = t[ai]
                alive[ai] = False
                di = di[~absorbed]
            epochs[di] += 1
            if np.any(epochs[di] > budget):
                raise EpochBudgetExceeded(
                    f"trace exceeded {budget} lives before the stop fired"
                )
            if di.size:
                st[di] = _draw_mu(mu_idx, mu_cum, rng.random(di.size))
        ji = idx[~dead]
        tg = nxt[~dead]
        if ji.size:
            if stop_kind == "zero":
                entering = tg == zero
                ei = ji[entering]
                stop_time[ei] = t[ei]
                alive[ei] = False
                ji = ji[~entering]
                tg = tg[~entering]
            st[ji] = tg
    return {"field": field, "stop_time": stop_time, "epochs": epochs,
            "l0": l0}


def run_traces_discount(kernel: Kernel, mu_idx, mu_cum, start, rng, p,
                        horizon, target_cols):
    """Discounted local-time integrals of the rebirthed process.

    Per lane and target state y accumulates the exact integral of
    exp(-p s) dL^y_s over holds up to ``horizon``, plus the m-weighted total
    over all states (whose expectation is (1 - e^{-p T})/p).
    """
    starts = np.asarray(start, dtype=np.int64)
    N = starts.shape[0]
    zero_col = np.full(kernel.n, -1, dtype=np.int64)
    for col, state_idx in enumerate(target_cols):
        zero_col[state_idx] = col
    st = starts.copy()
    alive = np.ones(N, dtype=bool)
    t = np.zeros(N)
    V = np.zeros((N, len(target_cols)))
    rowsum = np.zeros(N)
    while alive.any():
        idx = np.nonzero(alive)[0]
        s = st[idx]
        d = rng.standard_exponential(idx.size) / kernel.total_rate[s]
        a = t[idx]
        dcap = np.minimum(d, horizon - a)
        w = np.exp(-p * a) * -np.expm1(-p * dcap) / p
        rowsum[idx] += w
        cols = zero_col[s]
        tracked = cols >= 0
        ti = idx[tracked]
        V[ti, cols[tracked]] += w[tracked] / kernel.m[s[tracked]]
        t[idx] += d
        u = rng.random(idx.size)
        nxt = _draw_next(kernel, s, u)
        dead = nxt == KILL
        di = idx[dead]
        if di.size:
            st[di] = _draw_mu(mu_idx, mu_cum, rng.random(di.size))
        ji = idx[~dead]
        st[ji] = nxt[~dead]
        done = t[idx] >= horizon
        alive[idx[done]] = False
    return {"V": V, "rowsum": rowsum}
