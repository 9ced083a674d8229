"""Vectorised lockstep simulation used by the statistical harnesses.

Every Markov-side ensemble is one call of :func:`simulate`: each lane runs
the chain from its start and, when a ``rebirth`` table is given, is reborn
at a mu-distributed state each time it dies.  All lanes of a block advance
one jump event per round; every random draw is an array draw from the
block's own generator, so results depend only on (seed, tag, block index)
and never on the worker count.  Blocks have a fixed size and are merged in
index order, which makes reports byte-identical across reruns and worker
counts.

Stop policies (``stop``); a lane that stops has ``stopped`` set:

* ``death``   the lane runs until it dies (without rebirth; with rebirth
  only ``r_max`` ends it);
* ``zero``    the lane stops the instant it jumps into 0, with no
  occupation there;
* ``absorb``  the lane stops at its first absorption death (a jump into 0
  from outside the space); other deaths rebirth or end the lane;
* ``left``    the lane stops when its zero local time reaches its level
  (left inverse, ``>=``), splitting the hold at 0 exactly;
* ``right``   the same with ``>`` (right inverse); exact ties between a
  level and an end-of-visit value are counted in ``ties``;
* ``horizon`` the lane stops at the end of the first hold that reaches
  ``horizon``.

A death is any outcome that leaves the space: a kill or an absorption.
With ``r_max`` a lane whose r_max-th life dies is abandoned: it ends with
``stop_epoch`` 0.

Record kinds (``record``):

* ``total``    ``field`` (N, n): the local-time field over the whole run;
  at a level crossing the zero entry is assigned the level exactly;
* ``epochs``   ``fields`` (N, r_max, n), one field per life, and
  ``bounds`` (N, r_max), the time at which each life died; a crossing adds
  level - l0 to the zero entry of the stopping life;
* ``discount`` ``V`` (N, len(cols)), the integrals of exp(-p s) dL^y_s up
  to ``horizon`` at the states ``cols``, and ``rowsum``, the m-weighted
  integral over every state (expectation (1 - e^{-p T})/p).

Every run returns ``t`` (the elapsed time when the lane ended), ``stopped``
and ``state`` (the state it ended in); runs with a rebirth table and
``r_max`` also return ``epochs`` (lives used) and ``stop_epoch``; level
stops return ``l0``, per-epoch level stops ``ep_t0`` (first hit of 0 in
each life, from the life's start).

Each round, for the lanes alive at its start:

1. draw one standard exponential hold per lane;
2. stop the lanes whose zero local time crosses their level in the hold;
3. accumulate the (rest of the) hold into the record;
4. draw one uniform per lane, crossed lanes included, and pick the outcome;
5. handle deaths: stop, abandon, or rebirth with one uniform per reborn
   lane (``rng.random(#reborn)``);
6. handle jumps: an entry into 0 stops the lane or records its first hit;
7. stop the lanes that reached the horizon.

Only steps 1, 4 and 5 draw.  Reports at a fixed seed depend on this order.

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


# lockstep engine -------------------------------------------------------------

STOPS = ("death", "zero", "absorb", "left", "right", "horizon")
RECORDS = ("total", "epochs", "discount")


def simulate(kernel: Kernel, starts, rng, stop="death", record="total", *,
             rebirth=None, r_max=None, levels=None, clamp="strict",
             horizon=None, p=None, cols=None, track_min=False):
    """Run one lane per entry of ``starts`` until its stop; see the module
    docstring for the policies, the outputs and the draw order.

    ``rebirth`` is the (state indices, cumulative weights) pair of
    :func:`mu_tables`; without it a death ends the lane.  ``r_max`` abandons
    a lane whose r_max-th life dies.  ``levels`` are the zero local times of
    the level stops; ``clamp`` picks what a single life that dies before its
    left level keeps (``strict``: the field at the end of its last visit to
    0; ``total``: the whole life).  ``horizon``, ``p`` and ``cols`` are the
    horizon, the discount rate and the tracked states of the ``discount``
    record; ``track_min`` adds the lowest state index each life visited to
    the ``epochs`` record of the ``zero`` stop.
    """
    if stop not in STOPS or record not in RECORDS:
        raise ValueError(f"unknown stop {stop!r} or record {record!r}")
    st = np.array(starts, dtype=np.int64)
    N = st.shape[0]
    n = kernel.n
    zero = kernel.zero
    m = kernel.m
    per_epoch = record == "epochs"
    counted = rebirth is not None and r_max is not None
    if (per_epoch or track_min) and not counted:
        raise ValueError("per-life records need a rebirth table and r_max")
    level_stop = stop in ("left", "right")
    alive = np.ones(N, dtype=bool)
    stopped = np.zeros(N, dtype=bool)
    t = np.zeros(N)
    if counted:
        ep = np.ones(N, dtype=np.int64)
    if per_epoch:
        fields = np.zeros((N, r_max, n))
        bounds = np.full((N, r_max), np.nan)
    elif record == "total":
        field = np.zeros((N, n))
    else:
        col_of = np.full(n, -1, dtype=np.int64)
        col_of[np.asarray(cols)] = np.arange(len(cols))
        V = np.zeros((N, len(cols)))
        rowsum = np.zeros(N)
    snap = ep_t0 = low = None
    if level_stop:
        if zero is None:
            raise ValueError("level stop needs the zero state in the space")
        m0 = m[zero]
        levels = np.broadcast_to(np.asarray(levels, dtype=float), (N,)).copy()
        l0 = np.zeros(N)
        ties = 0
        if record == "total" and rebirth is None and clamp == "strict":
            snap = np.zeros((N, n))  # field at the end of the last 0-visit
        if per_epoch:
            ep_t0 = np.full((N, r_max), np.nan)  # first 0-hit in each life
            ep_t0[st == zero, 0] = 0.0
            ep_start = np.zeros(N)
    if track_min:
        low = np.full((N, r_max), -1, dtype=np.int64)
        low[:, 0] = st

    while alive.any():
        idx = np.nonzero(alive)[0]
        n_round = idx.size
        s = st[idx]
        d = rng.standard_exponential(n_round) / kernel.total_rate[s]
        if level_stop:
            at0 = s == zero
            after = l0[idx] + np.where(at0, d / m0, 0.0)
            if stop == "left":
                crossing = at0 & (after >= levels[idx])
            else:
                crossing = at0 & (after > levels[idx])
                ties += int(np.count_nonzero(at0 & (after == levels[idx])))
            ci = idx[crossing]
            if ci.size:
                t[ci] += (levels[ci] - l0[ci]) * m0
                if per_epoch:
                    fields[ci, ep[ci] - 1, zero] += levels[ci] - l0[ci]
                else:
                    field[ci, zero] = levels[ci]  # exact at the crossing
                l0[ci] = levels[ci]
                stopped[ci] = True
                alive[ci] = False
            keep = ~crossing
            idx, s, d = idx[keep], s[keep], d[keep]
            l0[idx] = after[keep]
        if record == "discount":
            a = t[idx]
            w = np.exp(-p * a) * -np.expm1(-p * np.minimum(d, horizon - a)) / p
            rowsum[idx] += w
            c = col_of[s]
            tracked = c >= 0
            V[idx[tracked], c[tracked]] += w[tracked] / m[s[tracked]]
        elif per_epoch:
            fields[idx, ep[idx] - 1, s] += d / m[s]
        else:
            field[idx, s] += d / m[s]
        t[idx] += d
        u = rng.random(n_round)  # one per lane alive at the start of the round
        nxt = _draw_next(kernel, s, u[keep] if level_stop else u)

        dead = nxt < 0
        di = idx[dead]
        if di.size:
            if per_epoch:
                bounds[di, ep[di] - 1] = t[di]
            if snap is not None:
                at0_dead = di[s[dead] == zero]
                snap[at0_dead] = field[at0_dead]
            if stop == "absorb":
                absorbed = nxt[dead] == ABSORB
                stopped[di[absorbed]] = True
                alive[di[absorbed]] = False
                di = di[~absorbed]
            if rebirth is None:
                alive[di] = False
            else:
                if counted:
                    over = ep[di] >= r_max
                    alive[di[over]] = False  # abandoned: stop_epoch 0
                    di = di[~over]
                if di.size:
                    st[di] = _draw_mu(rebirth[0], rebirth[1],
                                      rng.random(di.size))
                    if counted:
                        ep[di] += 1
                    if ep_t0 is not None:
                        ep_start[di] = t[di]
                        land = di[st[di] == zero]
                        ep_t0[land, ep[land] - 1] = 0.0
                    if track_min:
                        low[di, ep[di] - 1] = st[di]

        ji = idx[~dead]
        tg = nxt[~dead]
        if snap is not None:
            leaving = ji[s[~dead] == zero]
            snap[leaving] = field[leaving]
        if stop == "zero" and zero is not None:
            entering = tg == zero
            ei = ji[entering]
            stopped[ei] = True
            alive[ei] = False
            ji, tg = ji[~entering], tg[~entering]
        elif ep_t0 is not None:
            ei = ji[tg == zero]
            fresh = ei[np.isnan(ep_t0[ei, ep[ei] - 1])]
            ep_t0[fresh, ep[fresh] - 1] = t[fresh] - ep_start[fresh]
        st[ji] = tg
        if track_min:
            np.minimum.at(low, (ji, ep[ji] - 1), tg)

        if stop == "horizon":
            done = idx[t[idx] >= horizon]
            done = done[alive[done]]
            stopped[done] = True
            alive[done] = False

    out = {"t": t, "stopped": stopped, "state": st}
    if per_epoch:
        out["fields"] = fields
        out["bounds"] = bounds
    elif record == "total":
        out["field"] = field if snap is None \
            else np.where(stopped[:, None], field, snap)
    else:
        out["V"] = V
        out["rowsum"] = rowsum
    if counted:
        out["epochs"] = ep
        out["stop_epoch"] = np.where(stopped, ep, 0)
    if level_stop:
        out["l0"] = l0
        if stop == "right":
            out["ties"] = ties
    if ep_t0 is not None:
        out["ep_t0"] = ep_t0
    if track_min:
        out["min_index"] = low
    return out
