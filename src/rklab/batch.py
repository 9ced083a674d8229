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
  ``horizon`` plus its level (a lane without a level has level 0).

A death is any outcome that leaves the space: a kill or an absorption.
With ``r_max`` a lane whose r_max-th life dies is abandoned: it ends with
``stop_epoch`` 0.

Record kinds (``record``), each kept at the states ``cols`` in that order
(every state, ascending, when ``cols`` is None):

* ``total``    ``field`` (N, n): the local-time field over the whole run;
  at a level crossing the zero entry is assigned the level exactly;
* ``epochs``   ``fields`` (N, r_max, n), one field per life, and
  ``bounds`` (N, r_max), the time at which each life died; a crossing adds
  level - l0 to the zero entry of the stopping life;
* ``discount`` ``V`` (N, len(cols)), the discounted local times (``cols``
  is required), and ``rowsum``, the same over every state, m-weighted.
  Up to the switch time H0 = ``horizon`` a hold is weighted by its exact
  integral of exp(-p s); past H0 each hold of length d counts
  e^{-p H0} (1 - e^{-p d}) / p.  A hold [a, a + d] that straddles H0 is
  split there.  Without levels the ``horizon`` stop ends the lane in the
  hold that reaches H0, so ``rowsum`` is exactly (1 - e^{-p t})/p.

With ``cols`` the ``total`` and ``epochs`` records are returned as
``field_cols`` (N, len(cols)) and ``fields_cols`` (N, r_max, len(cols)), so
that a reader of ``field``/``fields`` never meets a record narrower than the
chain.  The untracked states of every record add to a spare last column that
is dropped at return (a record of every state has none), so the exact level
at 0 and the strict clamp's copy of the field need no case for an untracked
0.  A tracked column receives the
same additions in the same order as in the record of every state, so it
equals that record's column bit for bit.

Why the clocked ``discount`` record is unbiased.  With the ``horizon``
stop and independent Exp(p) levels T, the lane runs every hold that starts
before H0 + T.  A hold that starts at a >= H0 is therefore counted with
probability P(T > a - H0) = e^{-p (a - H0)}, so its expected weight
e^{-p a} (1 - e^{-p d}) / p is its exact discount integral; the holds that
start before H0 are always counted, with their exact integral.  Hence
E[V | path] = int_0^inf exp(-p s) dL_s, whose mean is the p-potential
u_p(x, y) = E_x[L^y at an independent Exp(p) time] (Marcus & Rosen 2006),
with no truncation, and E[rowsum] = 1/p for a lane that never ends.

Every run returns ``t`` (the elapsed time when the lane ended), ``stopped``
and ``state`` (the state it ended in); runs with a rebirth table and
``r_max`` also return ``epochs`` (lives used) and ``stop_epoch``; level
stops return ``l0``, right stops ``ties``, ``track_min`` runs
``min_index``.

Each round, for the lanes alive at its start:

1. draw one standard exponential hold per lane;
2. stop the lanes whose zero local time crosses their level in the hold;
3. accumulate the (rest of the) hold into the record;
4. draw one uniform per lane, crossed lanes included, and pick the outcome;
5. handle deaths: stop, abandon, or rebirth with one uniform per reborn
   lane (``rng.random(#reborn)``);
6. handle jumps: an entry into 0 stops the lane under the ``zero`` stop;
7. stop the lanes that reached the horizon plus their level.

Only steps 1, 4 and 5 draw.  Reports at a fixed seed depend on this order.

The work of a round is over the ascending index of the live lanes, carried
from round to round (``idx = idx[alive[idx]]``), never over all N.  An
outcome is picked from flat tables (:class:`Kernel`): one comparison per
threshold column, then one gather from the flattened targets.  Each record
is scattered into through one flat index (lane, life, column), with the
column of a state from one ``col_of`` table.  Every output is
bit-identical to the plain 2-D reading of this draw order;
``tests/test_batch.py`` pins the digests of the outputs, so an engine
change that moves a draw or a rounding fails there.

This is the only path engine.  Its oracles are exact laws: the mean field
of a life is a row of its Green kernel G (``u0``, or the killed-at-0 kernel
for a life stopped at 0), and Kac's moment formula
E_y[exp(-<lambda, L>)] = ((I + G Lambda)^-1 1)_y gives the law of the whole
field.  The tests check both, and the occupation identity and the exact
level at 0 under every stop.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chains import RebirthMeasure, SymmetricChain
from .errors import InvariantError

BLOCK_SIZE = 8192

KILL = -1
ABSORB = -2


@dataclass(frozen=True)
class Kernel:
    """Sampling tables: total event rates and the outcome tables.

    Row s of ``out_cum``/``out_next`` lists the outcomes of a jump from s:
    cumulative probabilities (the last real entry is 1.0, pads 2.0) and
    targets (a state index, KILL or ABSORB).  The engine reads the flat
    forms: ``cum_cols``, the first K - 1 threshold columns as contiguous
    arrays (the last column is >= 1.0, which no uniform in [0, 1) reaches),
    and ``next_flat``, the targets with outcome k of row s at s * K + k.
    """

    chain: SymmetricChain
    total_rate: np.ndarray
    out_cum: np.ndarray    # (n, K) cumulative outcome probabilities, pad 2.0
    out_next: np.ndarray   # (n, K) jump target, KILL or ABSORB
    cum_cols: tuple        # K - 1 contiguous (n,) threshold columns
    next_flat: np.ndarray  # (n * K,) out_next in row-major order

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
    cols = tuple(np.ascontiguousarray(cum[:, k]) for k in range(K - 1))
    return Kernel(chain=chain, total_rate=total, out_cum=cum, out_next=nxt,
                  cum_cols=cols, next_flat=nxt.ravel())


def mu_tables(chain: SymmetricChain, mu: RebirthMeasure):
    """(state indices, cumulative weights) for inverse-cdf rebirth draws."""
    if mu is None:
        raise InvariantError("this harness needs a rebirth measure (mu)")
    labels = [x for x, w in mu.weights.items() if w > 0]
    idx = np.array([chain.state_index(x) for x in labels], dtype=np.int64)
    cum = np.cumsum([mu.weights[x] for x in labels])
    cum[-1] = 1.0
    return idx, cum


def _outcome(kernel: Kernel, states, u):
    """Outcome per lane from one uniform: jump target, KILL or ABSORB.

    The outcome index is the number of thresholds of the lane's row at or
    below u, added column by column onto the row's offset in ``next_flat``.
    """
    pos = states * kernel.out_cum.shape[1]
    for col in kernel.cum_cols:
        pos += u >= col[states]
    return kernel.next_flat[pos]


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
    the level stops, or the clocks added to ``horizon`` by the ``horizon``
    stop; ``clamp`` picks what a single life that dies before its left level
    keeps (``strict``: the field at the end of its last visit to 0;
    ``total``: the whole life).  ``horizon`` and ``p`` are the switch time
    and the discount rate of the ``discount`` record; ``cols`` are the
    distinct states a record keeps (every state by default);
    ``track_min`` adds the lowest state index each life visited to the
    ``epochs`` record of the ``zero`` stop.
    """
    if stop not in STOPS or record not in RECORDS:
        raise ValueError(f"unknown stop {stop!r} or record {record!r}")
    level_stop = stop in ("left", "right")
    if level_stop and levels is None:
        raise ValueError(f"stop {stop!r} needs levels")
    if (stop == "horizon" or record == "discount") and horizon is None:
        raise ValueError(f"stop {stop!r} with record {record!r} needs a "
                         "horizon")
    if record == "discount" and (p is None or cols is None or level_stop):
        raise ValueError("the discount record needs p and cols, and no "
                         "level stop")
    st = np.array(starts, dtype=np.int64)
    N = st.shape[0]
    n = kernel.n
    zero = kernel.zero
    m = kernel.m
    per_epoch = record == "epochs"
    counted = rebirth is not None and r_max is not None
    if (per_epoch or track_min) and not counted:
        raise ValueError("per-life records need a rebirth table and r_max")
    # a record of some states only is returned under its own key, so that
    # no reader of ``field``/``fields`` meets one narrower than the chain
    suffix = "" if cols is None else "_cols"
    cols = np.arange(n) if cols is None else np.asarray(cols, dtype=np.int64)
    if cols.ndim != 1 or np.any(np.diff(np.sort(cols)) == 0) \
            or (cols.size and (cols.min() < 0 or cols.max() >= n)):
        raise ValueError(f"cols must be distinct states in [0, {n}), got "
                         f"{cols.tolist()}")
    alive = np.ones(N, dtype=bool)
    stopped = np.zeros(N, dtype=bool)
    t = np.zeros(N)
    # the record has one column per tracked state and, if some state is
    # untracked, a spare last column for them, dropped at return; it is
    # scattered into through a flat view, at (row, col_of[state]) with one
    # row per lane, or per (lane, life) under ``epochs``
    k = cols.size
    width = k + (k < n)
    col_of = np.full(n, width - 1, dtype=np.int64)
    col_of[cols] = np.arange(k)
    if counted:
        ep = np.ones(N, dtype=np.int64)
    if per_epoch:
        rec = np.zeros((N, r_max, width))
        bounds = np.full((N, r_max), np.nan)
        bounds_flat = bounds.reshape(-1)
    else:
        rec = np.zeros((N, width))
    rec_flat = rec.reshape(-1)
    if record == "discount":
        rowsum = np.zeros(N)
        tail = np.exp(-p * horizon)
    if stop == "horizon":
        ends = np.full(N, float(horizon))
        if levels is not None:
            ends += levels
    snap = low = None
    if level_stop:
        if zero is None:
            raise ValueError("level stop needs the zero state in the space")
        m0 = m[zero]
        levels = np.broadcast_to(np.asarray(levels, dtype=float), (N,)).copy()
        l0 = np.zeros(N)
        ties = 0
        if record == "total" and rebirth is None and clamp == "strict":
            # the record at the end of the last visit to 0
            snap = np.zeros((N, width))
    if track_min:
        low = np.full((N, r_max), -1, dtype=np.int64)
        low[:, 0] = st
        low_flat = low.reshape(-1)

    idx = np.arange(N)  # the live lanes, ascending
    while idx.size:
        n_round = idx.size
        s = st[idx]
        d = rng.standard_exponential(n_round) / kernel.total_rate[s]
        keep = None
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
                row = ci * r_max + ep[ci] - 1 if per_epoch else ci
                at = row * width + col_of[zero]
                if per_epoch:
                    rec_flat[at] += levels[ci] - l0[ci]
                else:
                    rec_flat[at] = levels[ci]  # exact
                l0[ci] = levels[ci]
                stopped[ci] = True
                alive[ci] = False
                keep = ~crossing
                idx, s, d, after = idx[keep], s[keep], d[keep], after[keep]
            l0[idx] = after
        # np.add.at is the unbuffered scatter-add; the lanes of a round are
        # distinct, so it adds exactly what a fancy-indexed += would
        if record == "discount":
            a = t[idx]
            b = np.minimum(d, np.maximum(horizon - a, 0.0))  # part before H0
            w = (np.exp(-p * a) * -np.expm1(-p * b)
                 + tail * -np.expm1(-p * (d - b))) / p
            np.add.at(rowsum, idx, w)
        else:
            w = d
        row = idx * r_max + ep[idx] - 1 if per_epoch else idx
        np.add.at(rec_flat, row * width + col_of[s], w / m[s])
        np.add.at(t, idx, d)
        u = rng.random(n_round)  # one per lane alive at the start of the round
        nxt = _outcome(kernel, s, u if keep is None else u[keep])

        dead = nxt < 0
        di = idx[dead]
        ji, tg = idx, nxt
        if di.size:
            if per_epoch:
                bounds_flat[di * r_max + ep[di] - 1] = t[di]
            if snap is not None:
                at0_dead = di[s[dead] == zero]
                snap[at0_dead] = rec[at0_dead]
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
                    if track_min:
                        low_flat[di * r_max + ep[di] - 1] = st[di]
            jumped = ~dead
            ji, tg = idx[jumped], nxt[jumped]

        if snap is not None:
            leaving = idx[(s == zero) & (nxt >= 0)]
            snap[leaving] = rec[leaving]
        if stop == "zero" and zero is not None:
            entering = tg == zero
            ei = ji[entering]
            if ei.size:
                stopped[ei] = True
                alive[ei] = False
                ji, tg = ji[~entering], tg[~entering]
        st[ji] = tg
        if track_min:
            # one (lane, life) pair per jump in a round: gather, min, scatter
            at = ji * r_max + ep[ji] - 1
            low_flat[at] = np.minimum(low_flat[at], tg)

        if stop == "horizon":
            done = idx[t[idx] >= ends[idx]]
            done = done[alive[done]]
            stopped[done] = True
            alive[done] = False
        idx = idx[alive[idx]]

    out = {"t": t, "stopped": stopped, "state": st}
    if per_epoch:
        out["fields" + suffix] = rec[:, :, :k]
        out["bounds"] = bounds
    elif record == "total":
        out["field" + suffix] = (
            rec if snap is None else np.where(stopped[:, None], rec, snap)
        )[:, :k]
    else:
        out["V"] = rec[:, :k]
        out["rowsum"] = rowsum
    if counted:
        out["epochs"] = ep
        out["stop_epoch"] = np.where(stopped, ep, 0)
    if level_stop:
        out["l0"] = l0
        if stop == "right":
            out["ties"] = ties
    if track_min:
        out["min_index"] = low
    return out
