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

* ``death``   the lane runs until it dies (the kernel must have a death
  outcome; with rebirth, ``r_max`` is required: only it ends the lane);
* ``zero``    the lane stops the instant it jumps into 0 (which must be in
  the space), with no occupation there;
* ``absorb``  the lane stops at its first absorption death (a jump into 0
  from outside the space); other deaths rebirth or end the lane (with
  rebirth on a chain that never absorbs, ``r_max`` is required);
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

Every run returns ``t`` (the elapsed time when the lane ended), ``stopped``,
``state`` (the state it ended in), ``rounds`` and ``lane_rounds`` (one hold
per live lane per round); runs with a rebirth table and ``r_max`` also
return ``epochs`` (lives used) and ``stop_epoch``; level stops return
``l0``, right stops ``ties``, ``track_min`` runs ``min_index``.

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

The work of a round is over the live lanes only, never over all N.  Their
state, elapsed time, record offset and, where used, life, lowest state,
level, zero local time, end time and discounted total are packed in
contiguous arrays, in ascending lane order.  These are compacted only in a
round in which a lane leaves, and a lane's values are written back to the
full-size outputs only when it stops, is abandoned or dies without rebirth.
An outcome is picked from flat tables (:class:`Kernel`): one comparison per
threshold column gives its flat index, at which one gather reads the
target and one a per-call event table.  Only the lanes whose outcome is a
death or the stop need more work; every other lane takes the target as its
state.  Each record is scattered into at the lane's record offset plus the
column of its state (one ``col_of`` table).  Every output is
bit-identical to the plain 2-D reading of this draw order;
``tests/test_batch.py`` pins the digests of the outputs, so an engine
change that moves a draw or a rounding fails there.

A Doob-transformed kernel (:func:`doob_kernel`) is an ordinary
:class:`Kernel` on the same chain with the same total rates and other
outcome tables, so the engine runs lives conditioned to enter 0, or to die
first, with no rejection and no case of its own.

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

    Row s of ``out_p``/``out_cum``/``out_next`` lists the outcomes of a jump
    from s: probabilities (pads 0.0), cumulative probabilities (the last
    real entry is 1.0, pads 2.0) and targets (a state index, KILL or
    ABSORB).  The engine reads the flat forms: ``cum_cols``, the first
    K - 1 threshold columns as contiguous arrays (the last column is >= 1.0,
    which no uniform in [0, 1) reaches), and ``next_flat``, the targets with
    outcome k of row s at s * K + k.
    """

    chain: SymmetricChain
    total_rate: np.ndarray
    out_p: np.ndarray      # (n, K) outcome probabilities, pad 0.0
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
    Q = chain.generator
    total = -np.diag(Q) + chain.kill_rate
    rows = []
    for i in range(chain.n_states):
        entries = [(Q[i, j], int(j)) for j in np.nonzero(Q[i] > 0)[0]]
        if chain.absorb_rate[i] > 0:
            entries.append((chain.absorb_rate[i], ABSORB))
        entries.append((chain.kill_rate, KILL))
        rows.append([(r / total[i], j) for r, j in entries])
    return _tables(chain, total, rows)


def doob_kernel(kernel: Kernel, w, w_dead: float) -> Kernel:
    """The kernel of ``kernel``'s lives Doob-transformed by the weight ``w``.

    Outcome k of a row x with w(x) > 0 gets probability p_k w(t_k) / w(x),
    where t_k is its target and a death weighs ``w_dead``; the outcome order
    is kept and outcomes of probability 0 are dropped.  ``total_rate`` is
    unchanged, so the holds keep their law.  With h the hitting profile,
    w = h (h(0) = 1, ``w_dead`` 0) gives the life conditioned to enter 0
    before it dies, and w = 1 - h (``w_dead`` 1) the life conditioned to die
    first.  A row with w(x) > 0 that does not sum to 1 within 1e-12 means w
    is not harmonic there: :class:`InvariantError`.

    Such lives end on entering 0 (the ``zero`` stop), so at 0 itself w
    weighs only entries and need not be harmonic: where it is not, the row
    of 0 is divided by its weighted sum instead, the chance of the
    conditioning event from 0.  Rows where w is 0 (no transformed life
    reaches them) are kept as they are.
    """
    w = np.asarray(w, dtype=float)
    rows = []
    for i in range(kernel.n):
        entries = [(p, int(j)) for p, j in
                   zip(kernel.out_p[i], kernel.out_next[i]) if p > 0]
        weighted = [(p * (w_dead if j < 0 else w[j]), j) for p, j in entries]
        weighted = [(p, j) for p, j in weighted if p > 0]
        norm = w[i]
        if i == kernel.zero:
            total = sum(p for p, _ in weighted)
            if abs(total - norm) > 1e-12:
                norm = total
        if norm > 0:
            entries = [(p / norm, j) for p, j in weighted]
            total = sum(p for p, _ in entries)
            if abs(total - 1.0) > 1e-12:
                raise InvariantError(
                    f"weight is not harmonic at state "
                    f"{kernel.chain.states[i]!r}: its transformed row sums "
                    f"to {total!r}")
        rows.append(entries)
    return _tables(kernel.chain, kernel.total_rate, rows)


def _tables(chain, total, rows):
    """The :class:`Kernel` whose row s lists the (probability, target)
    outcomes ``rows[s]``."""
    n = chain.n_states
    K = max(len(e) for e in rows)
    prob = np.zeros((n, K))
    cum = np.full((n, K), 2.0)
    nxt = np.full((n, K), KILL, dtype=np.int64)
    for i, entries in enumerate(rows):
        acc = 0.0
        for k, (p, j) in enumerate(entries):
            acc += p
            prob[i, k] = p
            cum[i, k] = acc
            nxt[i, k] = j
        cum[i, len(entries) - 1] = 1.0  # guard against cumsum roundoff
    cols = tuple(np.ascontiguousarray(cum[:, k]) for k in range(K - 1))
    return Kernel(chain=chain, total_rate=total, out_p=prob, out_cum=cum,
                  out_next=nxt, cum_cols=cols, next_flat=nxt.ravel())


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
    """Flat index in ``next_flat`` of each lane's outcome, from one uniform.

    The outcome index is the number of thresholds of the lane's row at or
    below u, added column by column onto the row's offset in ``next_flat``.
    """
    pos = states * kernel.out_cum.shape[1]
    for col in kernel.cum_cols:
        pos += u >= col[states]
    return pos


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
    if (level_stop or stop == "zero") and kernel.zero is None:
        raise ValueError(f"stop {stop!r} needs the zero state in the space")
    if stop == "death" and not np.any((kernel.out_p > 0)
                                      & (kernel.out_next < 0)):
        raise ValueError("stop 'death' needs a kernel with a death outcome")
    # reborn lives end these runs only at r_max: every death rebirths, and
    # on a chain without absorption rates every death is a kill
    endless = stop == "death" or (stop == "absorb"
                                  and not np.any(kernel.chain.absorb_rate))
    if endless and rebirth is not None and r_max is None:
        raise ValueError(f"stop {stop!r} with rebirth needs r_max")
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
    stopped = np.zeros(N, dtype=bool)
    t = np.zeros(N)
    # the record has one column per tracked state and, if some state is
    # untracked, a spare last column for them, dropped at return; it is
    # scattered into through a flat view, at a lane's record offset ``at``
    # (lane * stride, plus width per earlier life) plus col_of[state]
    k = cols.size
    width = k + (k < n)
    col_of = np.full(n, width - 1, dtype=np.int64)
    col_of[cols] = np.arange(k)
    # the live lanes' state, packed in ascending lane order; each entry of
    # ``full`` is the output its lane's value is written back to
    stride = width * r_max if per_epoch else width
    live = {"s": st.copy(), "t": np.zeros(N), "at": np.arange(N) * stride}
    full = {"s": st, "t": t}
    if counted:
        ep = np.ones(N, dtype=np.int64)
        live["ep"], full["ep"] = ep.copy(), ep
    if per_epoch:
        rec = np.zeros((N, r_max, width))
        bounds = np.full((N, r_max), np.nan)
        bounds_flat = bounds.reshape(-1)
    else:
        rec = np.zeros((N, width))
    rec_flat = rec.reshape(-1)
    if record == "discount":
        rowsum = np.zeros(N)
        live["rs"], full["rs"] = rowsum.copy(), rowsum
        tail = np.exp(-p * horizon)
    if stop == "horizon":
        live["end"] = np.full(N, float(horizon)) + (0.0 if levels is None
                                                    else levels)
    snap = None
    if level_stop:
        m0 = m[zero]
        live["lv"] = np.broadcast_to(levels, (N,)).astype(float)
        l0 = np.zeros(N)
        live["l0"], full["l0"] = l0.copy(), l0
        ties = 0
        if record == "total" and rebirth is None and clamp == "strict":
            # the record at the end of the last visit to 0
            snap = np.zeros((N, width))
    if track_min:
        low = np.full((N, r_max), -1, dtype=np.int64)
        low_flat = low.reshape(-1)
        live["low"] = st.copy()
    # the outcomes that need more than a jump: deaths, and the target that
    # stops the lane (a jump into 0, or an absorption; no target is n)
    halt_at = {"zero": zero, "absorb": ABSORB}.get(stop, n)
    event = (kernel.next_flat < 0) | (kernel.next_flat == halt_at)

    def save_low(i):  # the lowest state of the current life of lanes i
        low_flat[live["at"][i] // stride * r_max + live["ep"][i] - 1] = \
            live["low"][i]

    def leave(gone):
        """Write back and drop the live lanes at ``gone``; return the rest."""
        ids = live["at"][gone] // stride
        for key, value in full.items():
            value[ids] = live[key][gone]
        if track_min:
            save_low(gone)
        keep = np.ones(live["s"].size, dtype=bool)
        keep[gone] = False
        for key, value in live.items():
            live[key] = value[keep]
        return keep

    rounds = lane_rounds = 0
    while live["s"].size:
        s, tt, at = live["s"], live["t"], live["at"]
        n_round = s.size
        rounds += 1
        lane_rounds += n_round
        d = rng.standard_exponential(n_round) / kernel.total_rate[s]
        keep = None
        if level_stop:
            lv, held = live["lv"], live["l0"]
            at0 = s == zero
            after = held + np.where(at0, d / m0, 0.0)
            if stop == "left":
                crossing = at0 & (after >= lv)
            else:
                crossing = at0 & (after > lv)
                ties += int(np.count_nonzero(at0 & (after == lv)))
            c = crossing.nonzero()[0]
            if c.size:
                tt[c] += (lv[c] - held[c]) * m0
                if per_epoch:
                    rec_flat[at[c] + col_of[zero]] += lv[c] - held[c]
                else:
                    rec_flat[at[c] + col_of[zero]] = lv[c]  # exact
                held[c] = lv[c]
                stopped[at[c] // stride] = True
                keep = leave(c)
                s, tt, at = live["s"], live["t"], live["at"]
                d, after, at0 = d[keep], after[keep], at0[keep]
            live["l0"] = after
        # np.add.at is the unbuffered scatter-add; the lanes of a round are
        # distinct, so it adds exactly what a fancy-indexed += would
        if record == "discount":
            b = np.minimum(d, np.maximum(horizon - tt, 0.0))  # part before H0
            w = (np.exp(-p * tt) * -np.expm1(-p * b)
                 + tail * -np.expm1(-p * (d - b))) / p
            live["rs"] += w
        else:
            w = d
        np.add.at(rec_flat, at + col_of[s], w / m[s])
        tt += d
        u = rng.random(n_round)  # one per lane alive at the start of the round
        pos = _outcome(kernel, s, u if keep is None else u[keep])
        nxt = kernel.next_flat[pos]
        if snap is not None:  # a lane at 0 leaves it, by a jump or a death
            z = at[at0] // stride
            snap[z] = rec[z]

        e = event[pos].nonzero()[0]
        if e.size:
            tg = nxt[e]
            if per_epoch:
                dead = e[tg < 0]
                bounds_flat[at[dead] // width] = tt[dead]
            leaving = tg == halt_at
            stopped[at[e[leaving]] // stride] = True
            if rebirth is None:
                gone = e
            else:
                if counted:  # a lane whose r_max-th life died is abandoned
                    leaving |= live["ep"][e] >= r_max
                gone, di = e[leaving], e[~leaving]
                if di.size:
                    nxt[di] = _draw_mu(rebirth[0], rebirth[1],
                                       rng.random(di.size))
                    if track_min:
                        save_low(di)
                        live["low"][di] = nxt[di]
                    if counted:
                        live["ep"][di] += 1
                    if per_epoch:
                        at[di] += width
            if gone.size:
                nxt = nxt[leave(gone)]  # a lane that leaves keeps its state
        live["s"] = nxt
        if track_min:
            np.minimum(live["low"], nxt, out=live["low"])
        if stop == "horizon":
            done = (live["t"] >= live["end"]).nonzero()[0]
            if done.size:
                stopped[live["at"][done] // stride] = True
                leave(done)

    out = {"t": t, "stopped": stopped, "state": st, "rounds": rounds,
           "lane_rounds": lane_rounds}
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
