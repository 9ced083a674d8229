"""Finite symmetric Markov chains with killing and their exact kernels.

A chain is specified by jump rates in detailed balance with a positive
reference measure m and killed at a constant rate beta > 0.  Every kernel the
verification harnesses compare against is an exact dense table computed
here, either on every state or on a block of states (the few a harness
reads), whose ``states``/``index`` then label the block:

* ``U_P``        resolvent density  u_p(x,y) = [((p+beta)I - Q)^-1]_{xy} / m_y
* ``W_P``        density of the process rebirthed from a measure mu
* ``U_TILDE_0``  density of the chain additionally killed on first hitting 0

Densities are taken with respect to m (the resolvent is divided on the right
by the diagonal of m), so a nonuniform m changes the tables.

Two state-space conventions coexist.  When ``zero_accessible`` the
distinguished state 0 belongs to the state space.  Otherwise 0 is outside the
space and rates pointing at it are *absorption* rates: a jump into 0 kills
the path (used by the left-limit hitting analysis).
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DetailedBalanceViolation,
    InvariantError,
    NonPositiveMeasure,
    NonPositiveP,
    NotPSD,
    SingularResolvent,
    ZeroDiagonal,
    ZeroF,
    ZeroUnreachable,
)

# construction invariants hold to this relative tolerance on <= ~1000 states
CONSTRUCTION_RTOL = 1e-12
SOLVE_RTOL = 1e-10
COND_WARN = 1e12


class Kind(enum.Enum):
    U_P = "U_P"
    W_P = "W_P"
    U_TILDE_0 = "U_TILDE_0"


@dataclass(frozen=True)
class ChainSpec:
    """Declarative description of a killed symmetric chain.

    ``rates`` maps ordered pairs (x, y) to jump rates.  Pairs targeting
    ``zero_state`` while 0 is outside ``states`` are absorption rates.
    """

    states: tuple
    rates: dict
    measure: dict
    kill_rate: float
    zero_state: object = 0
    zero_accessible: bool = True

    def validate(self):
        if len(set(self.states)) != len(self.states):
            raise InvariantError("duplicate state labels")
        if self.kill_rate <= 0:
            raise InvariantError("kill_rate must be > 0 so lifetimes are finite")
        if self.zero_accessible and self.zero_state not in self.states:
            raise InvariantError("zero_accessible chain must contain the zero state")
        if not self.zero_accessible and self.zero_state in self.states:
            raise InvariantError("zero state listed but flagged inaccessible")
        for x in self.states:
            if self.measure.get(x, 0.0) <= 0:
                raise NonPositiveMeasure(f"measure at state {x!r} must be > 0")
        live = set(self.states)
        for (x, y), r in self.rates.items():
            if r < 0:
                raise InvariantError(f"negative rate for pair ({x!r}, {y!r})")
            if x not in live:
                raise InvariantError(f"rate from unknown state {x!r}")
            if y not in live and y != self.zero_state:
                raise InvariantError(f"rate into unknown state {y!r}")
            if y == self.zero_state and y not in live and self.zero_accessible:
                raise InvariantError("absorption rates need zero_accessible=False")


@dataclass(frozen=True)
class SymmetricChain:
    """Assembled chain: dense generator, measure vector, label index.

    ``generator`` rows sum to ``-absorb_rate`` (zero when 0 is in the state
    space); ``D_m Q`` is symmetric by detailed balance.  ``coords`` is an
    optional spatial embedding used by scale-based diagnostics.
    """

    states: tuple
    generator: np.ndarray
    measure: np.ndarray
    kill_rate: float
    zero_state: object
    zero_accessible: bool
    absorb_rate: np.ndarray
    coords: np.ndarray | None = None
    index: dict = field(default_factory=dict)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def zero_index(self) -> int | None:
        return self.index[self.zero_state] if self.zero_accessible else None

    def state_index(self, label) -> int:
        try:
            return self.index[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise InvariantError(f"unknown state label {label!r}") from None


@dataclass(frozen=True)
class RebirthMeasure:
    """Probability weights of the restart location; no mass at 0."""

    weights: dict

    def validate(self, chain: SymmetricChain):
        total = 0.0
        for x, w in self.weights.items():
            if w < 0:
                raise InvariantError(f"negative rebirth weight at {x!r}")
            if x == chain.zero_state and w > 0:
                raise InvariantError(
                    "rebirth measure must be supported away from 0 "
                    "(zero mass at the distinguished state)"
                )
            if w > 0 and x not in chain.index:
                raise InvariantError(f"rebirth mass on unknown state {x!r}")
            total += w
        if abs(total - 1.0) > 1e-9:
            raise InvariantError(f"rebirth weights sum to {total!r}, expected 1")

    def vector(self, chain: SymmetricChain) -> np.ndarray:
        v = np.zeros(chain.n_states)
        for x, w in self.weights.items():
            if w > 0:
                v[chain.state_index(x)] = w
        return v


@dataclass(frozen=True)
class PotentialMatrix:
    """Dense kernel table on every state of a chain or on a block of them;
    ``states``/``index`` label its rows and columns."""

    kind: Kind
    order: float
    table: np.ndarray
    zero_state: object
    states: tuple
    index: dict

    def value(self, x, y) -> float:
        return float(self.table[self.index[x], self.index[y]])


@dataclass(frozen=True)
class HittingProfile:
    """h_x = probability of reaching 0 before death; u00 = kernel at (0,0)."""

    h: np.ndarray
    u00: float
    states: tuple
    index: dict

    def value(self, x) -> float:
        return float(self.h[self.index[x]])

    def restrict(self, keep) -> HittingProfile:
        """The profile on the states at table indices ``keep``, in order."""
        states = tuple(self.states[i] for i in keep)
        return HittingProfile(h=self.h[keep], u00=self.u00, states=states,
                              index={x: k for k, x in enumerate(states)})


def build_chain(spec: ChainSpec, coords=None) -> SymmetricChain:
    """Assemble the dense generator and re-verify detailed balance on it."""
    spec.validate()
    n = len(spec.states)
    index = {x: i for i, x in enumerate(spec.states)}
    m = np.array([spec.measure[x] for x in spec.states], dtype=float)
    Q = np.zeros((n, n))
    absorb = np.zeros(n)
    for (x, y), r in spec.rates.items():
        if y == spec.zero_state and not spec.zero_accessible:
            absorb[index[x]] += r
        elif x != y:
            Q[index[x], index[y]] += r
    np.fill_diagonal(Q, -(Q.sum(axis=1) + absorb))

    # detailed balance of the assembled matrix: D_m Q symmetric; one n x n
    # temporary at a time besides Q and B
    B = m[:, None] * Q
    scale = max(np.abs(B).max(), 1.0)
    defect = B - B.T
    np.abs(defect, out=defect)
    if defect.max() > CONSTRUCTION_RTOL * scale:
        i, j = np.unravel_index(np.argmax(defect), defect.shape)
        raise DetailedBalanceViolation(
            f"m_x*rate(x,y) != m_y*rate(y,x), worst pair "
            f"({spec.states[i]!r}, {spec.states[j]!r}): "
            f"{B[i, j]!r} vs {B[j, i]!r}"
        )

    chain = SymmetricChain(
        states=tuple(spec.states),
        generator=Q,
        measure=m,
        kill_rate=float(spec.kill_rate),
        zero_state=spec.zero_state,
        zero_accessible=spec.zero_accessible,
        absorb_rate=absorb,
        coords=None if coords is None else np.asarray(coords, dtype=float),
        index=index,
    )
    if spec.zero_accessible:
        _check_zero_reachable(chain)
    return chain


def _check_zero_reachable(chain: SymmetricChain):
    """BFS over the positive-rate graph: 0 must be reachable from anywhere."""
    n = chain.n_states
    adj = chain.generator > 0
    reached = np.zeros(n, dtype=bool)
    reached[chain.zero_index] = True
    frontier = [chain.zero_index]
    while frontier:
        nxt = []
        for j in frontier:
            for i in np.nonzero(adj[:, j])[0]:
                if not reached[i]:
                    reached[i] = True
                    nxt.append(i)
        frontier = nxt
    if not reached.all():
        missing = [chain.states[i] for i in np.nonzero(~reached)[0]]
        raise ZeroUnreachable(f"state 0 unreachable from {missing!r}")


def potential_matrix(chain: SymmetricChain, p: float = 0.0,
                     cols=None) -> PotentialMatrix:
    """Exact density table of the p-resolvent, inverse of A = (p+beta)I - Q,
    on the states at the chain indices ``cols`` (sorted; None: every state).

    Allowed at p = 0 because the kill rate makes the chain transient.  Only
    the |cols| columns of the inverse are solved for, from the same LU
    factor as the full table.  When that factor is banded (every path and
    birth-death chain), each step of the triangular solves has one nonzero
    term, so the block equals the full table's [cols][:, cols] bit for bit;
    on a dense chain BLAS may block a narrower solve differently and move
    last bits.  The raw block is divided on the right by m and then
    symmetrised; the pre-symmetrisation defect must sit at roundoff level.

    Before the solve, the symmetric precision D_m A must be strictly
    diagonally dominant with a positive diagonal, which makes it, and so the
    kernel on every block, positive definite; otherwise :class:`NotPSD`.
    The condition warning uses Varah's bound ||A||_inf / min row margin.
    """
    if p < 0:
        raise NonPositiveP("resolvent order p must be >= 0")
    n = chain.n_states
    cols = np.arange(n) if cols is None else np.asarray(cols, dtype=np.int64)
    Q = chain.generator
    diag = (p + chain.kill_rate) - np.diagonal(Q)
    A = np.abs(Q)  # first |Q|, for the row sums off the diagonal
    np.fill_diagonal(A, 0.0)
    off = A.sum(axis=1)
    margin = diag - off
    bad = (chain.measure <= 0) | ~(margin > 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise NotPSD(
            f"precision D_m A not diagonally dominant at state "
            f"{chain.states[i]!r}: measure {chain.measure[i]:.3e}, "
            f"row margin {margin[i]:.3e}"
        )
    cond = (diag + off).max() / margin.min()
    if cond > COND_WARN:
        warnings.warn(
            f"resolvent condition estimate {cond:.3e} above {COND_WARN:.0e}",
            RuntimeWarning,
        )
    np.subtract(0.0, Q, out=A)
    A.flat[::n + 1] = diag
    # one right-hand side would go through a triangular solve that rounds
    # unlike the one every wider solve uses, so a zero column pads it
    k = cols.size
    rhs = np.zeros((n, max(k, min(n, 2))))
    rhs[cols, np.arange(k)] = 1.0
    try:
        R = np.linalg.solve(A, rhs)[cols, :k]
    except np.linalg.LinAlgError as exc:  # cannot occur once dominant
        raise SingularResolvent(str(exc)) from exc
    table = R / chain.measure[None, cols]
    defect = np.abs(table - table.T).max()
    if defect > CONSTRUCTION_RTOL * max(np.abs(table).max(), 1.0):
        raise SingularResolvent(
            f"resolvent density asymmetric beyond tolerance (defect {defect:.3e})"
        )
    table = 0.5 * (table + table.T)
    states = tuple(chain.states[i] for i in cols)
    return PotentialMatrix(
        kind=Kind.U_P,
        order=float(p),
        table=table,
        zero_state=chain.zero_state,
        states=states,
        index={x: k for k, x in enumerate(states)},
    )


def rebirthed_potential(
    chain: SymmetricChain, mu: RebirthMeasure, p: float
) -> PotentialMatrix:
    """Density table of the mu-rebirthed process at order p > 0.

    w_p(x,y) = u_p(x,y) + (1/p - sum_z u_p(x,z) m_z) f(y)/||f||_1 with
    f(y) = sum_x u_p(x,y) mu(x) and the L1 norm taken against m.  Not
    symmetric in general.  Row integrals against m equal 1/p exactly.
    """
    if p <= 0:
        raise NonPositiveP("rebirthed kernel requires p > 0")
    mu.validate(chain)
    upot = potential_matrix(chain, p)
    mu_vec = mu.vector(chain)
    f = upot.table.T @ mu_vec  # f(y) = sum_x u_p(x,y) mu(x)
    fnorm = float(f @ chain.measure)
    if fnorm <= 0:
        raise ZeroF("rebirth smoothing function has zero mass")
    deficit = 1.0 / p - upot.table @ chain.measure
    table = upot.table + np.outer(deficit, f / fnorm)
    return PotentialMatrix(
        kind=Kind.W_P,
        order=float(p),
        table=table,
        zero_state=chain.zero_state,
        states=chain.states,
        index=dict(chain.index),
    )


def killed_at_zero_potential(upot: PotentialMatrix) -> PotentialMatrix:
    """Kernel of the chain killed on first hitting 0.

    Entry (x,y) is u0(x,y) - u0(x,0) u0(0,y) / u0(0,0); the row and column
    of state 0 vanish identically.
    """
    if upot.kind is not Kind.U_P or upot.order != 0.0:
        raise InvariantError("killed_at_zero_potential needs a U_P table at p=0")
    if upot.zero_state not in upot.index:
        raise InvariantError("table does not contain the zero state")
    z = upot.index[upot.zero_state]
    u00 = upot.table[z, z]
    if u00 <= 0:
        raise ZeroDiagonal("u0(0,0) must be positive")
    col = upot.table[:, z]
    table = upot.table - np.outer(col, col) / u00
    table[z, :] = 0.0
    table[:, z] = 0.0
    return PotentialMatrix(
        kind=Kind.U_TILDE_0,
        order=0.0,
        table=table,
        zero_state=upot.zero_state,
        states=upot.states,
        index=dict(upot.index),
    )


def hitting_profile(upot: PotentialMatrix) -> HittingProfile:
    """Probability of visiting 0 before the exponential death, per state."""
    if upot.kind is not Kind.U_P or upot.order != 0.0:
        raise InvariantError("hitting_profile needs a U_P table at p=0")
    z = upot.index[upot.zero_state]
    u00 = upot.table[z, z]
    if u00 <= 0:
        raise ZeroDiagonal("u0(0,0) must be positive")
    h = upot.table[:, z] / u00
    if h.min() < -1e-12 or h.max() > 1.0 + 1e-12:
        raise InvariantError("hitting probabilities escaped [0, 1]")
    return HittingProfile(
        h=np.clip(h, 0.0, 1.0),
        u00=float(u00),
        states=upot.states,
        index=dict(upot.index),
    )


# ready-made chains --------------------------------------------------------

def path_chain(labels, rate=1.0, measure=1.0, kill_rate=1.0, zero_state=0,
               coords=None) -> SymmetricChain:
    """Nearest-neighbour chain along ``labels`` with constant symmetric rates."""
    labels = tuple(labels)
    rates = {}
    for a, b in zip(labels[:-1], labels[1:]):
        rates[(a, b)] = rate
        rates[(b, a)] = rate
    if np.isscalar(measure):
        measure = {x: float(measure) for x in labels}
    spec = ChainSpec(
        states=labels,
        rates=rates,
        measure=measure,
        kill_rate=kill_rate,
        zero_state=zero_state,
        zero_accessible=zero_state in labels,
    )
    return build_chain(spec, coords=coords)


def birth_death_chain(n, rate, kill_rate=1.0, absorb_at_zero=False) -> SymmetricChain:
    """Grid surrogate on {k/n} with scale function s(k/n) = k/n exactly.

    Uniform up/down rates and uniform measure m = n/rate make every scale
    increment 1/(m*rate) = 1/n.  With ``absorb_at_zero`` the state space is
    {1/n, ..., 1} and jumps from 1/n into 0 kill the path.
    """
    if n < 2:
        raise InvariantError("birth-death surrogate needs n >= 2")
    m_val = n / rate
    lo = 1 if absorb_at_zero else 0
    labels = tuple(range(lo, n + 1))
    rates = {}
    for k in range(lo, n):
        rates[(k, k + 1)] = rate
        rates[(k + 1, k)] = rate
    if absorb_at_zero:
        rates[(1, 0)] = rate
    spec = ChainSpec(
        states=labels,
        rates=rates,
        measure={k: m_val for k in labels},
        kill_rate=kill_rate,
        zero_state=0,
        zero_accessible=not absorb_at_zero,
    )
    coords = np.array([k / n for k in labels])
    return build_chain(spec, coords=coords)
