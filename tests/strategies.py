"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from rklab.chains import ChainSpec, birth_death_chain, build_chain


@st.composite
def path_chains(draw, absorbing=False):
    """A detailed-balance path chain with 0 inside.

    With ``absorbing`` the state 0 is taken out of the space and the rates
    of its neighbours into it become absorption rates.
    """
    n = draw(st.integers(2, 7))
    zero_pos = draw(st.integers(0, n - 1))
    labels = tuple(range(-zero_pos, n - zero_pos))
    positive = st.floats(0.1, 10.0)
    m = {x: draw(positive) for x in labels}
    rates = {}
    for a, b in zip(labels[:-1], labels[1:]):
        c = draw(positive)  # edge conductance m(a) q(a,b) = m(b) q(b,a)
        rates[(a, b)] = c / m[a]
        rates[(b, a)] = c / m[b]
    kill_rate = draw(st.floats(0.1, 5.0))
    if not absorbing:
        return build_chain(ChainSpec(states=labels, rates=rates, measure=m,
                                     kill_rate=kill_rate))
    states = tuple(x for x in labels if x != 0)
    rates = {(a, b): q for (a, b), q in rates.items() if a != 0}
    return build_chain(ChainSpec(
        states=states, rates=rates, measure={x: m[x] for x in states},
        kill_rate=kill_rate, zero_accessible=False,
    ))


@st.composite
def birth_death_chains(draw, absorbing=None):
    """A birth-death grid surrogate; with ``absorbing`` None, 0 is drawn to
    be in the space or absorbing into it."""
    if absorbing is None:
        absorbing = draw(st.booleans())
    return birth_death_chain(draw(st.integers(2, 12)),
                             draw(st.floats(0.5, 50.0)),
                             kill_rate=draw(st.floats(0.1, 5.0)),
                             absorb_at_zero=absorbing)
