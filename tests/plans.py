"""Chains and plans shared by the harness tests."""

from rklab.chains import (
    ChainSpec,
    RebirthMeasure,
    SymmetricChain,
    birth_death_chain,
    build_chain,
    path_chain,
)
from rklab.harnesses import TestPlan


def reference_chain(kill_rate=1.0) -> SymmetricChain:
    """Three-state path -1 <-> 0 <-> +1, unit rates and measure."""
    return path_chain((-1, 0, 1), kill_rate=kill_rate, coords=(-1.0, 0.0, 1.0))


def absorbed_path_chain(kill_rate=1.0) -> SymmetricChain:
    """Four-state path -2 -1 | +1 +2 whose inner states absorb into 0."""
    spec = ChainSpec(
        states=(-2, -1, 1, 2),
        rates={(-2, -1): 1.0, (-1, -2): 1.0, (1, 2): 1.0, (2, 1): 1.0,
               (-1, 0): 1.0, (1, 0): 1.0},
        measure={x: 1.0 for x in (-2, -1, 1, 2)},
        kill_rate=kill_rate,
        zero_state=0,
        zero_accessible=False,
    )
    return build_chain(spec, coords=(-2.0, -1.0, 1.0, 2.0))


def five_path_chain() -> SymmetricChain:
    return path_chain((-2, -1, 0, 1, 2), kill_rate=1.0,
                      coords=(-2.0, -1.0, 0.0, 1.0, 2.0))


def reduction_chain(n=128, rate=160.0, kill_rate=1.0) -> SymmetricChain:
    return birth_death_chain(n, rate, kill_rate=kill_rate)


def ref_plan(seed, workers, replicates=100_000, **kw):
    """A plan on the reference chain: rebirth at +1, start -1, every state a
    test point."""
    base = dict(
        chain=reference_chain(),
        mu=RebirthMeasure(weights={1: 1.0}),
        start=-1,
        replicates=replicates,
        seed=seed,
        test_points=(-1, 0, 1),
        workers=workers,
    )
    base.update(kw)
    return TestPlan(**base)
