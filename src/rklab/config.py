"""Experiment configuration: YAML schema, validation, object construction.

One document describes one harness invocation.  Unknown keys are rejected
with their path, model invariants (rebirth mass at 0, missing zero state,
plan sizes) are enforced at parse time, and the assembled objects are the
same ones the test suite drives directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import yaml

from .chains import (
    ChainSpec,
    RebirthMeasure,
    SymmetricChain,
    birth_death_chain,
    build_chain,
    path_chain,
)
from .errors import InvariantError, SchemaError
from .harnesses import REGISTRY, SweepConfig, TestPlan

_TOP_KEYS = {"harness", "chain", "mu", "start", "plan", "seed", "output",
             "workers", "figures"}
_CHAIN_KEYS = {"kind", "states", "rates", "measure", "n", "rate",
               "absorb_at_zero", "kill_rate", "zero_state", "zero_accessible"}
_PLAN_KEYS = {"r", "s", "p", "t", "replicates", "test_points",
              "laplace_probes", "moment_orders", "scales", "d", "interval",
              "stop", "defect", "z_max"}


def _num(value, path, kind=float):
    """``kind(value)`` for a finite number, integral when ``kind`` is int,
    or a SchemaError naming the key path."""
    try:
        x = float(value)
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x) or (kind is int and not x.is_integer()):
        what = "an integer" if kind is int else "a finite number"
        raise SchemaError(f"{path}: expected {what}, got {value!r}")
    return out


def _seq(value, path) -> tuple:
    """``tuple(value)`` for a list, or a SchemaError naming the key path."""
    if not isinstance(value, (list, tuple)):
        raise SchemaError(f"{path}: expected a list, got {value!r}")
    return tuple(value)


def _measure(value, states) -> dict:
    """The state measure from a number or a mapping, or a SchemaError."""
    if isinstance(value, dict):
        return {x: _num(w, f"chain.measure.{x}") for x, w in value.items()}
    if isinstance(value, (list, tuple)):
        raise SchemaError(
            f"chain.measure: expected a number or a mapping, got {value!r}")
    w = _num(value, "chain.measure")
    return {x: w for x in states}


def check_seed(seed: int) -> None:
    """Random streams are seeded from nonnegative integers only."""
    if seed < 0:
        raise InvariantError(f"seed must be >= 0, got {seed}")


def check_workers(workers: int) -> None:
    if workers < 1:
        raise InvariantError(f"workers must be >= 1, got {workers}")


def check_z_max(z_max) -> None:
    """A verdict threshold that some |z| can pass and some can fail."""
    value = _num(z_max, "plan.z_max")
    if value <= 0:
        raise InvariantError(f"plan.z_max must be > 0, got {value}")


@dataclass
class ExperimentConfig:
    """One validated run; overrides go through dataclasses.replace so the
    same checks apply to them."""

    harness: str
    chain: SymmetricChain
    mu: RebirthMeasure | None
    start: object
    plan: dict
    seed: int
    output: str | None
    workers: int = 1
    figures: bool = True

    def __post_init__(self):
        check_seed(self.seed)
        check_workers(self.workers)
        if "z_max" in self.plan:
            check_z_max(self.plan["z_max"])
        defect = self.plan.get("defect")
        declared = REGISTRY[self.harness].defects
        if defect is not None \
                and not (isinstance(defect, str) and defect in declared):
            raise SchemaError(
                f"plan.defect: {self.harness} has no defect {defect!r}; "
                f"declared: {', '.join(sorted(declared)) or 'none'}")

    def run_plan(self):
        """The argument of the harness's run function, of the type that the
        registry declares for it."""
        if REGISTRY[self.harness].plan_type is SweepConfig:
            return self._sweep_config()
        return self._test_plan()

    def _test_plan(self) -> TestPlan:
        p = self.plan
        probes = _seq(p.get("laplace_probes", ()), "plan.laplace_probes")
        orders = _seq(p.get("moment_orders", (1, 2)), "plan.moment_orders")
        kwargs = dict(
            chain=self.chain, mu=self.mu, start=self.start,
            replicates=_num(p.get("replicates", 200_000), "plan.replicates",
                            int),
            seed=self.seed,
            test_points=_seq(p.get("test_points", ()), "plan.test_points"),
            laplace_probes=tuple(
                tuple(_num(w, f"plan.laplace_probes[{i}]")
                      for w in _seq(v, f"plan.laplace_probes[{i}]"))
                for i, v in enumerate(probes)),
            moment_orders=tuple(_num(k, f"plan.moment_orders[{i}]", int)
                                for i, k in enumerate(orders)),
            workers=self.workers,
            defect=p.get("defect"),
            scales=self._floats("scales"),
        )
        if "r" in p:
            kwargs["r"] = _num(p["r"], "plan.r", int)
        for key in ("s", "p", "t", "z_max"):
            if key in p:
                kwargs[key] = _num(p[key], f"plan.{key}")
        return TestPlan(**kwargs)

    def _sweep_config(self) -> SweepConfig:
        p = self.plan
        return SweepConfig(
            chain=self.chain, mu=self.mu, start=self.start,
            replicates=_num(p.get("replicates", 200), "plan.replicates", int),
            seed=self.seed,
            scales=self._floats("scales"),
            stop_kind=p.get("stop", "zero"),
            d=p.get("d"),
            interval=self._interval() if "interval" in p else None,
            workers=self.workers,
        )

    def _floats(self, key):
        path = f"plan.{key}"
        return tuple(_num(v, path)
                     for v in _seq(self.plan.get(key, ()), path))

    def _interval(self):
        ends = self._floats("interval")
        if len(ends) != 2:
            raise SchemaError(f"plan.interval: expected two numbers [c, d], "
                              f"got {self.plan['interval']!r}")
        return ends


def _require_mapping(obj, path):
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected a mapping, got {type(obj).__name__}")
    return obj


def _reject_unknown(d, allowed, path):
    for key in d:
        if key not in allowed:
            raise SchemaError(f"{path}: unknown key {key!r}")


def _build_chain(doc) -> SymmetricChain:
    _require_mapping(doc, "chain")
    _reject_unknown(doc, _CHAIN_KEYS, "chain")
    kind = doc.get("kind", "explicit")
    kill = _num(doc.get("kill_rate", 1.0), "chain.kill_rate")
    zero = doc.get("zero_state", 0)
    if kind == "birth-death":
        for key in ("n", "rate"):
            if key not in doc:
                raise SchemaError(f"chain: birth-death needs {key!r}")
        return birth_death_chain(
            _num(doc["n"], "chain.n", int), _num(doc["rate"], "chain.rate"),
            kill_rate=kill,
            absorb_at_zero=bool(doc.get("absorb_at_zero", False)),
        )
    if kind == "path":
        if "states" not in doc:
            raise SchemaError("chain: path needs a states list")
        states = _seq(doc["states"], "chain.states")
        return path_chain(
            states, rate=_num(doc.get("rate", 1.0), "chain.rate"),
            measure=_measure(doc.get("measure", 1.0), states),
            kill_rate=kill, zero_state=zero,
        )
    if kind == "explicit":
        for key in ("states", "rates", "measure"):
            if key not in doc:
                raise SchemaError(f"chain: explicit needs {key!r}")
        rates = {}
        for triple in _seq(doc["rates"], "chain.rates"):
            if not isinstance(triple, (list, tuple)) or len(triple) != 3:
                raise SchemaError("chain.rates: entries must be [from, to, rate]")
            rates[(triple[0], triple[1])] = _num(triple[2], "chain.rates")
        states = _seq(doc["states"], "chain.states")
        spec = ChainSpec(
            states=states, rates=rates,
            measure=_measure(doc["measure"], states), kill_rate=kill,
            zero_state=zero,
            zero_accessible=bool(doc.get("zero_accessible", zero in states)),
        )
        return build_chain(spec)
    raise SchemaError(f"chain.kind: unknown kind {kind!r}")


def parse_config(text: str) -> ExperimentConfig:
    """Validated configuration or the first schema/invariant error."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SchemaError(f"malformed document: {exc}") from exc
    _require_mapping(doc, "top level")
    _reject_unknown(doc, _TOP_KEYS, "top level")
    for key in ("harness", "chain", "seed"):
        if key not in doc:
            raise SchemaError(f"top level: missing key {key!r}")
    harness = doc["harness"]
    if not isinstance(harness, str) or harness not in REGISTRY:
        raise SchemaError(
            f"harness: unknown id {harness!r}; expected one of "
            f"{sorted(REGISTRY)}"
        )
    chain = _build_chain(doc["chain"])
    mu = None
    if "mu" in doc and doc["mu"] is not None:
        weights = _require_mapping(doc["mu"], "mu")
        mu = RebirthMeasure(weights={k: _num(v, f"mu.{k}")
                                     for k, v in weights.items()})
        mu.validate(chain)
    plan = _require_mapping(doc.get("plan", {}), "plan")
    _reject_unknown(plan, _PLAN_KEYS, "plan")
    cfg = ExperimentConfig(
        harness=harness,
        chain=chain,
        mu=mu,
        start=doc.get("start"),
        plan=dict(plan),
        seed=_num(doc["seed"], "seed", int),
        output=doc.get("output"),
        workers=_num(doc.get("workers", 1), "workers", int),
        figures=bool(doc.get("figures", True)),
    )
    cfg.run_plan()  # so that configuration errors surface at parse time
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
