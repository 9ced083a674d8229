"""The benchmark's workloads: which configs each one runs, and how.

Every job is one ``rklab run <config> --no-figures`` at the benchmark's
seed.  ``expect`` is the exit code a correct program gives: 0 for every
config except the power check ``first_rk_defect``, whose verdict must be
FAIL (exit 1).  ``replicates`` overrides the config's own count, as
``rklab run --replicates`` does.  README.md gives the reason for each
workload.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class Job:
    name: str
    config: str              # path relative to the checkout root
    expect: int = 0
    replicates: int | None = None


def _configs(*names):
    return tuple(Job(n, f"configs/{n}.yaml", 1 if n == "first_rk_defect" else 0)
                 for n in names)


WORKLOADS = {
    "identities": _configs(
        "eisenbaum", "first_rk", "first_rk_cond", "first_rk_defect",
        "normalization", "second_rk", "second_rk_cond", "tminus",
    ),
    "reduction": (Job("reduction", "configs/reduction.yaml",
                      replicates=50_000),),
    "gauss-grid": (Job("gauss_grid", "perfbench/gauss_grid.yaml"),),
}

# Per-layer metrics that must be nonzero in a traced run of each workload.
# A zero means a layer the workload must use recorded no spans (or no work of
# that kind), e.g. after a rename; the traced run then fails instead of
# printing a breakdown with the layer silently missing.
REQUIRED = {
    "identities": ("batch.calls", "gaussfield.factor_calls",
                   "gaussfield.draws", "chains.busy_s", "stats.busy_s",
                   "harnesses.self_s", "reporting.busy_s", "config.parse_s"),
    "reduction": ("batch.calls", "stats.busy_s",
                  "diagnostics.self_s", "reporting.busy_s", "config.parse_s"),
    "gauss-grid": ("batch.calls", "gaussfield.factor_calls",
                   "gaussfield.draws", "chains.busy_s", "stats.busy_s",
                   "harnesses.self_s", "reporting.busy_s", "config.parse_s"),
}
