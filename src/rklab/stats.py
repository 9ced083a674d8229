"""Moment and Laplace-functional comparison of field ensembles.

Equality in law is operationalised as: first and second moments at the test
points plus a handful of Laplace probes exp(-nu . X), each within z_max
pooled standard errors.  The weighted side uses the self-normalised ratio
estimator sum(w f)/sum(w) with a delta-method standard error; its effective
sample size (sum w)^2 / sum w^2 is reported and gates validity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateESS

Z_MAX_DEFAULT = 4.0
ESS_FLOOR = 100.0
WEIGHT_TAIL_CUT = 10.0


@dataclass
class StatRow:
    statistic: str
    lhs: float
    rhs: float
    se: float
    z: float
    gating: bool = True

    def to_dict(self):
        return {
            "statistic": self.statistic, "lhs": self.lhs, "rhs": self.rhs,
            "se": self.se, "z": self.z, "gating": self.gating,
        }


@dataclass
class ComparisonReport:
    test_id: str
    rows: list
    seed: int
    n_lhs: int
    n_rhs: int
    z_max: float = Z_MAX_DEFAULT
    ess: float | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def verdict(self) -> bool:
        return all(abs(r.z) <= self.z_max for r in self.rows if r.gating)

    def max_abs_z(self) -> float:
        gating = [abs(r.z) for r in self.rows if r.gating]
        return max(gating) if gating else 0.0

    def to_dict(self):
        return {
            "test_id": self.test_id,
            "seed": self.seed,
            "z_max": self.z_max,
            "n_lhs": self.n_lhs,
            "n_rhs": self.n_rhs,
            "ess": self.ess,
            "rows": [r.to_dict() for r in self.rows],
            "verdict": "pass" if self.verdict else "fail",
            "metadata": self.metadata,
        }

    def to_json(self) -> str:
        return strict_json(self.to_dict())


def _json_safe(obj):
    """obj with every non-finite float replaced by "inf", "-inf" or "nan"."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def strict_json(obj) -> str:
    """Sorted, indented JSON that strict parsers accept (no bare Infinity
    or NaN); non-finite floats are written as strings."""
    return json.dumps(_json_safe(obj), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def zscore(diff: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / se


def gated_z(lhs: float, rhs: float, se: float) -> float:
    """z with the standard error floored at numerical precision.

    Degenerate statistics (identical constants on both sides, e.g. a field
    value forced by a zero covariance row) have sample errors at roundoff
    level; differences below 1e-12 of the statistic's magnitude are not
    resolvable and must not produce spurious rejections.
    """
    floor = 1e-12 * max(1.0, abs(lhs), abs(rhs))
    return zscore(lhs - rhs, max(se, floor))


def ess(weights: np.ndarray) -> float:
    denom = float(np.sum(weights ** 2))
    if denom == 0.0:
        return 0.0
    return float(np.sum(weights)) ** 2 / denom


def weight_diagnostics(weights: np.ndarray) -> dict:
    n = weights.size
    return {
        "ess": ess(weights),
        "weight_tail_fraction": float(np.mean(np.abs(weights) > WEIGHT_TAIL_CUT)),
        "negative_weight_fraction": float(np.mean(weights < 0)),
        "n": n,
    }


def _mean_se(f: np.ndarray, weights: np.ndarray | None):
    """Estimate and SE of E[f]; self-normalised ratio when weighted."""
    n = f.shape[0]
    if weights is None:
        est = float(np.mean(f))
        se = float(np.std(f, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        return est, se
    sw = float(np.sum(weights))
    est = float(np.sum(weights * f) / sw)
    se = float(np.sqrt(np.sum((weights * (f - est)) ** 2)) / abs(sw))
    return est, se


def side_estimates(values: np.ndarray, point_labels, probes,
                   weights: np.ndarray | None = None, moment_orders=(1, 2)):
    """(label, estimate, se) for every statistic of one ensemble.

    ``values`` is replicates x test points.  Probes are nonnegative
    coefficient vectors over the test points; their products are taken on
    ``values`` in Fortran order, so no estimate depends on its memory layout.
    """
    K = values.shape[1]
    out = []
    if 1 in moment_orders:
        for k in range(K):
            est, se = _mean_se(values[:, k], weights)
            out.append((f"mean[{point_labels[k]}]", est, se))
    if 2 in moment_orders:
        for i in range(K):
            for j in range(i, K):
                est, se = _mean_se(values[:, i] * values[:, j], weights)
                out.append((f"m2[{point_labels[i]},{point_labels[j]}]", est, se))
    for pi, nu in enumerate(probes):
        f = np.exp(-(np.asfortranarray(values) @ np.asarray(nu, dtype=float)))
        est, se = _mean_se(f, weights)
        out.append((f"laplace[{pi}]", est, se))
    return out


def compare_sides(lhs_stats, rhs_stats) -> list:
    """Pair up per-side estimates into rows with pooled standard errors."""
    rows = []
    for (label_l, el, sl), (label_r, er, sr) in zip(lhs_stats, rhs_stats):
        if label_l != label_r:
            raise ValueError(f"statistic mismatch: {label_l} vs {label_r}")
        se = math.hypot(sl, sr)
        rows.append(StatRow(statistic=label_l, lhs=el, rhs=er, se=se,
                            z=gated_z(el, er, se)))
    return rows


def compare_fields(test_id, lhs_values, rhs_values, point_labels, probes,
                   seed, rhs_weights=None, z_max=Z_MAX_DEFAULT,
                   moment_orders=(1, 2), metadata=None) -> ComparisonReport:
    """Full two-sample comparison of field ensembles at the test points."""
    lhs_stats = side_estimates(lhs_values, point_labels, probes,
                               moment_orders=moment_orders)
    rhs_stats = side_estimates(rhs_values, point_labels, probes,
                               weights=rhs_weights, moment_orders=moment_orders)
    rows = compare_sides(lhs_stats, rhs_stats)
    meta = dict(metadata or {})
    ess_val = None
    if rhs_weights is not None:
        diag = weight_diagnostics(rhs_weights)
        ess_val = diag["ess"]
        meta.update(diag)
        if ess_val < ESS_FLOOR:
            raise DegenerateESS(
                f"effective sample size {ess_val:.1f} below {ESS_FLOOR}"
            )
    return ComparisonReport(
        test_id=test_id, rows=rows, seed=seed,
        n_lhs=lhs_values.shape[0], n_rhs=rhs_values.shape[0],
        z_max=z_max, ess=ess_val, metadata=meta,
    )


def rows_vs_exact(values: np.ndarray, exact, labels) -> list:
    """One-sample rows against exact reference constants (se of rhs = 0)."""
    rows = []
    for k, label in enumerate(labels):
        est, se = _mean_se(values[:, k], None)
        target = float(exact[k])
        rows.append(StatRow(statistic=label, lhs=est, rhs=target, se=se,
                            z=gated_z(est, target, se)))
    return rows


def covariance_zero_rows(g1: np.ndarray, g2: np.ndarray, labels1,
                         labels2) -> list:
    """Rows asserting cov(g1[:,i], g2[:,j]) = 0 with influence-function SEs."""
    n = g1.shape[0]
    rows = []
    for i in range(g1.shape[1]):
        a = g1[:, i] - g1[:, i].mean()
        for j in range(g2.shape[1]):
            b = g2[:, j] - g2[:, j].mean()
            cov = float(np.mean(a * b))
            se = float(np.std(a * b - cov, ddof=1) / np.sqrt(n))
            rows.append(StatRow(
                statistic=f"condind[{labels1[i]};{labels2[j]}]",
                lhs=cov, rhs=0.0, se=se, z=zscore(cov, se),
            ))
    return rows


def product_fraction_row(statistic, direct_frac, direct_n, factor_fracs,
                         factor_ns) -> StatRow:
    """Direct event probability against a product of independent factors."""
    prod = 1.0
    var = 0.0
    for f, n in zip(factor_fracs, factor_ns):
        prod *= f
    for f, n in zip(factor_fracs, factor_ns):
        if f > 0:
            var += (prod / f) ** 2 * f * (1.0 - f) / n
        else:
            var += prod ** 2 / n
    se_direct = math.sqrt(direct_frac * (1.0 - direct_frac) / direct_n)
    se = math.hypot(math.sqrt(var), se_direct)
    return StatRow(statistic=statistic, lhs=direct_frac, rhs=prod, se=se,
                   z=zscore(direct_frac - prod, se))


def default_probes(n_points: int):
    """Three informative nonnegative probe vectors over the test points."""
    first = [0.0] * n_points
    first[0] = 0.5
    flat = [0.25] * n_points
    ramp = [round(0.1 + 0.3 * k / max(n_points - 1, 1), 6)
            for k in range(n_points)]
    return [first, flat, ramp]
