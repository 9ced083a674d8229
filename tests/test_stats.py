"""Comparison machinery: estimators, standard errors, verdicts, ESS."""

import json
import math

import numpy as np
import pytest

from rklab.diagnostics import SweepResult
from rklab.errors import DegenerateESS
from rklab.reporting import write_sweep_json
from rklab.stats import (
    ComparisonReport,
    StatRow,
    compare_fields,
    covariance_zero_rows,
    default_probes,
    ess,
    product_fraction_row,
    side_estimates,
    weight_diagnostics,
    zscore,
)

PROBES = [[0.5, 0.0], [0.25, 0.25]]


def test_identical_samples_zero_z(rng):
    x = rng.standard_normal((5_000, 2)) ** 2
    rep = compare_fields("t", x, x, ["a", "b"], PROBES, seed=1,
                         rhs_weights=np.ones(x.shape[0]))
    assert rep.verdict
    assert all(r.z == 0.0 for r in rep.rows)
    assert rep.ess == pytest.approx(x.shape[0])


def test_side_estimates_ignore_memory_layout():
    # the Laplace products once rounded by layout: laplace[2] of these C-
    # and F-ordered copies differed in its last bit
    values = np.random.default_rng(2).exponential(size=(200_000, 3))
    labels, probes = ["a", "b", "c"], default_probes(3)
    c_side = side_estimates(np.ascontiguousarray(values), labels, probes)
    f_side = side_estimates(np.asfortranarray(values), labels, probes)
    assert c_side == f_side


def test_same_law_passes(rng):
    a = rng.standard_normal((100_000, 2)) ** 2
    b = rng.standard_normal((100_000, 2)) ** 2
    rep = compare_fields("t", a, b, ["a", "b"], PROBES, seed=1)
    assert rep.verdict
    assert rep.max_abs_z() < 4.0


def test_shift_fails(rng):
    a = rng.standard_normal((100_000, 2)) ** 2
    b = rng.standard_normal((100_000, 2)) ** 2 + 0.5
    rep = compare_fields("t", a, b, ["a", "b"], PROBES, seed=1)
    assert not rep.verdict
    assert rep.max_abs_z() > 20.0


def test_weighted_ratio_estimator(rng):
    # exponential tilt as importance weights: weighted mean of N(0,1)
    # samples under w = exp(x - 1/2) estimates the N(1,1) mean
    x = rng.standard_normal(200_000)
    w = np.exp(x - 0.5)
    rep = compare_fields(
        "t", rng.standard_normal((200_000, 1)) + 1.0, x[:, None],
        ["a"], [[0.3]], seed=1, rhs_weights=w,
    )
    mean_row = rep.rows[0]
    assert abs(mean_row.z) < 4.0
    assert rep.ess < 200_000  # tilting costs effective samples


def test_degenerate_ess(rng):
    x = rng.standard_normal((200, 1))
    w = np.zeros(200)
    w[0] = 1.0
    with pytest.raises(DegenerateESS):
        compare_fields("t", x, x, ["a"], [], seed=1, rhs_weights=w)


def test_ess_and_weight_diagnostics():
    assert ess(np.ones(50)) == pytest.approx(50.0)
    diag = weight_diagnostics(np.array([1.0, -1.0, 20.0, 1.0]))
    assert diag["weight_tail_fraction"] == pytest.approx(0.25)
    assert diag["negative_weight_fraction"] == pytest.approx(0.25)


def test_zscore_edges():
    assert zscore(0.0, 0.0) == 0.0
    assert zscore(1e-9, 0.0) == math.inf
    assert zscore(1.0, 0.5) == 2.0


def test_covariance_zero_rows(rng):
    n = 50_000
    a = rng.standard_normal((n, 1))
    b = rng.standard_normal((n, 1))
    rows = covariance_zero_rows(a, b, ["x"], ["y"])
    assert abs(rows[0].z) < 4.0
    rows = covariance_zero_rows(a, a * 0.5 + b * 0.01, ["x"], ["y"])
    assert abs(rows[0].z) > 10.0


def test_product_fraction_row():
    row = product_fraction_row("f", 0.25, 10_000, [0.5, 0.5],
                               [10_000, 10_000])
    assert row.rhs == pytest.approx(0.25)
    assert abs(row.z) < 1e-9
    row = product_fraction_row("f", 0.40, 10_000, [0.5, 0.5],
                               [10_000, 10_000])
    assert row.z > 10.0


def test_report_serialisation():
    rep = ComparisonReport(
        test_id="demo",
        rows=[StatRow("a", 1.0, 1.0, 0.1, 0.0),
              StatRow("b", 2.0, 1.0, 0.1, 10.0, gating=False)],
        seed=7, n_lhs=10, n_rhs=10,
    )
    assert rep.verdict  # non-gating rows never flip the verdict
    as_dict = rep.to_dict()
    assert as_dict["verdict"] == "pass"
    assert rep.to_json() == rep.to_json()  # stable serialisation
    rep.rows.append(StatRow("c", 2.0, 1.0, 0.1, 10.0))
    assert not rep.verdict


def test_default_probes():
    probes = default_probes(3)
    assert len(probes) == 3
    assert all(len(nu) == 3 and min(nu) >= 0 for nu in probes)


def _strict_loads(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_reports_are_strict_json(tmp_path):
    inf_z = zscore(3.0, 0.0)  # a count row with a violation and no spread
    assert inf_z == math.inf
    rep = ComparisonReport(
        test_id="demo",
        rows=[StatRow("violations", 3.0, 0.0, 0.0, inf_z),
              StatRow("a", 1.0, 1.0, 0.1, -math.inf),
              StatRow("b", math.nan, 1.0, 0.1, 0.5)],
        seed=7, n_lhs=10, n_rhs=10, metadata={"gap": [math.inf, 1.5]},
    )
    back = _strict_loads(rep.to_json())
    assert [r["z"] for r in back["rows"]] == ["inf", "-inf", 0.5]
    assert back["rows"][2]["lhs"] == "nan"
    assert back["metadata"]["gap"] == ["inf", 1.5]
    assert back["verdict"] == "fail"

    sweep = SweepResult("lil", (0.5, 0.25), (1.0, 1.1), 1.0, 16, 3,
                        metadata={"spread": math.nan})
    write_sweep_json(sweep, tmp_path / "s.json")
    back = _strict_loads((tmp_path / "s.json").read_text())
    assert back["metadata"]["spread"] == "nan"
    assert back["ratios"] == [1.0, 1.1]
