"""Configuration schema, CLI subcommands and exit codes."""

import glob
import json
import os
import re
import types

import pytest

from rklab import cli
from rklab.config import load_config, parse_config
from rklab.errors import InvariantError, SchemaError
from rklab.harnesses import REGISTRY, SweepConfig, TestPlan

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

SMALL_EISENBAUM = """
harness: eisenbaum
chain:
  kind: path
  states: [-1, 0, 1]
  rate: 1.0
  measure: 1.0
  kill_rate: 1.0
mu: {1: 1.0}
start: -1
plan:
  s: 1.0
  replicates: 10000
  test_points: [-1, 0, 1]
seed: 4242
"""


def test_shipped_configs_parse():
    paths = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.yaml")))
    assert len(paths) >= 11
    seen = set()
    for path in paths:
        cfg = load_config(path)
        seen.add(cfg.harness)
    assert seen == set(REGISTRY)  # every harness has a shipped config


def test_registry_covers_all_ids():
    # the numbers fix every random stream, so no harness is ever renumbered
    assert {name: run.num for name, run in REGISTRY.items()} == {
        "normalization": 1, "eisenbaum": 2, "first-rk": 3,
        "first-rk-cond": 4, "tminus": 5, "second-rk": 6,
        "second-rk-cond": 7, "reduction": 8, "modulus-local": 9,
        "modulus-uniform": 10, "lil": 11,
    }
    for run in REGISTRY.values():
        assert isinstance(run, types.FunctionType)
        assert run.__module__ == "rklab.harnesses"
        assert run.plan_type in (TestPlan, SweepConfig)
        assert all(isinstance(d, str) for d in run.defects)
    assert not any(run.defects for run in REGISTRY.values()
                   if run.plan_type is SweepConfig)


def test_unknown_key_rejected():
    bad = SMALL_EISENBAUM.replace("  s: 1.0", "  s: 1.0\n  jitterr: 2")
    with pytest.raises(SchemaError, match="jitterr"):
        parse_config(bad)


def test_mu_mass_at_zero_rejected():
    bad = SMALL_EISENBAUM.replace("mu: {1: 1.0}", "mu: {0: 0.5, 1: 0.5}")
    with pytest.raises(InvariantError, match="supported away from 0"):
        parse_config(bad)


def test_malformed_yaml():
    with pytest.raises(SchemaError):
        parse_config("harness: [unclosed")
    with pytest.raises(SchemaError, match="harness"):
        parse_config("chain: {kind: path, states: [0, 1]}\nseed: 1")
    with pytest.raises(SchemaError, match="unknown id"):
        parse_config(SMALL_EISENBAUM.replace("eisenbaum", "eisenbaums"))


def test_cli_run_pass(tmp_path, read_png):
    cfg_path = tmp_path / "e.yaml"
    out_path = tmp_path / "report.json"
    cfg_path.write_text(SMALL_EISENBAUM + f"output: {out_path}\n")
    code = cli.main(["run", str(cfg_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["verdict"] == "pass"
    assert report["seed"] == 4242
    assert (tmp_path / "report_z.png").exists()  # figure beside the JSON
    read_png(tmp_path / "report_z.png")  # a decodable PNG, not an empty file


def test_cli_run_defect_fails(tmp_path):
    cfg_path = tmp_path / "bad.yaml"
    text = SMALL_EISENBAUM.replace("  s: 1.0",
                                   "  s: 1.0\n  defect: unit-weights")
    cfg_path.write_text(text + f"output: {tmp_path / 'bad.json'}\n")
    assert cli.main(["run", str(cfg_path)]) == 1


def test_cli_missing_output_dir(tmp_path):
    cfg_path = tmp_path / "e.yaml"
    cfg_path.write_text(SMALL_EISENBAUM
                        + f"output: {tmp_path / 'nodir' / 'r.json'}\n")
    assert cli.main(["run", str(cfg_path)]) == 2


def test_cli_overrides_and_determinism(tmp_path):
    cfg_path = tmp_path / "e.yaml"
    cfg_path.write_text(SMALL_EISENBAUM)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(["run", str(cfg_path), "--output", str(out1),
                     "--workers", "1", "--no-figures"]) == 0
    assert cli.main(["run", str(cfg_path), "--output", str(out2),
                     "--workers", "3", "--no-figures"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    out3 = tmp_path / "c.json"
    assert cli.main(["run", str(cfg_path), "--output", str(out3),
                     "--seed", "777", "--no-figures"]) == 0
    assert json.loads(out3.read_text())["seed"] == 777


def test_cli_suite(tmp_path):
    (tmp_path / "a.yaml").write_text(
        SMALL_EISENBAUM + f"output: {tmp_path / 'a.json'}\n")
    (tmp_path / "b.yaml").write_text(
        SMALL_EISENBAUM.replace("seed: 4242", "seed: 4243")
        + f"output: {tmp_path / 'b.json'}\n")
    assert cli.main(["suite", str(tmp_path), "--no-figures"]) == 0
    assert (tmp_path / "a.json").exists() and (tmp_path / "b.json").exists()


def test_cli_dump_potentials(tmp_path):
    cfg_path = tmp_path / "e.yaml"
    cfg_path.write_text(SMALL_EISENBAUM)
    assert cli.main(["dump-potentials", str(cfg_path), "--output",
                     str(tmp_path)]) == 0
    for name in ("u0.csv", "u_p1.csv", "w_p1.csv", "u_tilde0.csv", "h.csv"):
        assert (tmp_path / name).exists(), name
    lines = (tmp_path / "u0.csv").read_text().strip().splitlines()
    assert lines[0] == "row,column,value"
    assert len(lines) == 1 + 9


def test_cli_sweep_run(tmp_path, read_png):
    text = """
harness: lil
chain: {kind: birth-death, n: 64, rate: 256.0, kill_rate: 1.0}
mu: {16: 1.0}
start: 32
plan:
  replicates: 16
  scales: [0.25, 0.125]
  stop: zero
seed: 11
"""
    cfg_path = tmp_path / "lil.yaml"
    out = tmp_path / "lil.json"
    cfg_path.write_text(text + f"output: {out}\n")
    assert cli.main(["run", str(cfg_path)]) == 0
    payload = json.loads(out.read_text())
    assert payload["gating"] is False
    assert (tmp_path / "lil.csv").exists()
    assert (tmp_path / "lil_ratio.png").exists()
    read_png(tmp_path / "lil_ratio.png")


def _seed_edit(text):
    return {"seed: 4242": text}


def _plan_edit(text):
    return {"  s: 1.0": text}


def _normalization_edit(text):
    return {"harness: eisenbaum": "harness: normalization", "  s: 1.0": text}


@pytest.mark.parametrize("edits,extra,message", [
    (None, ["--seed", "-3"], None),
    (_seed_edit("seed: 4242\nworkers: -2"), [], None),
    (None, ["--workers", "-2"], None),
    (_plan_edit("  s: 1.0\n  z_max: -1"), [], None),
    (_plan_edit("  s: 1.0\n  z_max: 0"), [], None),
    (_plan_edit("  s: 1.0\n  z_max: .inf"), [], None),
    (_seed_edit("seed: -3"), [], None),
    (_plan_edit("  s: abc"), [], None),
    (_seed_edit("seed: abc"), [], None),
    (None, ["--replicates", "0"], None),
    # list-typed keys given a scalar or a string
    ({"  test_points: [-1, 0, 1]": "  test_points: 5"}, [],
     "plan.test_points: expected a list"),
    ({"  test_points: [-1, 0, 1]": '  test_points: "-1"'}, [],
     "plan.test_points: expected a list"),
    (_plan_edit("  s: 1.0\n  laplace_probes: [1.0, 2.0]"), [],
     "plan.laplace_probes[0]: expected a list"),
    (_plan_edit("  s: 1.0\n  laplace_probes: 5"), [],
     "plan.laplace_probes: expected a list"),
    (_plan_edit("  s: 1.0\n  moment_orders: 5"), [],
     "plan.moment_orders: expected a list"),
    ({"harness: eisenbaum": "harness: reduction",
      "  s: 1.0": "  scales: 0.25"}, [], "plan.scales: expected a list"),
    ({"harness: eisenbaum": "harness: modulus-uniform",
      "  s: 1.0": "  scales: [0.25]\n  interval: 5"}, [],
     "plan.interval: expected a list"),
    ({"  states: [-1, 0, 1]": "  states: 5"}, [],
     "chain.states: expected a list"),
    ({"  kind: path": "  kind: explicit", "  rate: 1.0": "  rates: 5"}, [],
     "chain.rates: expected a list"),
    # non-finite and non-integral numbers
    (_normalization_edit("  p: .nan"), [], "plan.p: expected a finite"),
    (_normalization_edit("  p: .inf"), [], "plan.p: expected a finite"),
    (dict(_normalization_edit("  p: 1.0"),
          **{"  kill_rate: 1.0": "  kill_rate: .nan"}), [],
     "chain.kill_rate: expected a finite"),
    (_plan_edit("  s: .nan"), [], "plan.s: expected a finite"),
    ({"  kill_rate: 1.0": "  kill_rate: .inf"}, [],
     "chain.kill_rate: expected a finite"),
    ({"  measure: 1.0": "  measure: .nan"}, [],
     "chain.measure: expected a finite"),
    ({"mu: {1: 1.0}": "mu: {1: .nan}"}, [], "mu.1: expected a finite"),
    (_seed_edit("seed: 4242.5"), [], "seed: expected an integer"),
    (_plan_edit("  s: 1.0\n  laplace_probes: [[.nan, 1.0, 1.0]]"), [],
     "plan.laplace_probes[0]: expected a finite"),
    (_plan_edit("  s: 1.0\n  moment_orders: [1, 2.5]"), [],
     "plan.moment_orders[1]: expected an integer"),
    ({"  replicates: 10000": "  replicates: 10000.7"}, [],
     "plan.replicates: expected an integer"),
    # wrong-typed keys
    ({"  measure: 1.0": "  measure: [1, 2, 3]"}, [],
     "chain.measure: expected a number or a mapping"),
    ({"harness: eisenbaum": "harness: [eisenbaum]"}, [],
     "harness: unknown id"),
], ids=["cli-seed", "yaml-workers", "cli-workers", "z-max-negative",
        "z-max-zero", "z-max-inf", "yaml-seed", "plan-s-not-a-number",
        "yaml-seed-not-a-number", "cli-replicates-zero",
        "test-points-scalar", "test-points-string", "laplace-probe-scalar",
        "laplace-probes-scalar", "moment-orders-scalar", "scales-scalar",
        "interval-scalar", "chain-states-scalar", "chain-rates-scalar",
        "normalization-p-nan", "normalization-p-inf",
        "normalization-kill-rate-nan", "plan-s-nan", "kill-rate-inf",
        "measure-nan", "mu-weight-nan", "seed-fractional",
        "laplace-probe-nan", "moment-order-fractional",
        "replicates-fractional", "measure-list", "harness-list"])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, edits, extra,
                                         message):
    text = SMALL_EISENBAUM
    for old, new in (edits or {}).items():
        assert old in text
        text = text.replace(old, new)
    cfg_path = tmp_path / "e.yaml"
    cfg_path.write_text(text)
    capsys.readouterr()
    assert cli.main(["run", str(cfg_path), "--no-figures"] + extra) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert message is None or message in err[0], err


def _shipped(name):
    with open(os.path.join(CONFIG_DIR, f"{name}.yaml"), encoding="utf-8") as fh:
        return fh.read()


NO_MU = (r"^mu:.*\n", "")


@pytest.mark.parametrize("name,edit,message", [
    # defects are checked against the ones the harness declares
    ("first_rk", (r"^  r: 2$", "  r: 2\n  defect: wrong-covv"),
     "plan.defect: first-rk has no defect 'wrong-covv'"),
    ("eisenbaum", (r"^  s: 1.0$", "  s: 1.0\n  defect: wrong-cov"),
     "plan.defect: eisenbaum has no defect 'wrong-cov'"),
    ("first_rk", (r"^  r: 2$", "  r: 2\n  defect: single-life"),
     "plan.defect: first-rk has no defect 'single-life'"),
    ("lil", (r"^  stop: zero$", "  stop: zero\n  defect: unit-weights"),
     "plan.defect: lil has no defect 'unit-weights'"),
    ("first_rk", (r"^  r: 2$", "  r: 2\n  defect: [unit-weights]"),
     "plan.defect: first-rk has no defect ['unit-weights']"),
    # a harness that rebirths needs mu
    ("first_rk_cond", NO_MU, "a rebirth measure (mu)"),
    ("second_rk", NO_MU, "a rebirth measure (mu)"),
    ("second_rk_cond", NO_MU, "a rebirth measure (mu)"),
    ("tminus", NO_MU, "a rebirth measure (mu)"),
    ("reduction", NO_MU, "a rebirth measure (mu)"),
    ("modulus_local", NO_MU, "a rebirth measure (mu)"),
    # unhashable state labels
    ("first_rk", (r"^start: -1$", "start: [1]"), "unknown state label [1]"),
    ("first_rk", (r"^start: -1$", "start: {a: 1}"),
     "unknown state label {'a': 1}"),
    ("first_rk", (r"^  test_points: .*$", "  test_points: [[1]]"),
     "unknown state label [1]"),
    ("modulus_local", (r"^  d: 256$", "  d: [256]"),
     "unknown state label [256]"),
    # the uniform modulus window is two finite numbers
    ("modulus_uniform", (r"^  interval: .*$", "  interval: [0.75]"),
     "plan.interval: expected two numbers"),
    ("modulus_uniform", (r"^  interval: .*$", "  interval: [a, b]"),
     "plan.interval: expected a finite number, got 'a'"),
    ("modulus_uniform", (r"^  interval: .*$", "  interval: [0.25, .inf]"),
     "plan.interval: expected a finite number, got inf"),
    # moments outside {1, 2} would drop rows silently
    ("first_rk", (r"^  r: 2$", "  r: 2\n  moment_orders: [-1, 0]"),
     "moment_orders must be a nonempty list of 1 and 2"),
    ("first_rk", (r"^  r: 2$", "  r: 2\n  moment_orders: []"),
     "moment_orders must be a nonempty list of 1 and 2"),
    # a sweep needs its scales
    ("lil", (r"^  scales: .*$", "  scales: []"), "sweeps need a scales list"),
    # two copies of a test point would share one recorded column
    ("normalization", (r"^  test_points: .*$", "  test_points: [-1, -1, 1]"),
     "test_points must be distinct states"),
], ids=["defect-misspelt", "defect-undeclared", "defect-of-reduction",
        "defect-on-sweep", "defect-list", "first-rk-cond-no-mu",
        "second-rk-no-mu", "second-rk-cond-no-mu", "tminus-no-mu",
        "reduction-no-mu", "modulus-local-no-mu", "start-list",
        "start-mapping", "test-point-list", "centre-list",
        "interval-one-number", "interval-strings", "interval-inf",
        "moment-orders-outside", "moment-orders-empty", "sweep-scales-empty",
        "test-points-repeated"])
def test_bad_shipped_config_exits_2(tmp_path, capsys, name, edit, message):
    text, count = re.subn(edit[0], edit[1], _shipped(name), flags=re.M)
    assert count == 1
    cfg_path = tmp_path / f"{name}.yaml"
    cfg_path.write_text(text)
    capsys.readouterr()
    assert cli.main(["run", str(cfg_path), "--no-figures",
                     "--output", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert message in err[0], err
    assert not (tmp_path / "r.json").exists()


def test_self_test_expects_fail_from_defects(tmp_path, monkeypatch, capsys):
    out = tmp_path / "clean.json"
    clean = SMALL_EISENBAUM + f"output: {out}\n"
    defect = SMALL_EISENBAUM.replace("  s: 1.0",
                                     "  s: 1.0\n  defect: unit-weights")
    (tmp_path / "a.yaml").write_text(clean)
    (tmp_path / "b.yaml").write_text(defect)
    monkeypatch.setattr(cli, "CONFIGS", str(tmp_path))
    assert cli.main(["self-test"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("self-test a ") and " PASS " in lines[0]
    assert lines[1].startswith("self-test b ") and " FAIL " in lines[1]
    assert not out.exists()  # the self test writes no report
    # a defect that passes, and a clean config that fails, are both misses
    (tmp_path / "b.yaml").write_text(
        defect.replace("  s: 1.0", "  s: 1.0\n  z_max: 1000000.0"))
    assert cli.main(["self-test"]) == 1
    (tmp_path / "b.yaml").write_text(clean.replace(
        "  s: 1.0", "  s: 1.0\n  z_max: 0.000001"))
    assert cli.main(["self-test"]) == 1
    monkeypatch.setattr(cli, "CONFIGS", str(tmp_path / "missing"))
    assert cli.main(["self-test"]) == 2


def test_dump_potentials_bad_p_exits_2(tmp_path, capsys):
    # a sweep's plan never parses p, so dump-potentials checks it itself
    text, count = re.subn(r"^  stop: zero$", "  stop: zero\n  p: abc",
                          _shipped("lil"), flags=re.M)
    assert count == 1
    cfg_path = tmp_path / "lil.yaml"
    cfg_path.write_text(text)
    capsys.readouterr()
    assert cli.main(["dump-potentials", str(cfg_path), "--output",
                     str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: plan.p: expected a finite number, got 'abc'"], err
    assert not list(tmp_path.glob("*.csv"))
