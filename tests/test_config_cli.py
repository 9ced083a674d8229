"""Configuration schema, CLI subcommands and exit codes."""

import glob
import json
import os

import pytest

from rklab import cli
from rklab.config import SWEEP_HARNESSES, load_config, parse_config
from rklab.errors import InvariantError, SchemaError
from rklab.harnesses import HARNESS_NUM, REGISTRY

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
    assert seen == set(HARNESS_NUM)  # every harness id is reachable


def test_registry_covers_all_ids():
    assert set(REGISTRY) | {"reduction"} | set(SWEEP_HARNESSES) \
        == set(HARNESS_NUM)


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
