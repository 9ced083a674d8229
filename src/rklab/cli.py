"""Command line: run experiments, suites, kernel dumps and the self test.

Exit codes: 0 all verdicts pass, 1 statistical failure, 2 configuration or
runtime error.  ``--seed``, ``--replicates`` and ``--workers`` override the
config where a command runs a harness; the worker count never changes the
numbers in a report.  ``dump-potentials`` writes deterministic kernel tables
and takes none of them.  The self test runs every shipped config
(``configs/*.yaml``) with its own plan and expects a FAIL exactly from those
that inject a ``plan.defect``.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
import time

from .chains import (
    hitting_profile,
    killed_at_zero_potential,
    potential_matrix,
    rebirthed_potential,
)
from .config import ExperimentConfig, _num, load_config
from .diagnostics import SweepResult
from .errors import RKLabError
from .harnesses import REGISTRY
from .reporting import (
    render_report_figure,
    render_sweep_figure,
    report_table,
    sweep_table,
    write_potentials_csv,
    write_report_json,
    write_sweep_csv,
    write_sweep_json,
)

log = logging.getLogger("rklab")

EXIT_PASS = 0
EXIT_STAT_FAIL = 1
EXIT_ERROR = 2

# the shipped configs of a source checkout, which the self test runs
CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       os.pardir, "configs")


def _check_output_dir(path):
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise RKLabError(f"output directory {parent!r} does not exist")


def execute(cfg: ExperimentConfig) -> int:
    """Run one configuration's harness and emit its reports."""
    t_start = time.perf_counter()
    if cfg.output:
        _check_output_dir(cfg.output)
    result = REGISTRY[cfg.harness](cfg.run_plan())
    if isinstance(result, SweepResult):
        print(sweep_table(result))
        if cfg.output:
            write_sweep_json(result, cfg.output)
            stem, _ = os.path.splitext(cfg.output)
            write_sweep_csv(result, stem + ".csv")
            if cfg.figures:
                render_sweep_figure(result, cfg.output)
        size = result.replicates
    else:
        print(report_table(result))
        if cfg.output:
            write_report_json(result, cfg.output)
            if cfg.figures:
                render_report_figure(result, cfg.output)
        size = result.n_lhs
    log.info("%s seed=%d N=%d wall=%.1fs", cfg.harness, cfg.seed, size,
             time.perf_counter() - t_start)
    return EXIT_PASS if result.verdict else EXIT_STAT_FAIL


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """The config with the command-line overrides, validated like a file."""
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if getattr(args, "replicates", None) is not None:
        changes["plan"] = dict(cfg.plan, replicates=args.replicates)
    if args.workers is not None:
        changes["workers"] = args.workers
    if getattr(args, "no_figures", False):
        changes["figures"] = False
    if getattr(args, "output", None):
        changes["output"] = args.output
    return dataclasses.replace(cfg, **changes)


def cmd_run(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    return execute(cfg)


def _configs(directory, args):
    """(path, config with the overrides) for every YAML file in
    ``directory``, in name order."""
    if not os.path.isdir(directory):
        raise RKLabError(f"config directory {directory!r} does not exist")
    paths = sorted(
        os.path.join(directory, p)
        for p in os.listdir(directory)
        if p.endswith((".yaml", ".yml"))
    )
    if not paths:
        raise RKLabError(f"no configs found in {directory!r}")
    for path in paths:
        yield path, _apply_overrides(load_config(path), args)


def cmd_suite(args) -> int:
    worst = EXIT_PASS
    for path, cfg in _configs(args.directory, args):
        print(f"--- {path}")
        worst = max(worst, execute(cfg))
    return worst


def cmd_dump_potentials(args) -> int:
    cfg = load_config(args.config)
    outdir = args.output or "."
    if not os.path.isdir(outdir):
        raise RKLabError(f"output directory {outdir!r} does not exist")
    chain = cfg.chain
    p = _num(cfg.plan.get("p", 1.0), "plan.p")
    u0 = potential_matrix(chain, 0.0)
    write_potentials_csv(u0, os.path.join(outdir, "u0.csv"))
    write_potentials_csv(potential_matrix(chain, p),
                         os.path.join(outdir, f"u_p{p:g}.csv"))
    if cfg.mu is not None:
        write_potentials_csv(rebirthed_potential(chain, cfg.mu, p),
                             os.path.join(outdir, f"w_p{p:g}.csv"))
    if chain.zero_accessible:
        write_potentials_csv(killed_at_zero_potential(u0),
                             os.path.join(outdir, "u_tilde0.csv"))
        prof = hitting_profile(u0)
        with open(os.path.join(outdir, "h.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("state,h\n")
            for x in chain.states:
                fh.write(f"{x},{prof.value(x)!r}\n")
    print(f"kernel tables written to {outdir}")
    return EXIT_PASS


def cmd_self_test(args) -> int:
    """One line per shipped config; exit 0 when each config without a
    defect passes and each config with one fails.  No report is written."""
    missed = 0
    t_start = time.perf_counter()
    for path, cfg in _configs(CONFIGS, args):
        t0 = time.perf_counter()
        result = REGISTRY[cfg.harness](cfg.run_plan())
        dt = time.perf_counter() - t0
        if isinstance(result, SweepResult):
            detail = f"finest median = {result.finest_median:.3g} (info)"
        else:
            detail = f"max |z| = {result.max_abs_z():.2f}"
        defect = cfg.plan.get("defect")
        if defect is not None:
            detail += f", FAIL expected under defect {defect}"
        missed += result.verdict != (defect is None)
        name = os.path.splitext(os.path.basename(path))[0]
        print(f"self-test {name:<16} {'PASS' if result.verdict else 'FAIL'}"
              f"  {detail}  [{dt:.1f}s]")
    print(f"self-test total wall time {time.perf_counter() - t_start:.1f}s")
    return EXIT_PASS if missed == 0 else EXIT_STAT_FAIL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rklab",
        description="Local-time identity verification lab for rebirthed "
                    "Markov chains",
    )
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("config")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--replicates", type=int)
    run_p.add_argument("--workers", type=int)
    run_p.add_argument("--output")
    run_p.add_argument("--no-figures", action="store_true")
    run_p.set_defaults(fn=cmd_run)

    suite_p = sub.add_parser("suite", help="run every config in a directory")
    suite_p.add_argument("directory")
    suite_p.add_argument("--seed", type=int)
    suite_p.add_argument("--replicates", type=int)
    suite_p.add_argument("--workers", type=int)
    suite_p.add_argument("--no-figures", action="store_true")
    suite_p.set_defaults(fn=cmd_suite)

    dump_p = sub.add_parser("dump-potentials",
                            help="write the exact kernel tables as CSV")
    dump_p.add_argument("config")
    dump_p.add_argument("--output")
    dump_p.set_defaults(fn=cmd_dump_potentials)

    self_p = sub.add_parser("self-test",
                            help="run every shipped config (configs/*.yaml) "
                                 "and check each verdict")
    self_p.add_argument("--seed", type=int)
    self_p.add_argument("--workers", type=int)
    self_p.set_defaults(fn=cmd_self_test)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.fn(args)
    except RKLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
