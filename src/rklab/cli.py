"""Command line: run experiments, suites, kernel dumps and the self test.

Exit codes: 0 all verdicts pass, 1 statistical failure, 2 configuration or
runtime error.  ``--seed``, ``--replicates`` and ``--workers`` override the
config; the worker count never changes the numbers in a report.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
import time

from . import diagnostics
from .chains import (
    hitting_profile,
    killed_at_zero_potential,
    potential_matrix,
    rebirthed_potential,
)
from .config import (
    SWEEP_HARNESSES,
    ExperimentConfig,
    check_seed,
    check_workers,
    load_config,
)
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


def _check_output_dir(path):
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise RKLabError(f"output directory {parent!r} does not exist")


def execute(cfg: ExperimentConfig) -> int:
    """Dispatch one configuration to its harness and emit the reports."""
    t_start = time.perf_counter()
    if cfg.output:
        _check_output_dir(cfg.output)
    if cfg.harness in SWEEP_HARNESSES:
        sweep_fn = {
            "modulus-local": diagnostics.local_modulus_sweep,
            "modulus-uniform": diagnostics.uniform_modulus_sweep,
            "lil": diagnostics.lil_sweep,
        }[cfg.harness]
        sweep = sweep_fn(cfg.sweep_config())
        print(sweep_table(sweep))
        if cfg.output:
            write_sweep_json(sweep, cfg.output)
            stem, _ = os.path.splitext(cfg.output)
            write_sweep_csv(sweep, stem + ".csv")
            if cfg.figures:
                render_sweep_figure(sweep, cfg.output)
        log.info("%s seed=%d replicates=%d wall=%.1fs", cfg.harness,
                 cfg.seed, sweep.replicates, time.perf_counter() - t_start)
        return EXIT_PASS  # sweeps are informational
    if cfg.harness == "reduction":
        report = diagnostics.reduction_identity_test(cfg.test_plan(),
                                                     cfg.scales())
    else:
        report = REGISTRY[cfg.harness](cfg.test_plan())
    print(report_table(report))
    if cfg.output:
        write_report_json(report, cfg.output)
        if cfg.figures:
            render_report_figure(report, cfg.output)
    log.info("%s seed=%d N=%d wall=%.1fs", cfg.harness, cfg.seed,
             report.n_lhs, time.perf_counter() - t_start)
    return EXIT_PASS if report.verdict else EXIT_STAT_FAIL


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


def cmd_suite(args) -> int:
    paths = sorted(
        os.path.join(args.directory, p)
        for p in os.listdir(args.directory)
        if p.endswith((".yaml", ".yml"))
    )
    if not paths:
        raise RKLabError(f"no configs found in {args.directory!r}")
    worst = EXIT_PASS
    for path in paths:
        cfg = _apply_overrides(load_config(path), args)
        print(f"--- {path}")
        code = execute(cfg)
        worst = max(worst, code)
    return worst


def cmd_dump_potentials(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    outdir = args.output or "."
    if not os.path.isdir(outdir):
        raise RKLabError(f"output directory {outdir!r} does not exist")
    chain = cfg.chain
    p = float(cfg.plan.get("p", 1.0))
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
    from . import selftest

    if args.seed is not None:
        check_seed(args.seed)
    if args.workers is not None:
        check_workers(args.workers)
    return selftest.run(workers=args.workers or 1, seed=args.seed)


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
    dump_p.add_argument("--seed", type=int)
    dump_p.add_argument("--workers", type=int)
    dump_p.set_defaults(fn=cmd_dump_potentials)

    self_p = sub.add_parser("self-test",
                            help="run every harness on the reference chains")
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
