"""One pass of a workload in a fresh interpreter: set up, run every job, report.

Started by run.py, never by hand.  It imports ``rklab`` from the checkout's
``src/``, parses and validates every config of the workload, then runs each
through ``cli.execute`` exactly as ``rklab run <config> --no-figures`` would,
with the report written under ``--outdir``.  It prints one JSON line: the
set-up time since the parent spawned it, the wall time from the first job's
start to the last verdict, CPU time over the same window, peak RSS, and each
job's exit code or exception.  Untraced, it also gives both times at the
reference host speed (calib.py): set-up scaled by reference samples taken
right after it, the job window by samples taken during it.  With ``--trace``
it also reports the per-layer span summary and writes the spans to
``spans.json`` in ``--outdir``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import calib
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_CALIB_SAMPLES = 5


def _cpu_s():
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def _openblas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent at spawn")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import rklab

    if Path(rklab.__file__).resolve().parent != ROOT / "src" / "rklab":
        raise SystemExit(f"imported rklab from {rklab.__file__}, "
                         f"not from {ROOT / 'src'}")
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install("rklab")
    from rklab import cli, config

    outdir = Path(args.outdir)
    jobs = WORKLOADS[args.workload]
    cfgs = []
    for job in jobs:
        cfg = config.load_config(ROOT / job.config)
        cfg.seed = args.seed
        cfg.workers = 1
        cfg.figures = False
        if job.replicates is not None:
            cfg.plan["replicates"] = job.replicates
        cfg.output = str(outdir / f"{job.name}.json")
        cfgs.append(cfg)
    # time.monotonic() is CLOCK_MONOTONIC, shared by all processes on Linux
    result = {"setup_s": time.monotonic() - args.spawned}
    if not args.trace:
        samples = []
        for _ in range(SETUP_CALIB_SAMPLES):
            t = time.perf_counter()
            calib.reference_work()
            samples.append(time.perf_counter() - t)
        samples.sort()
        result["setup_ref_s"] = (result["setup_s"] * calib.REFERENCE_S
                                 / samples[len(samples) // 2])
    if args.setup_only:
        print(json.dumps(result))
        return 0

    outcomes = []
    sampler = None if args.trace else calib.Sampler()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    if sampler is not None:
        sampler.start()
    for job, cfg in zip(jobs, cfgs):
        code, error = None, None
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.execute(cfg)
            except Exception as exc:  # a raising job is a failed job
                error = f"{type(exc).__name__}: {exc}"
        outcomes.append({"job": job.name, "code": code, "error": error,
                         "seconds": time.perf_counter() - start})
    if sampler is None:
        t1 = time.perf_counter()
        wall_s = t1 - t0
    else:
        wall_s, wall_ref_s = sampler.stop()
        result.update(wall_ref_s=wall_ref_s, calib_samples=sampler.samples)
    result.update(
        wall_s=wall_s,
        cpu_s=_cpu_s() - cpu0 - (0 if sampler is None else sampler.cpu_s),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        openblas_threads=_openblas_threads(),
        jobs=outcomes,
    )
    if tracer is not None:
        metrics, self_s = tracer.summary(t0, t1, tracer.span_cost())
        result.update(layers=metrics, self_s=self_s)
        tracer.dump(outdir / "spans.json", t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
