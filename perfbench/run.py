"""rklab benchmark: time to verdict on fixed workloads, with a traced breakdown.

Run from the root of an rklab checkout:

    python3 perfbench/run.py --workload identities --seed 1 --seconds 30 --trace 0

Each pass of a workload runs in a fresh single-threaded interpreter
(job.py).  An untraced run (``--trace 0``) makes ``--seconds`` worth of
passes (at least two), each at its own seed derived from ``--seed``, plus
set-up-only starts, and prints the medians of ``wall_s``, ``setup_s`` (both
scaled to the reference host speed, see calib.py) and ``peak_rss_mb``.  A
traced run (``--trace 1``) makes one untraced and one traced pass at
``--seed`` itself and prints the per-layer metrics, the self-time table and
the tracing overhead.  Every job's report is checked (exit code, strict
JSON, finite sweep ratios) and its sha256 compared with every earlier run of
the same code at the same seed.  The last line of
standard output is the JSON result; README.md defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import DEFAULT_SEED, REQUIRED, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
PASS_TIMEOUT_S = 150
MIN_PASSES = 2
DEFAULT_SECONDS = 30
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def pass_seed(seed, k):
    """Config seed of pass k: the run's own seed first, then derived ones."""
    if k == 0:
        return seed
    digest = hashlib.sha256(f"{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def run_pass(workload, seed, outdir, trace=False, setup_only=False):
    outdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload,
           "--seed", str(seed), "--outdir", str(outdir)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **SINGLE_THREAD)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env,
                              capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def check_jobs(workload, seed, outcome, outdir, digests):
    """Failures of one pass, one message per failed job; reads the reports
    and records or compares each job's report digest in ``digests``."""
    failures, reports = [], {}
    for job, ran in zip(WORKLOADS[workload], outcome["jobs"]):
        if ran["error"] is not None:
            failures.append(f"{job.name}: raised {ran['error']}")
            continue
        if ran["code"] != job.expect:
            failures.append(f"{job.name}: exit {ran['code']}, "
                            f"expected {job.expect}")
            continue
        data = (outdir / f"{job.name}.json").read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        print(f"report {job.name} seed={seed} exit={ran['code']} "
              f"seconds={ran['seconds']:.4f} sha256={digest}")
        try:
            doc = json.loads(data, parse_constant=_reject_constant)
        except ValueError as exc:
            failures.append(f"{job.name}: report is not strict JSON ({exc})")
            continue
        if not all(math.isfinite(r) for r in doc.get("ratios", ())):
            failures.append(f"{job.name}: non-finite sweep ratio")
            continue
        known = digests.setdefault(f"{job.name}@{seed}", digest)
        if known != digest:
            failures.append(f"{job.name}: report sha256 {digest} differs from "
                            f"{known} of an earlier run at seed {seed}")
            continue
        reports[job.name] = doc
    for msg in failures:
        print(f"FAILED {msg}", file=sys.stderr)
    return failures, reports


def code_digest(root):
    """sha256 of the program and the configs it runs: runs with equal digests
    ran the same code, so their reports must be byte-identical."""
    h = hashlib.sha256()
    files = sorted([*(root / "src" / "rklab").rglob("*.py"),
                    *(root / "configs").glob("*.yaml"), *HERE.glob("*.yaml")])
    for path in files:
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    h.update(importlib.metadata.version("numpy").encode())
    return h.hexdigest()


def environment(root, seed, code):
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "commit": commit,
        "code_sha256": code,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "env_threads": SINGLE_THREAD,
        "workers": 1,
        "seed": seed,
    }


def report_metrics(reports):
    """Metrics read from the reports: least ESS of any importance-weighted
    comparison (0 when there is none) and the conditioned share of attempted
    lanes over conditioned ensembles (1 when nothing is conditioned)."""
    ess = [doc["ess"] for doc in reports.values() if doc.get("ess") is not None]
    kept = attempted = 0.0
    for doc in reports.values():
        frac = doc.get("metadata", {}).get("conditioned_fraction")
        if frac:
            kept += doc["n_lhs"]
            attempted += doc["n_lhs"] / frac
    return {"stats.ess_min": min(ess, default=0.0),
            "harnesses.conditioned_frac": kept / attempted if attempted else 1.0}


def timed_run(workload, seed, seconds, tmp, digests):
    walls, raw_walls, setups, rss, failures, attempted = [], [], [], [], [], 0
    start = time.monotonic()
    k = 0
    # Passes until the next one would end after --seconds, and at least
    # MIN_PASSES; set-up-only starts spread over the run like the passes.
    while True:
        s = pass_seed(seed, k)
        outdir = tmp / f"pass{k}"
        began = time.monotonic()
        out = run_pass(workload, s, outdir)
        took = time.monotonic() - began
        attempted += len(out["jobs"])
        failures += check_jobs(workload, s, out, outdir, digests)[0]
        walls.append(out["wall_ref_s"])
        raw_walls.append(out["wall_s"])
        setups.append(out["setup_ref_s"])
        rss.append(out["peak_rss_mb"])
        cal = out["calib_samples"]
        print(f"pass {k} seed={s} wall_s={out['wall_ref_s']:.4f} "
              f"raw_wall_s={out['wall_s']:.4f} "
              f"setup_s={out['setup_ref_s']:.4f} "
              f"raw_setup_s={out['setup_s']:.4f} "
              f"calib_mean_s={statistics.fmean(cal):.5f} "
              f"calib_samples={len(cal)} "
              f"peak_rss_mb={out['peak_rss_mb']:.1f} "
              f"openblas_threads={out['openblas_threads']}")
        k += 1
        done = k >= MIN_PASSES and time.monotonic() - start + took > seconds
        while len(setups) < SETUP_SAMPLES and (
                done or time.monotonic() - start >= seconds * len(setups)
                / SETUP_SAMPLES):
            setups.append(run_pass(workload, seed, tmp / "setup",
                                   setup_only=True)["setup_ref_s"])
        if done:
            break
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    print(f"raw wall_s median: {statistics.median(raw_walls):.4f}")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    return metrics, attempted, failures


def _unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("gflop"):
        return "Gflop"
    return "count"


def traced_run(workload, seed, tmp, digests):
    plain_dir, traced_dir = tmp / "plain", tmp / "traced"
    plain = run_pass(workload, seed, plain_dir)
    failures = check_jobs(workload, seed, plain, plain_dir, digests)[0]
    traced = run_pass(workload, seed, traced_dir, trace=True)
    more, reports = check_jobs(workload, seed, traced, traced_dir, digests)
    failures += more
    layers = dict(traced["layers"])
    layers.update(report_metrics(reports))
    layers["proc.cpu_s"] = plain["cpu_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    missing = [m for m in REQUIRED[workload] if not layers[m]]
    if missing:
        raise BenchError(f"traced {workload} run recorded no work for "
                         f"{', '.join(missing)}: a layer it must use is not "
                         "traced (renamed or bypassed?)")
    shutil.copy(traced_dir / "spans.json",
                tmp.parent / f"spans-{workload}-{seed}.json")
    print(f"untraced wall_s={plain['wall_s']:.4f}  "
          f"traced wall_s={traced['wall_s']:.4f}  "
          f"overhead_s={layers['trace.overhead_s']:.4f}")
    print("self time by layer (s):")
    for layer, value in sorted(traced["self_s"].items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<12} {value:10.4f}")
    print(f"  {'(untraced)':<12} {layers['trace.untraced_s']:10.4f}")
    print(f"  {'= wall':<12} {traced['wall_s']:10.4f}")
    for name, value in layers.items():
        print(f"{name} = {value:.6g}")
    metrics = {name: (value, _unit(name)) for name, value in layers.items()}
    return metrics, len(plain["jobs"]) + len(traced["jobs"]), failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    root = HERE.parent
    if not (root / "src" / "rklab" / "__init__.py").is_file():
        print(f"perfbench: {root / 'src' / 'rklab'} not found; perfbench/ "
              "must sit at the root of an rklab checkout", file=sys.stderr)
        return 2

    out = root / ".perfbench_out"
    code = code_digest(root)
    record = out / "digests" / f"{code}-{args.workload}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    digests = json.loads(record.read_text()) if record.exists() else {}
    print("env " + json.dumps(environment(root, args.seed, code)))
    tmp = Path(tempfile.mkdtemp(dir=out))
    try:
        if args.trace:
            metrics, attempted, failures = traced_run(args.workload, args.seed,
                                                      tmp, digests)
        else:
            metrics, attempted, failures = timed_run(
                args.workload, args.seed, args.seconds, tmp, digests)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp)
    record.write_text(json.dumps(digests, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
