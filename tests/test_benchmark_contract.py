"""The benchmark's traced job runs on the current source.

The tracer in ``perfbench/`` reads ``FieldFactor.rank`` and ``.dim``, the
``factor`` and ``size`` arguments of ``sample_block`` and the public
``factor_covariance`` binding; a traced ``gauss-grid`` pass exercises all of
them, and every layer the workload requires must record work.
"""

import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_gauss_grid_job(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "job.py"), "--workload", "gauss-grid",
         "--trace", "--seed", str(workloads.DEFAULT_SEED),
         "--outdir", str(tmp_path), "--spawned", str(time.monotonic())],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert [(job["code"], job["error"]) for job in result["jobs"]] \
        == [(0, None)]
    missing = [name for name in workloads.REQUIRED["gauss-grid"]
               if not result["layers"][name]]
    assert not missing
