"""Host-speed calibration: a fixed reference computation sampled during a pass.

The benchmark shares a host with other tenants whose load changes the speed
of the CPU it gets by 20-40 % in phases of seconds to minutes, for every
kind of code alike (cache and core contention, not only time stolen from
the process).  A time measured on that host says as much about the
neighbours as about the program.  So while a pass runs, a timer interrupts it
every ``INTERVAL_S`` and times ``reference_work``, a fixed computation of the
same kinds as rklab's (lockstep numpy rounds with fancy indexing, an
interpreted loop, dense products and Cholesky factors) that never changes
with the program.  The pass's time is scaled by ``REFERENCE_S`` over the mean
sample: the time the pass would have taken on a host where
``reference_work`` takes ``REFERENCE_S``.  The timer fires at a fixed rate
in wall time, so slow phases get as many samples per second as fast ones,
and the mean sample is the mean slowdown over the pass.  The time spent in
the samples themselves is excluded from the pass's time.

``reference_work`` uses its own generator and preallocated arrays, touches
nothing of rklab, and allocates little, so the reports and the peak memory of
a pass do not depend on when the timer fires.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.2
# Median duration of reference_work on the 2-vCPU Xeon host the baseline was
# measured on; it only fixes the scale of the results.
REFERENCE_S = 0.0156

_SEED = 12345
_LANES = 2048
_STATES = 32
_ROUNDS = 80
_LOOP = 20_000
_DENSE = 4
_rng = np.random.default_rng(_SEED)
_START = _rng.integers(0, _STATES, _LANES)
_A = _rng.random((192, 192))
_B = _rng.random((192, 192))
_COV = np.cov(_rng.random((400, 256)).T) + np.eye(256)
_field = np.zeros((_LANES, _STATES))
_state = np.zeros(_LANES, dtype=np.int64)
_alive = np.ones(_LANES, dtype=bool)


def reference_work():
    """The fixed computation whose duration measures the host's speed."""
    rng = np.random.default_rng(_SEED)
    _field.fill(0.0)
    _state[:] = _START
    _alive.fill(True)
    for _ in range(_ROUNDS):
        idx = np.nonzero(_alive)[0]
        s = _state[idx]
        _field[idx, s] += rng.standard_exponential(idx.size)
        u = rng.random(idx.size)
        _state[idx] = (s + np.where(u < 0.5, 1, -1)) % _STATES
        _alive[idx[u > 0.995]] = False
        np.minimum.at(_state, idx[:64], 0)
    for _ in range(_DENSE):
        _A @ _B
        np.linalg.cholesky(_COV)
    total = 0
    for i in range(_LOOP):
        total += i * i % 7
    return float(_field.sum()) + total


class Sampler:
    """Times ``reference_work`` every ``INTERVAL_S`` of wall time while active.

    ``stop()`` returns the program's own time since ``start()`` (samples
    excluded) and that time at reference speed.  Samples run from a SIGALRM
    handler, so they land between two bytecodes of the main thread, after
    any C call in progress has returned.
    """

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples = []
        self.cpu_s = 0.0       # CPU time of the samples

    def sample(self):
        t0 = time.perf_counter()
        c0 = time.process_time()
        reference_work()
        self.samples.append(time.perf_counter() - t0)
        self.cpu_s += time.process_time() - c0

    def _handler(self, signum, frame):
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def stop(self):
        own = time.perf_counter() - self._start - sum(self.samples)
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()   # at least one, and one right after the last stretch
        return own, own * REFERENCE_S / (sum(self.samples) / len(self.samples))
