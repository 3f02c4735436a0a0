"""Host-speed sampling, so timings do not follow the machine's contention.

On the small shared machines this benchmark was built on (2 vCPUs, Python
3.11, NumPy 2.4) the same code runs at speeds up to 1.6x apart, switching
every few seconds to tens of seconds, with no correlation between the two
vCPUs: contention from outside the machine that no setting inside it
controls.  ``HostSpeed`` samples the speed of the measuring thread itself:
every ``interval_s`` a SIGALRM handler times a fixed probe that uses no
polygreen code, and each slice of the measured interval is rescaled by
``ref_s / (probe time at the slice's end)``.  A normalised second is a
second at probe time ``ref_s``.  The probes' own time is left out of both
raw and normalised seconds.  Only stdlib modules are imported at the top,
so set-up can be sampled from before the first import of NumPy.
"""

from __future__ import annotations

import signal
import time

# Each probe's time as measured inside runs while the host ran at full
# speed; with these, normalised and raw seconds roughly agree in the host's
# fast phases.
PYTHON_REF_S = 6.0e-5
MIXED_REF_S = 2.2e-4
ARRAY_REF_S = 2.0e-4
_ARRAYS = {}


def _array(size: int):
    import numpy as np

    if size not in _ARRAYS:
        _ARRAYS[size] = np.random.default_rng(0).random(size)
    return _ARRAYS[size]


def python_probe() -> float:
    """A pure-Python loop, for set-up (imports are interpreter work)."""
    start = time.perf_counter()
    acc = 0
    for j in range(1000):
        acc += j * j
    return time.perf_counter() - start


def mixed_probe() -> float:
    """A pure-Python loop plus small-array NumPy calls: code that runs
    thousands of kernel calls on tiny arrays."""
    import numpy as np

    small = _array(2000)
    start = time.perf_counter()
    acc = 0
    for j in range(1000):
        acc += j * j
    for j in range(30):
        np.sqrt(np.arange(50.0) + j).sum()
    np.exp(np.sin(small)).sum()
    return time.perf_counter() - start


def array_probe() -> float:
    """Elementwise NumPy over a 256 KiB array, little Python: code whose time
    goes into whole-grid array passes."""
    import numpy as np

    big = _array(32768)
    start = time.perf_counter()
    np.exp(np.sqrt(big)).sum()
    acc = 0
    for j in range(300):
        acc += j * j
    return time.perf_counter() - start


class HostSpeed:
    """Context manager: raw and host-speed-normalised seconds of its body.

    Main thread only (signal handlers run there).  ``seconds()`` returns
    (raw seconds, normalised seconds), both without the probes' time.
    """

    def __init__(self, probe, ref_s: float, interval_s: float = 0.05):
        self.probe, self.ref_s, self.interval_s = probe, ref_s, interval_s
        self.samples: list[tuple[float, float]] = []

    def _on_alarm(self, signum, frame):
        self.samples.append((time.perf_counter(), self.probe()))

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append((self.end, self.probe()))   # speed at the end of the last slice
        return False

    def seconds(self) -> tuple[float, float]:
        raw = norm = 0.0
        prev = self.start
        for t0, dt in self.samples:
            seg = max(min(t0, self.end) - prev, 0.0)
            raw += seg
            norm += seg * self.ref_s / dt
            prev = t0 + dt
        return raw, norm
