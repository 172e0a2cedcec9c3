"""Host speed correction for the benchmark's timings.

On a shared 2-core host the speed one process gets drifts by up to a
factor of two over seconds, in steps, as neighbours come and go; CPU time
drifts with it, so it is not steal. Raw wall times of identical work then
spread far wider than any useful regression bound. So, while the
benchmark times work, a timer signal makes the main thread run a short
fixed reference loop, independent of ssurb, every SAMPLE_EVERY seconds.
The loop is timed in thread CPU time, so a sample taken while pool
threads hold the interpreter lock still measures the host, not the lock.
A timed interval is scaled by REFERENCE_S over the mean of the samples
taken during it and the nearest one on each side: a timing reads as it
would on the host running at its reference speed. The CPU time spent
sampling is left out of every interval. Raw times and factors go to the
run's timings.json.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import signal
import statistics
import time

# Median of probe() on a 2-core 2.1 GHz host with CPython 3.11, in its
# usual (slower) speed state.
REFERENCE_S = 0.0033
SAMPLE_EVERY = 0.1


def _loop() -> float:
    """Thread CPU seconds one fixed loop of canonical JSON encoding and hashing takes."""
    start = time.thread_time()
    hasher = hashlib.sha256()
    table: dict = {}
    for i in range(400):
        record = {"type": "SEND", "step": i, "src": i % 5, "dst": 3, "kind": "MSG", "mid": [1, i]}
        table[(i % 7, i & 3)] = record
        hasher.update(json.dumps(record, sort_keys=True, separators=(",", ":")).encode())
    return time.thread_time() - start


def probe() -> float:
    """The host's current speed: the best of three timings of the reference
    loop, which drops a timing an interrupt or a collection lengthened."""
    return min(_loop() for _ in range(3))


class HostSpeed:
    """A timeline of speed samples and a clock that leaves out sampling time."""

    def __init__(self):
        self.times: list[float] = []  # perf_counter at each sample
        self.probes: list[float] = []
        self._sampling_s = 0.0
        self.sample()

    def sample(self, *_signal_args) -> None:
        self.times.append(time.perf_counter())
        start = time.thread_time()
        self.probes.append(probe())
        self._sampling_s += time.thread_time() - start

    def clock(self) -> float:
        """perf_counter minus the CPU time spent sampling so far."""
        return time.perf_counter() - self._sampling_s

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def factor(self, start: float, end: float) -> float:
        """Correction for the interval between two perf_counter readings."""
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = bisect.bisect_right(self.times, end) + 1
        return REFERENCE_S / statistics.mean(self.probes[lo:hi])


if __name__ == "__main__":
    samples = [probe() for _ in range(2000)]
    print(f"probe median {statistics.median(samples):.6f} s over {len(samples)} runs")
