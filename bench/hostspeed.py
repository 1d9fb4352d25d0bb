"""Speed of the host's cores, sampled while jobs run on them.

The benchmark shares a few cores of a host with other tenants, whose load
changes the speed of each core by a third or more for seconds to minutes at
a time, and differently on different cores. A job's raw time follows that
load. A `SpeedProbe` runs a fixed pure-Python loop for about a millisecond
on each of the cores the jobs are pinned to, every PERIOD_S, and records the
CPU time (`time.thread_time`) the loop took. CPU time leaves out the time the
probe waits for a job on its core, so it measures only how fast the core
runs. A job's time divided by `factor(cpus, start, end)`, the median probe
time over the job's cores and run divided by REFERENCE_S, is its time on a
core of reference speed.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

LOOP = 20_000
PERIOD_S = 0.05  # one probe per core per period: about 3 % of a core
# the probe loop's CPU time on an uncontended core of the 2-core Xeon host
# the benchmark was tuned on (CPython 3.11); the unit the times are scaled to
REFERENCE_S = 0.001


def _probe_loop() -> int:
    acc = 0
    for i in range(LOOP):
        acc ^= (i * i) & 0xFF
    return acc


class SpeedProbe:
    """Round-robin probe samples on `cpus`, from a thread of this process."""

    def __init__(self, cpus: list[int]):
        self.cpus = cpus
        self.samples: dict[int, list[tuple[float, float]]] = {cpu: [] for cpu in cpus}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        while not all(self.samples.values()):  # a sample on every core before any job
            if not self._thread.is_alive():
                raise RuntimeError(f"the speed probe could not run on cpus {self.cpus}")
            time.sleep(PERIOD_S / 10)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.is_set():
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})  # this thread only
                start = time.thread_time()
                _probe_loop()
                self.samples[cpu].append((time.perf_counter(), time.thread_time() - start))
                if self._stop.wait(PERIOD_S / len(self.cpus)):
                    return

    def factor(self, cpus: list[int], start: float, end: float) -> float:
        """Median probe time over [start, end] relative to REFERENCE_S, averaged
        over cpus; a window too short to hold a sample takes the nearest one."""
        per_cpu = []
        for cpu in cpus:
            samples = list(self.samples[cpu])
            if not samples:
                raise RuntimeError(f"the speed probe took no sample on cpu {cpu}")
            window = [dt for t, dt in samples if start <= t <= end]
            if not window:
                middle = (start + end) / 2
                window = [min(samples, key=lambda s: abs(s[0] - middle))[1]]
            per_cpu.append(statistics.median(window))
        return statistics.fmean(per_cpu) / REFERENCE_S
