"""Core-speed probe: how fast a core ran while a timed phase used it.

    python3 perfbench/probe.py CPU OUT

The benchmark shares its cores with other tenants of the machine, and a
core's speed swings by up to 3x within seconds (caches and hyperthread
siblings taken by neighbours) without any of it showing as steal time,
so a run's wall time swings with it. This process pins itself to CPU,
and every ``PERIOD_S`` times one fixed chunk of interpreter work --
hashing, string methods and dict inserts, the program's own kind of
work -- and appends ``<perf_counter> <chunk seconds>`` to OUT.
``perf_counter`` is CLOCK_MONOTONIC, the same clock in every process.

The host (``host.py``) starts one probe per core a pipeline run uses,
and ``run.py`` one for the feed server's launch. The mean chunk time
over a timed phase is what reference work cost on those cores
meanwhile; the benchmark's ``setup_s`` and ``run_s`` scale the phase's
wall time by ``REF_CHUNK_S`` over that mean, which cancels most of the
swing. The chunk is short (about 0.3 ms) so that it ends within the
head start the scheduler gives a task that wakes from sleep: chunks of
1-3 ms were cut by the run's time slices, more often the slower the
core, and over-read slow spells.
A probe takes about 2% of its core.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Seconds between the end of one chunk and the start of the next.
PERIOD_S = 0.02
#: Sets the scale of the scaled times only: about the chunk's time on an
#: idle core of the 2-vCPU Xeon VM the bounds were set on, in its fast
#: spells.
REF_CHUNK_S = 0.0003
#: Seconds a new probe may take to write its first sample.
START_TIMEOUT_S = 10.0

_KEYS = [f"k{i * 7919 % 10007}" for i in range(400)]


def chunk() -> float:
    started = time.perf_counter()
    table = {}
    for key in _KEYS:
        table[key] = hashlib.md5(key.encode()).digest()[0] + len(key.upper())
    return time.perf_counter() - started


#: ``prctl`` option: the signal this process gets when its parent ends.
PR_SET_PDEATHSIG = 1


def die_with_parent() -> None:
    """Have the kernel kill this process when its parent ends, however it ends."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    if prctl(PR_SET_PDEATHSIG, int(signal.SIGKILL)) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")


def main() -> int:
    cpu, out = int(sys.argv[1]), sys.argv[2]
    die_with_parent()
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    with open(out, "w", buffering=1) as handle:
        while os.getppid() == parent:
            took = chunk()
            handle.write(f"{time.perf_counter()!r} {took!r}\n")
            time.sleep(PERIOD_S)
    return 0


class SpeedProbe:
    """Probe processes on ``cpus``, from start until ``stop``."""

    def __init__(self, cpus: list[int], directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self.paths = [directory / f"probe-cpu{cpu}.txt" for cpu in cpus]
        self.processes = []
        for cpu, path in zip(cpus, self.paths):
            path.unlink(missing_ok=True)
            self.processes.append(
                subprocess.Popen([sys.executable, __file__, str(cpu), str(path)])
            )
        deadline = time.perf_counter() + START_TIMEOUT_S
        while not all(path.is_file() and path.stat().st_size for path in self.paths):
            if time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("speed probe did not start")
            time.sleep(0.01)

    def stop(self) -> None:
        for process in self.processes:
            if process.poll() is None:
                process.kill()
            process.wait()

    def mean_chunk_s(self, started: float, finished: float) -> float:
        """Mean chunk time over the samples taken between two perf_counter readings."""
        samples = []
        for path in self.paths:
            for line in path.read_text().splitlines():
                at, took = map(float, line.split())
                if started <= at <= finished:
                    samples.append(took)
        if not samples:
            raise RuntimeError("no speed-probe samples within the run")
        return statistics.fmean(samples)


if __name__ == "__main__":
    sys.exit(main())
