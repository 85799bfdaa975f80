"""Host-speed reference for the benchmark's timings.

On the shared 2-vCPU host the benchmark was tuned on, wall times drift by a
quarter or more between 20-second windows, and by more between runs (see
CHANGES.md for raw and scaled spreads over the same seeds).  The cause is
the other tenants' load: a busy process's CPU time drifts with its wall
time.  A child process tracks that drift: it times a fixed pure-Python
probe every INTERVAL_S, with the garbage collector off, for as long as the
run lasts.  On that host, one-second medians of its probe times correlate
at 0.95 with the times of normal forms running beside it.

An operation's time is scaled by REFERENCE_S over the median probe time
within WINDOW_S of the operation, so the scaled times are what the host
would show while the probe takes REFERENCE_S.  The probe runs in its own
process and heap, so a change to the library moves the operation's time
and not the probe's, and shows in full.  The probe's time is its thread's
CPU time, so that it leaves out the time the child waits for a CPU while
one of the benchmark's own subprocesses (the library's import, the CLI, the
oracle) runs.

Run as a script, this file is the probing child: it probes until its
standard input closes, then prints the probe end times and durations as
JSON.
"""

from __future__ import annotations

import bisect
import gc
import json
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, thread_time

REFERENCE_S = 0.0016  # the child's median probe time on the host the benchmark was tuned on
INTERVAL_S = 0.05
WINDOW_S = 0.1


def probe() -> int:
    """Fixed work in the library's style: tuple keys, dict updates, a min."""
    table: dict[tuple[int, int, int], int] = {}
    for i in range(3000):
        key = (i % 97, i % 89, i & 7)
        table[key] = table.get(key, 0) + i
    return min(table.items())[1]


def probe_until_stdin_closes() -> None:
    gc.disable()
    for _ in range(3):  # let the interpreter specialise the probe first
        probe()
    marks: list[float] = []
    took: list[float] = []
    while True:
        start = thread_time()
        probe()
        took.append(thread_time() - start)
        marks.append(perf_counter())
        ready, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if ready and not sys.stdin.read(1):
            break
    json.dump([marks, took], sys.stdout)


class SpeedClock:
    """The probing child, from start to ``stop``; use it as a context
    manager so that the child is ended and waited for on every exit."""

    def __init__(self):
        self.marks: list[float] = []  # end time of each probe (perf_counter is system-wide)
        self.probe_s: list[float] = []  # CPU time of each probe
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def stop(self) -> None:
        """End the child and collect its probes."""
        self.proc.stdin.close()
        out = self.proc.stdout.read()
        if self.proc.wait(timeout=30) != 0 or not out:
            raise RuntimeError(f"speed probe exited with code {self.proc.returncode}")
        self.marks, self.probe_s = json.loads(out)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median probe time within WINDOW_S of
        [start, end], or of the probe nearest to it if none falls there."""
        lo = bisect.bisect_left(self.marks, start - WINDOW_S)
        hi = bisect.bisect_right(self.marks, end + WINDOW_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(lo + 1, len(self.marks))
        return REFERENCE_S / statistics.median(self.probe_s[lo:hi])


if __name__ == "__main__":
    probe_until_stdin_closes()
