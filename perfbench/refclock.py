"""Times scaled to a fixed reference speed of the machine.

On a shared virtual machine the CPU's speed drifts by a third or more over
seconds and minutes, and process CPU time drifts with wall time, so two runs
of the same code can differ by more than any useful bound.  The client
therefore times a fixed pure-Python reference task between ops, about every
``EVERY_S`` seconds, and reports each op's time scaled by
``NOMINAL_S / reference time around the op``: the op's time on a machine
running at the reference speed.

Both the ops and the reference task are timed in process CPU time
(``cpu_clock``).  The ops are single-threaded and CPU-bound, so on an idle
machine this equals their wall time; but time in which the virtual CPU is
stolen by the host, or the process waits for a CPU behind other processes,
does not count.  That time comes in bursts of milliseconds, so it would hit
a reference sample and the ops around it unequally.  The reference task uses only builtins
(dicts, tuples, big-int arithmetic, sorting), so no change to poisgeo can
change its time, and it imports nothing that poisgeo might import.
"""

import bisect
import gc
import statistics
import time

cpu_clock = time.process_time

# The reference task's median time on the 2-vCPU Intel Xeon virtual machine
# on which the bounds were set, so scaled times read as milliseconds there.
NOMINAL_S = 2.4e-3
EVERY_S = 0.25  # the client samples the reference at least this often
WINDOW_S = 0.5  # an op is scaled by the samples this close to it
REPS = 3


def reference_task():
    table = {}
    acc = 1
    for i in range(1, 1200):
        key = (i % 37, i % 11, i % 5)
        table[key] = table.get(key, 0) + i * i
        acc = (acc * (i | 1) + i) % (1 << 200)
    return sorted(table.items()), acc


def reference_seconds(reps=REPS):
    """Median time of the reference task, with the garbage collector off,
    so that the heap the program under test left behind does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(reps):
            t0 = cpu_clock()
            reference_task()
            times.append(cpu_clock() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class RefClock:
    """Reference samples over a run, and the scale of each timed interval."""

    def __init__(self):
        self.at = []  # perf_counter() (wall clock) at the middle of each sample
        self.seconds = []

    def sample(self):
        t0 = time.perf_counter()
        s = reference_seconds()
        self.at.append((t0 + time.perf_counter()) / 2)
        self.seconds.append(s)
        return s

    def maybe_sample(self):
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def scale(self, t0, t1):
        """NOMINAL_S over the median reference time of the samples within
        WINDOW_S of the wall-clock interval [t0, t1], or of the last sample
        before it if none is."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        if lo == hi:
            lo = min(max(lo - 1, 0), len(self.at) - 1)
            hi = lo + 1
        return NOMINAL_S / statistics.median(self.seconds[lo:hi])

    def scaled(self, intervals):
        """Each op's CPU seconds at the reference speed; an interval is
        (wall start, wall end, CPU seconds)."""
        return [dt * self.scale(t0, t1) for t0, t1, dt in intervals]
