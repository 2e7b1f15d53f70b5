"""Host speed in reference units, for times that do not drift with the host.

The CPU speed of a shared host drifts by tens of percent over seconds to
minutes, and CPU time drifts with it, so run-to-run medians of raw times
spread more than any useful bound.  A fixed pure-Python kernel timed while
the work runs gives the host's speed at that moment: KERNEL_REFERENCE_S /
kernel time.  A raw time multiplied by the mean speed over its window reads
as reference seconds.  The kernel never calls graphtop, so a change to
graphtop moves reference seconds in proportion to raw ones.

The kernel is timed by its thread's CPU time.  CPU time follows the host's
speed drift, but not the time a process spends preempted, so a pass whose
processes outnumber the CPUs does not read as a slow host and keep its
cost out of the reference times.

The samples are taken inside the pass, because the speed changes within
a pass: timing the kernel only just before and just after each pass
spread the reference times more than the raw ones.
"""

import os
import signal
import statistics
from pathlib import Path
from time import thread_time

SAMPLE_CPU_S = 0.1
KERNEL_MASKS = tuple((i * 2654435761) & 0xFFFF for i in range(16))
KERNEL_EDGES = tuple((u, v) for u in range(4) for v in range(u + 1, 4))
KERNEL_REFERENCE_S = 0.0015  # the kernel's time on the reference host, fast phase


def _kernel():
    """A fixed pure-Python load in the style of graphtop: bit loops, and a
    small search over the edge states of K4 with a transitivity test at
    each leaf.  The two halves slow down differently when the host is
    contended, and together they track graphtop more closely than either."""
    acc = 0
    for r in range(40):
        for m in KERNEL_MASKS:
            m ^= r
            while m:
                b = m & -m
                acc += b.bit_length()
                m ^= b
    out = [0] * 4
    leaves = set()

    def transitive():
        for b in range(4):
            for a in range(4):
                if a != b and out[a] >> b & 1 and out[b] & ~(1 << a) & ~out[a]:
                    return False
        return True

    def go(k):
        if k == len(KERNEL_EDGES):
            if transitive():
                leaves.add(tuple(out))
            return
        u, v = KERNEL_EDGES[k]
        for state in (1, 2, 3):
            if state & 1:
                out[u] |= 1 << v
            if state & 2:
                out[v] |= 1 << u
            go(k + 1)
            out[u] &= ~(1 << v)
            out[v] &= ~(1 << u)

    go(0)
    return acc + len(leaves)


def _time_kernel():
    t = thread_time()
    _kernel()
    return thread_time() - t


def host_speed():
    """The host's speed now, from five kernel runs in a row."""
    return statistics.fmean(KERNEL_REFERENCE_S / _time_kernel() for _ in range(5))


class SpeedSampler:
    """The host's speed while a pass runs.

    Every SAMPLE_CPU_S of CPU time a process spends, a SIGPROF handler times
    the kernel; the mean speed over all samples is the host's speed during
    the pass.  The samples cost about 2% of CPU time.  Pool workers forked
    during the pass sample too and append each sample to a file of their
    own, unbuffered, because a terminated worker runs no exit hooks.
    """

    def __init__(self, spill_dir):
        self.spill_dir = Path(spill_dir)
        self.samples = []
        self.fd = None
        self.running = False
        signal.signal(signal.SIGPROF, self._tick)
        os.register_at_fork(after_in_child=self._forked)

    def _tick(self, signum, frame):
        took = _time_kernel()
        if self.fd is None:
            self.samples.append(took)
        else:
            os.write(self.fd, f"{took!r}\n".encode())

    def _forked(self):
        if self.running:
            path = self.spill_dir / f"speed-{os.getpid()}.txt"
            self.fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_CPU_S, SAMPLE_CPU_S)

    def start(self):
        self.running = True
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_CPU_S, SAMPLE_CPU_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        self.running = False

    def speed(self):
        """(speed factor, sample count), the workers' samples included."""
        samples = list(self.samples)
        for path in self.spill_dir.glob("speed-*.txt"):
            samples += [float(x) for x in path.read_text().split()]
            path.unlink()
        if not samples:  # a pass too short for the timer to fire
            samples.append(_time_kernel())
        return statistics.fmean(KERNEL_REFERENCE_S / d for d in samples), len(samples)
