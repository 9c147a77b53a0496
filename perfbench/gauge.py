"""Machine-speed gauge: timed phases rescaled to a fixed reference speed.

The 2-vCPU machine this benchmark was built on shares its cores with other
tenants.  Its throughput drifts by up to a factor of two over minutes, and
process CPU time drifts with wall time, so neither clock alone repeats.  The
gauge samples the machine's speed at the same moments as the program runs:
a SIGPROF handler fires every `interval_s` of process CPU time and runs one
burst, a fixed piece of pure-Python work shaped like the program's
group-algebra inner loop (table lookups, tuple keys, a dict, a truncated
product).  The burst is the benchmark's own code, so no change to the
program can change it.

A phase is reported as its CPU time, bursts excluded, times the mean of
REF_BURST_S / (CPU time of a burst) over the bursts taken during it: the CPU
seconds the phase would take at the reference speed, at which one burst
takes REF_BURST_S.  CPU time rather than wall time leaves out the time the
process waits for a core, which the bursts cannot see.
"""

import gc
import signal
import statistics
import time

# CPU seconds of one burst at the reference speed; about what a burst takes
# inside a running workload on the 2-vCPU machine the benchmark was built on
REF_BURST_S = 0.5e-3

_Q = 49
_MUL = [(a * b) % _Q for a in range(_Q) for b in range(_Q)]
_ADD = [(a + b) % _Q for a in range(_Q) for b in range(_Q)]
_TERMS = {((i * 7) % _Q, (i * 11) % _Q, (i * 13) % _Q, (i * 17) % _Q): (i % 5 + 1, i % 3, 2)
          for i in range(12)}
_MOD = 7 ** 6
_REPS = 4


def _wmul(a, b):
    return ((a[0] * b[0]) % _MOD, (a[0] * b[1] + a[1] * b[0]) % _MOD, (a[2] * b[2]) % _MOD)


def burst():
    """CPU seconds the fixed burst of work takes now (garbage collection off)."""
    enabled = gc.isenabled()
    gc.disable()
    q, mul, add, terms = _Q, _MUL, _ADD, _TERMS
    t0 = time.thread_time()
    for _ in range(_REPS):
        out = {}
        for (a, b, c, d), cg in terms.items():
            aq, bq, cq, dq = a * q, b * q, c * q, d * q
            for (e, f, g, h), ch in terms.items():
                key = (add[mul[aq + e] * q + mul[bq + g]], add[mul[aq + f] * q + mul[bq + h]],
                       add[mul[cq + e] * q + mul[dq + g]], add[mul[cq + f] * q + mul[dq + h]])
                w = _wmul(cg, ch)
                prev = out.get(key)
                out[key] = _wmul(prev, w) if prev else w
    dt = time.thread_time() - t0
    if enabled:
        gc.enable()
    return dt


class Gauge:
    """Bursts on a CPU-time timer; mark() and scaled() time phases with them."""

    def __init__(self):
        self.speeds = []  # REF_BURST_S / burst CPU time, one per burst
        self.burst_cpu = 0.0

    def _tick(self, signum, frame):
        dt = burst()
        self.speeds.append(REF_BURST_S / dt)
        self.burst_cpu += dt

    def start(self, interval_s):
        """Burst every interval_s of process CPU time from now on."""
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, interval_s, interval_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self):
        """(process CPU time, bursts so far, their CPU time) with no burst in between."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
        try:
            return time.process_time(), len(self.speeds), self.burst_cpu
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGPROF})

    def scaled(self, start, end):
        """(seconds at the reference speed, CPU seconds, bursts) between two marks."""
        cpu = (end[0] - start[0]) - (end[2] - start[2])
        speeds = self.speeds[start[1]:end[1]] or [REF_BURST_S / burst()]
        return cpu * statistics.fmean(speeds), cpu, len(speeds)
