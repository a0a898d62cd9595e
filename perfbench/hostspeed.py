"""Host-speed calibration, so that a run's times do not follow its host.

On a shared host the same pure-Python code runs up to twice as slow in
spells of a fraction of a second to minutes, with CPU time equal to wall
time: the slowdown comes from neighbours, not from waiting.  No run length
the benchmark can afford averages that away, so every op is bracketed by
probes, a fixed piece of pure-Python work that lives here and never
changes with the library, timed straight before and straight after the
op.  A time is then reported in host-normalised seconds,

    t * REF_S / cal

with cal the mean of the probes around it: the time the same work would
take on a host whose probe takes REF_S.  A change to the library moves the
raw time and leaves cal alone, so it moves the normalised time by the same
share; a change in host speed moves both.

The host switches between its fast and slow states several times a
second, and two processes on its two CPUs see unrelated states (their probe
times correlate by 0.1), so a probe has to run in the op's own process and
next to the op it corrects: probing every half second instead left twice
the spread in local-factors throughput.  A probe is short (about 2 ms) for
that reason, and an op that runs longer than PERIOD_S is also probed from
inside, by a timer signal every PERIOD_S; the time those probes take is
taken off the op's time.

Host slowdowns do not hit all code alike: in the spells measured, code
that allocates small objects slowed by up to 1.8 times while table look-ups
in the library's unit sums slowed by 1.3.  So a probe is three pieces:
integer arithmetic in a loop, a product of polynomials whose coefficients
are small objects with arithmetic methods (the style of the library's
finite-field code), and a walk of random reads through a 1 MB table.
"""

import signal
import time
from array import array

# Probe time on the reference host: about the fastest that the 2-CPU Xeon
# virtual machine that defined the benchmark measured.  Any constant would
# do; it only scales the reported seconds.
REF_S = 0.0015
# Interval of the probes inside a long op.
PERIOD_S = 0.1


class _Elem:
    __slots__ = ("v", "t")

    def __init__(self, v, t):
        self.v = v
        self.t = t

    def __mul__(self, other):
        if not self.v or not other.v:
            return _Elem(0, self.t)
        exp, log, order = self.t
        return _Elem(exp[(log[self.v] + log[other.v]) % order], self.t)

    def __add__(self, other):
        return _Elem(self.v ^ other.v, self.t)


_STATE = []


def _state():
    """F_{2^9} log tables, two polynomials over them and a 1 MB table of
    reads, built once per process, outside the timing."""
    if not _STATE:
        q, modulus = 512, 0b1000010001
        exp, log = [0] * (q - 1), {}
        x = 1
        for i in range(q - 1):
            exp[i], log[x] = x, i
            x <<= 1
            if x & q:
                x ^= modulus
        tables = (exp, log, q - 1)
        f = [_Elem((7 * i + 3) % q, tables) for i in range(24)]
        g = [_Elem((11 * i + 5) % q, tables) for i in range(24)]
        reads = array("i", ((i * 40503 + 12345) & 0x3FFFF for i in range(1 << 18)))
        _STATE.extend((tables, f, g, reads))
    return _STATE


def probe():
    """Seconds the fixed probe work takes now."""
    tables, f, g, reads = _state()
    start = time.perf_counter()
    acc = 0
    for i in range(6000):
        acc = (acc + i * i) % 1_000_003
    out = [_Elem(0, tables) for _ in range(len(f) + len(g) - 1)]
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    mask = len(reads) - 1
    x = 1
    for i in range(6000):
        x = reads[(x + i) & mask]
    return time.perf_counter() - start


def normalised(seconds, cal):
    """Host-normalised seconds for a time measured where a probe took cal
    seconds."""
    return seconds * REF_S / cal


class Probed:
    """Times a block between two probes, and probes it from inside every
    PERIOD_S while it runs.  After the block, ``seconds`` is its wall time
    less the inner probes, ``cal`` the mean of every probe taken and
    ``overhead`` the time the probing took, outside the block and in it."""

    def __enter__(self):
        self.entered = time.perf_counter()
        self.probes = [probe()]
        self.spent = 0.0
        self.old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.start = time.perf_counter()
        return self

    def _tick(self, _signum, _frame):
        start = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - start

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - self.start
        signal.signal(signal.SIGALRM, self.old)
        self.seconds = wall - self.spent
        self.probes.append(probe())
        self.cal = sum(self.probes) / len(self.probes)
        self.overhead = time.perf_counter() - self.entered - self.seconds
        return False
