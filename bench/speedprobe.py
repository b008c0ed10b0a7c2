"""The reference-speed probe: a fixed piece of interpreter work, timed in
a helper process of its own.

The work is exact-fraction arithmetic, tuples and a dict, the kind of work
the library does, so it slows down as the library does when other tenants
load the shared machine.  It runs in its own process so that its time
cannot depend on the library's heap: the number of live objects the
library (or the span recorder) holds changes neither the collections nor
the allocator state the probe meets.  The caller blocks while the helper
works, so the two never compete for a core.

Run as a script, this file is the helper: for every line on stdin it runs
the work once untimed (to warm the caches the op before it flushed), then
once timed, and prints the timed pass's seconds.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from fractions import Fraction


def work():
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i, 3)
    table = {}
    for i in range(600):
        table[(i, i % 13)] = acc


def serve():
    gc.disable()                 # nothing here outlives one pass
    for _ in sys.stdin:
        work()
        t0 = time.perf_counter()
        work()
        print(repr(time.perf_counter() - t0), flush=True)


class Probe:
    """Client of the helper process; call it to time one probe.  Use as a
    context manager: leaving it stops the helper and waits for it."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    serve()
