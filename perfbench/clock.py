"""The benchmark's clock, and the reference probe that scales its times.

Every timed figure reads CLOCK, the CPU time of the process (user + system,
all threads). stagelens runs on one thread and reads its inputs from the page
cache, so on an idle machine this is its wall time; unlike wall time it
leaves out the time the process waits while other tenants of a shared host
hold the CPUs (the kernel also subtracts hypervisor steal time from it).

CPU time still moves with the speed the host gives a CPU at the moment: on
the shared 2-core VM the benchmark was tuned on, one unchanged report took
0.45 s in one stretch of seconds and 0.75 s in the next. So the timed
operations are interleaved with `reference()`, a fixed pure-Python loop, and
each operation's CPU time is scaled by REF_SECONDS over the reference's CPU
time around it. The end-to-end times are therefore CPU seconds on a machine
whose speed makes `reference()` take exactly REF_SECONDS. A change to
stagelens moves them; a change in the host's speed, which slows the loop and
the operation alike, mostly does not.
"""

from __future__ import annotations

import time
from typing import List, Optional

CLOCK = time.process_time

#: Iterations of the reference loop, and its nominal CPU time: about its
#: median on the machine the benchmark was tuned on (Intel Xeon at 2.1 GHz,
#: shared 2-vCPU VM, CPython 3.11).
REF_LOOPS = 300_000
REF_SECONDS = 0.030


def reference() -> float:
    """CPU time of a fixed interpreter loop: a probe of the host's speed now."""
    start = CLOCK()
    total = 0
    for i in range(REF_LOOPS):
        total += i * i % 7
    return CLOCK() - start


def scaled(cpu_s: float, ref_s: float) -> float:
    """CPU seconds at the reference speed."""
    return cpu_s * REF_SECONDS / ref_s


class SpeedTrack:
    """Reference probes interleaved with the timed operations.

    Call `before()` before each operation and `after(op)` once it has
    its record; a probe runs whenever `every_s` CPU seconds have passed since
    the last one. `close()` takes a last probe. Each operation's `ref_s` is
    the mean of the probes just before and just after it.
    """

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s
        self.probes: List[float] = []
        self._pending: List[dict] = []
        self._last: Optional[float] = None

    def before(self) -> None:
        if self._last is None or CLOCK() - self._last >= self.every_s:
            self._probe()

    def after(self, op: dict) -> None:
        op["ref_s"] = self.probes[-1]
        self._pending.append(op)

    def close(self) -> None:
        self._probe()

    def _probe(self) -> None:
        ref = reference()
        for op in self._pending:
            op["ref_s"] = (op["ref_s"] + ref) / 2
        self._pending.clear()
        self.probes.append(ref)
        self._last = CLOCK()
