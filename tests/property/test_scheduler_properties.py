"""The kernel is observationally identical to a reference heap scheduler.

The kernel's contract (docs/scheduler.md): events fire in global
``(time, insertion-sequence)`` order, however far out they are scheduled,
whichever call queued them, and however many tombstones compaction has
swept away.  We check it the direct way: run arbitrary programs of
schedule / schedule_at / post / cancel / run(until) operations (including
scheduling and cancelling from inside callbacks) through the real
:class:`Simulator` and through a 20-line reference heap scheduler, and
require byte-identical fire logs.
"""

import itertools
from heapq import heappop, heappush

from hypothesis import given, settings, strategies as st

from repro.sim.core import Simulator


class RefHandle:
    def __init__(self, callback, args):
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class HeapScheduler:
    """The kernel reduced to its semantics: one global (time, seq)
    min-heap, lazy cancellation, run-to-until clock advancement."""

    def __init__(self):
        self.now = 0
        self._seq = 0
        self._heap = []

    def schedule(self, delay, callback, *args):
        return self.schedule_at(self.now + delay, callback, *args)

    def post(self, delay, callback, *args):
        self.schedule(delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        handle = RefHandle(callback, args)
        self._seq += 1
        heappush(self._heap, (time, self._seq, handle))
        return handle

    def run(self, until=None):
        while self._heap:
            time, _seq, handle = self._heap[0]
            if until is not None and time > until:
                break
            heappop(self._heap)
            if handle.cancelled:
                continue
            self.now = time
            handle.callback(*handle.args)
        if until is not None and self.now < until:
            self.now = until


# Delay mix: same-instant ties, near-future deadlines a few microseconds
# apart, milliseconds, and seconds to tens of seconds out.
DELAYS = st.one_of(
    st.integers(0, 5_000),
    st.integers(0, 20_000_000),
    st.integers(0, 6_000_000_000),
    st.integers(0, 30_000_000_000),
)

CHILD_OP = st.one_of(
    st.tuples(st.just("sched"), DELAYS, st.just(())),
    st.tuples(st.just("post"), DELAYS, st.just(())),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
)
OP = st.one_of(
    st.tuples(st.just("sched"), DELAYS,
              st.lists(CHILD_OP, max_size=3).map(tuple)),
    st.tuples(st.just("post"), DELAYS,
              st.lists(CHILD_OP, max_size=3).map(tuple)),
    st.tuples(st.just("sched_at"), DELAYS,
              st.lists(CHILD_OP, max_size=3).map(tuple)),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
)
PROGRAM = st.lists(
    st.tuples(st.lists(OP, max_size=8), st.one_of(st.none(), DELAYS)),
    min_size=1, max_size=6)


def execute(scheduler, program):
    """Run ``program`` on ``scheduler``; return (fire log, final now)."""
    log = []
    handles = []
    ids = itertools.count()

    def fire(op_id, children):
        log.append((now(), op_id))
        for child in children:
            do_op(child)

    def now():
        return scheduler.now

    def do_op(spec):
        if spec[0] == "sched":
            handles.append(
                scheduler.schedule(spec[1], fire, next(ids), spec[2]))
        elif spec[0] == "post":
            scheduler.post(spec[1], fire, next(ids), spec[2])
        elif spec[0] == "sched_at":
            handles.append(
                scheduler.schedule_at(now() + spec[1], fire,
                                      next(ids), spec[2]))
        elif handles:
            handles[spec[1] % len(handles)].cancel()

    for ops, duration in program:
        for spec in ops:
            do_op(spec)
        scheduler.run(until=None if duration is None else now() + duration)
    scheduler.run()  # drain whatever survived, however far out
    return log, now()


@given(PROGRAM)
@settings(max_examples=150, deadline=None)
def test_kernel_fires_in_reference_heap_order(program):
    sim_log, sim_now = execute(Simulator(), program)
    ref_log, ref_now = execute(HeapScheduler(), program)
    assert sim_log == ref_log
    assert sim_now == ref_now


def test_mass_cancel_churn_matches_heap():
    """Enough tombstones to trigger compaction repeatedly, spread from
    microseconds to seconds out, with survivors interleaved — order must
    still match."""
    def program_ops():
        ops = []
        for i in range(300):
            delay = (i * 37_003) % 25_000_000_000
            ops.append(("sched", delay, ()))
        for i in range(0, 280):
            if i % 4:  # cancel three quarters of them
                ops.append(("cancel", i))
        return [(ops, None)]

    program = program_ops()
    assert execute(Simulator(), program) == execute(HeapScheduler(), program)


def test_far_future_same_instant_is_fifo():
    """Ties on `time` resolve by insertion sequence, whether the tied
    events were queued by schedule_at, schedule or post, and with nearer
    and later work interleaved between them."""
    far = 30_000_000_000                     # 30 s out
    program = [(
        [("sched_at", far + 5, ()),
         ("sched", 100, ()),                 # near future
         ("sched_at", far + 5, ()),          # same instant, later seq
         ("post", far + 5, ()),              # same instant, via post
         ("sched", far + 5, ()),             # same instant, via schedule
         ("sched_at", far - 10, ())],        # just before
        None,
    )]
    log, now = execute(Simulator(), program)
    assert log == [(100, 1), (far - 10, 5), (far + 5, 0), (far + 5, 2),
                   (far + 5, 3), (far + 5, 4)]
    assert now == far + 5
    assert (log, now) == execute(HeapScheduler(), program)
