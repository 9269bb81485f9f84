"""A fixed reference loop that measures how fast the machine is right now.

The container this benchmark runs on shares its machine: the same work
can take twice as long from one minute to the next.  :func:`time_once`
times a small pure-Python discrete-event loop (a heap of timed events,
slotted objects, method calls, byte slicing: the simulator's kind of
work) that never changes and uses no program code, so a change to the
program cannot move it.  ``run.py`` scales its time metrics by the
loop's fastest time in the same run; see README.md, "Noise".
"""

from __future__ import annotations

import heapq
import time

__all__ = ["EVENTS", "time_once"]

#: Events per timing; about 40 ms on the container that recorded the
#: baseline.
EVENTS = 40_000


class _Node:
    __slots__ = ("peers", "count", "buf")

    def __init__(self) -> None:
        self.peers: list = []
        self.count = 0
        self.buf = bytearray()

    def receive(self, loop: "_Loop", now: int, payload: bytes) -> None:
        self.count += 1
        self.buf += payload[:8]
        if len(self.buf) > 64:
            del self.buf[:32]
        if self.count & 3:
            peer = self.peers[self.count % len(self.peers)]
            loop.schedule(now + 7 + (self.count & 15), peer.receive, payload)


class _Loop:
    def __init__(self) -> None:
        self.queue: list = []
        self.seq = 0

    def schedule(self, when: int, fn, *args) -> None:
        self.seq += 1
        heapq.heappush(self.queue, (when, self.seq, fn, args))

    def run(self, limit: int) -> int:
        queue = self.queue
        done = 0
        while queue and done < limit:
            when, _, fn, args = heapq.heappop(queue)
            fn(self, when, *args)
            done += 1
        return done


def _work(events: int) -> None:
    nodes = [_Node() for _ in range(64)]
    for i, node in enumerate(nodes):
        node.peers = [nodes[(i * 7 + k) % 64] for k in range(1, 6)]
    loop = _Loop()
    payload = bytes(range(256)) * 6
    done = 0
    while done < events:
        if not loop.queue:
            for i, node in enumerate(nodes):
                loop.schedule(loop.seq + i, node.receive, payload)
        done += loop.run(events - done)


def time_once() -> float:
    """Wall seconds for one pass of :data:`EVENTS` events."""
    start = time.perf_counter()
    _work(EVENTS)
    return time.perf_counter() - start
