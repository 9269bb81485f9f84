"""Echo service: the smallest deterministic server, plus an interactive
client that measures request/response round trips.

Useful for the failure-free overhead experiments (per-RTT view rather than
bulk throughput) and as the canonical "client also sends data" workload —
the case where ST-TCP's client-byte lag detection is strongest (Sec. 4.3).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.addresses import IPAddress
from repro.tcp.sockets import Socket
from repro.host.app import Application
from repro.host.host import Host
from repro.sim.timers import PeriodicTimer

__all__ = ["EchoServer", "EchoClient"]


class EchoServer(Application):
    """Echoes every received byte back, with correct backpressure."""

    def __init__(self, host: Host, name: str, port: int = 7):
        super().__init__(host, name)
        self.port = port
        self.bytes_echoed = 0

    def on_start(self) -> None:
        """Open the listener / client connection."""
        self.listener = self.host.tcp.listen(
            self.port, self.guard_callback(self._on_accept))

    def _on_accept(self, sock: Socket) -> None:
        self.track_socket(sock)
        pending = bytearray()

        def pump(s: Socket) -> None:
            """Drain pending bytes respecting backpressure."""
            # writable_bytes is 0 once the socket is closed or closing, so
            # a late arrival (e.g. ST-TCP fetch injection) cannot trigger a
            # write-after-close.
            while pending and s.writable_bytes > 0:
                sent = s.send(bytes(pending[:8192]))
                if sent == 0:
                    return
                del pending[:sent]
                self.bytes_echoed += sent

        def on_data(s: Socket) -> None:
            """Consume received bytes and echo them back."""
            pending.extend(s.read())
            pump(s)

        def on_peer_closed(s: Socket) -> None:
            """Flush remaining bytes, then close our half."""
            pump(s)
            if not pending and s.is_open:
                s.close()

        sock.on_data = self.guard_callback(on_data)
        sock.on_writable = self.guard_callback(pump)
        sock.on_peer_closed = self.guard_callback(on_peer_closed)
        sock.on_closed = lambda s: self.untrack_socket(s)


class EchoClient(Application):
    """Sends a fixed-size message every ``interval_ns`` and measures the
    round-trip time of each echo."""

    def __init__(self, host: Host, name: str, server_ip: "IPAddress | str",
                 port: int = 7, message_size: int = 64,
                 interval_ns: int = 10_000_000, count: int = 100,
                 on_complete: Optional[Callable[[], None]] = None):
        super().__init__(host, name)
        self.server_ip = IPAddress(server_ip)
        self.port = port
        self.message_size = message_size
        self.interval_ns = interval_ns
        self.count = count
        self.on_complete = on_complete
        self.rtts_ns: list[int] = []
        self.sock: Optional[Socket] = None
        self.reset_count = 0
        self._sent = 0
        self._echoed_bytes = 0
        self._send_times: list[int] = []
        self._outbox = bytearray()   # queued but not yet accepted by TCP
        self._pacer: Optional[PeriodicTimer] = None

    def on_start(self) -> None:
        """Open the listener / client connection."""
        self.sock = self.track_socket(
            self.host.tcp.connect(self.server_ip, self.port))
        self.sock.on_connected = self.guard_callback(self._begin)
        self.sock.on_data = self.guard_callback(self._on_data)
        self.sock.on_reset = self.guard_callback(self._on_reset)
        self.sock.on_writable = self.guard_callback(self._pump)

    def _begin(self, _sock: Socket) -> None:
        self._pacer = self.every(self.interval_ns, self._send_one,
                                 fire_immediately=True)

    def _send_one(self) -> None:
        if self._sent >= self.count or not self.sock.is_open:
            # Nothing left to send, ever: stop ticking.
            self._pacer.stop()
            return
        self._send_times.append(self.world.sim.now)
        self._outbox.extend(bytes(self.message_size))
        self._sent += 1
        if self._sent >= self.count:
            self._pacer.stop()
        self._pump(self.sock)

    def _pump(self, sock: Socket) -> None:
        """Drain the outbox respecting TCP backpressure (partial sends)."""
        while self._outbox and sock.is_open and sock.writable_bytes > 0:
            accepted = sock.send(bytes(self._outbox[:8192]))
            if accepted == 0:
                return
            del self._outbox[:accepted]

    def _on_reset(self, _sock: Socket, _reason: str) -> None:
        self.reset_count += 1

    def _on_data(self, sock: Socket) -> None:
        self._echoed_bytes += len(sock.read())
        while (len(self.rtts_ns) < len(self._send_times)
               and self._echoed_bytes
               >= (len(self.rtts_ns) + 1) * self.message_size):
            sent_at = self._send_times[len(self.rtts_ns)]
            self.rtts_ns.append(self.world.sim.now - sent_at)
        if len(self.rtts_ns) >= self.count:
            if self.sock is not None and self.sock.is_open:
                self.sock.close()
            if self.on_complete is not None:
                self.on_complete()

    @property
    def mean_rtt_ns(self) -> Optional[float]:
        """Mean echo round-trip time in nanoseconds (None if no samples)."""
        return (sum(self.rtts_ns) / len(self.rtts_ns)
                if self.rtts_ns else None)
