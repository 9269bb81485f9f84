"""A deterministic key-value store — a *stateful* ST-TCP service.

The streaming/file servers are stateless request-responders; this app
shows the stronger property ST-TCP's determinism assumption buys: the
replica's *application state* (the whole store) stays consistent with the
primary's, because state is a pure function of the input byte stream.
After failover the backup answers reads for keys written before the crash.

Wire protocol (text, line-oriented — one command per line):

    SET <key> <value>\\n   ->  OK\\n
    GET <key>\\n           ->  VALUE <value>\\n   |  MISSING\\n
    DEL <key>\\n           ->  OK\\n              |  MISSING\\n
    KEYS\\n                ->  COUNT <n>\\n

Keys and values are ASCII tokens without whitespace.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.addresses import IPAddress
from repro.tcp.sockets import Socket
from repro.host.app import Application
from repro.host.host import Host
from repro.sim.timers import Timer

__all__ = ["KvServer", "KvClient"]


class KvServer(Application):
    """The replicated store.  Deterministic: output and state depend only
    on the input command stream."""

    def __init__(self, host: Host, name: str, port: int = 6379):
        super().__init__(host, name)
        self.port = port
        self.store: dict[bytes, bytes] = {}
        self.commands_processed = 0

    def on_start(self) -> None:
        """Open the listener / client connection."""
        self.listener = self.host.tcp.listen(
            self.port, self.guard_callback(self._on_accept))

    def _on_accept(self, sock: Socket) -> None:
        self.track_socket(sock)
        inbox = bytearray()
        outbox = bytearray()

        def pump(s: Socket) -> None:
            """Drain queued replies respecting backpressure."""
            while outbox and s.is_open and s.writable_bytes > 0:
                sent = s.send(bytes(outbox[:8192]))
                if sent == 0:
                    return
                del outbox[:sent]

        def on_data(s: Socket) -> None:
            """Parse complete command lines and execute them."""
            inbox.extend(s.read())
            while b"\n" in inbox:
                line, _, rest = bytes(inbox).partition(b"\n")
                inbox[:] = rest
                outbox.extend(self._execute(line.strip()))
            pump(s)

        sock.on_data = self.guard_callback(on_data)
        sock.on_writable = self.guard_callback(pump)
        sock.on_closed = lambda s: self.untrack_socket(s)

    def _execute(self, line: bytes) -> bytes:
        self.commands_processed += 1
        parts = line.split()
        if not parts:
            return b"ERR empty\n"
        verb = parts[0].upper()
        if verb == b"SET" and len(parts) == 3:
            self.store[parts[1]] = parts[2]
            return b"OK\n"
        if verb == b"GET" and len(parts) == 2:
            value = self.store.get(parts[1])
            return b"MISSING\n" if value is None else b"VALUE %s\n" % value
        if verb == b"DEL" and len(parts) == 2:
            if self.store.pop(parts[1], None) is None:
                return b"MISSING\n"
            return b"OK\n"
        if verb == b"KEYS" and len(parts) == 1:
            return b"COUNT %d\n" % len(self.store)
        return b"ERR bad command\n"


class KvClient(Application):
    """Issues a scripted command sequence, one at a time, collecting the
    replies.  ``on_complete`` fires when every reply has arrived.

    Sends are paced on a fixed grid: the first command goes out at the
    connect instant ``t0``, and each later one at the first grid instant
    ``t0 + k * interval_ns`` strictly after the previous reply arrived
    (so a reply landing exactly on a grid instant waits one interval).
    A single timer is armed only while a command is due — never while a
    command is outstanding, nor after the script ends or the socket
    closes — so an idle client schedules no events.
    """

    def __init__(self, host: Host, name: str, server_ip: "IPAddress | str",
                 port: int = 6379, commands: Optional[list[bytes]] = None,
                 interval_ns: int = 5_000_000,
                 on_complete: Optional[Callable[[], None]] = None):
        super().__init__(host, name)
        self.server_ip = IPAddress(server_ip)
        self.port = port
        self.commands = list(commands or [])
        self.interval_ns = interval_ns
        self.on_complete = on_complete
        self.replies: list[bytes] = []
        self.sock: Optional[Socket] = None
        self.reset_count = 0
        self._next_command = 0
        self._inbox = bytearray()
        self._t0 = 0
        self._pacer: Optional[Timer] = None

    def on_start(self) -> None:
        """Open the listener / client connection."""
        self.sock = self.track_socket(
            self.host.tcp.connect(self.server_ip, self.port))
        self.sock.on_connected = self.guard_callback(self._begin)
        self.sock.on_data = self.guard_callback(self._on_data)
        self.sock.on_reset = self.guard_callback(
            lambda s, r: setattr(self, "reset_count", self.reset_count + 1))

    def _begin(self, _sock: Socket) -> None:
        self._t0 = self.world.sim.now
        self._pacer = self.after(0, self._send_next)

    def _send_next(self) -> None:
        if (self._next_command >= len(self.commands)
                or self.sock is None or not self.sock.is_open):
            return
        command = self.commands[self._next_command]
        self.sock.send(command.rstrip(b"\n") + b"\n")
        self._next_command += 1

    def _on_data(self, sock: Socket) -> None:
        self._inbox.extend(sock.read())
        while b"\n" in self._inbox:
            line, _, rest = bytes(self._inbox).partition(b"\n")
            self._inbox[:] = rest
            self.replies.append(line)
        if len(self.replies) >= len(self.commands):
            if self.on_complete is not None:
                callback, self.on_complete = self.on_complete, None
                callback()
        elif len(self.replies) >= self._next_command and sock.is_open:
            # Caught up, with commands left: one command at a time keeps
            # replies unambiguous.  Send on the next grid instant.
            elapsed = self.world.sim.now - self._t0
            self._pacer.start(
                self.interval_ns - elapsed % self.interval_ns)

    @property
    def done(self) -> bool:
        """True once every command has been answered."""
        return len(self.replies) >= len(self.commands)
