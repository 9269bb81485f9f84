"""Layer spans recorded from outside the program (``--trace 1`` only).

:class:`Tracer` wraps chosen public functions of each package before the
testbed is built.  Each call opens a span (name, start, end, parent);
the time between two span boundaries is charged to the layer whose span
is innermost, so a layer's *self time* is the wall time during which its
span is the innermost open one.  Time in no span belongs to
``outside`` (the benchmark itself).

Callbacks with no public entry, such as the switch's batched flood
delivery and timer ticks, run straight from the event loop and land in
``sim``.  ``covered_frac`` (the share of ``Simulator.run`` time whose
innermost span belongs to another layer) says how much of ``sim`` self
time can be kernel work at most.

Spans are kept in memory, up to :data:`MAX_SPANS`, and written out by
:meth:`Tracer.write` when the run ends; self times and call counts cover
every span, kept or not.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

from probe import import_program, patch_function, patch_method, unpatch

__all__ = ["MAX_SPANS", "Tracer"]

#: Spans kept for :meth:`Tracer.write`; later ones are only counted.
MAX_SPANS = 100_000

#: (layer, module, class, methods) wrapped as spans.  The private names
#: are the handlers a package hands to the layer below it (the TCP
#: stack's protocol handler registered with ``IpStack``, the host's
#: upper handler registered with ``Nic``): they are where that layer's
#: work starts.
METHODS = (
    ("sim", "repro.sim.core", "Simulator",
     ("run", "schedule", "schedule_at", "post", "call_soon", "at_tick_end")),
    ("net", "repro.net.cable", "Cable",
     ("transmit", "plan_transmit", "deliver_planned")),
    ("net", "repro.net.switch", "SwitchPort", ("receive_frame", "transmit")),
    ("net", "repro.net.nic", "Nic", ("send", "receive_frame")),
    ("net", "repro.net.ip", "IpStack", ("send", "receive_frame")),
    ("net", "repro.net.udp", "UdpLayer", ("send", "handle_packet")),
    ("net", "repro.net.serial_link", "SerialPort", ("send",)),
    ("net", "repro.net.serial_link", "SerialLink", ("transmit",)),
    ("tcp", "repro.tcp.stack", "TcpStack", ("connect", "listen", "_on_packet")),
    ("tcp", "repro.tcp.connection", "TcpConnection",
     ("segment_arrived", "segment_batch_arrived", "write", "read", "close",
      "abort")),
    ("host", "repro.host.host", "Host", ("_frame_up", "power_off")),
    ("apps", "repro.host.app", "Application", ("start", "crash")),
    ("sttcp", "repro.sttcp.manager", "SttcpPair", ("start",)),
    ("sttcp", "repro.sttcp.heartbeat", "HeartbeatService",
     ("send_now", "deliver_from_serial")),
    ("sttcp", "repro.sttcp.primary", "PrimaryEngine",
     ("handle_peer_heartbeat", "release_fin", "enter_non_ft")),
    ("sttcp", "repro.sttcp.backup", "BackupEngine",
     ("handle_peer_heartbeat", "check_fetch", "take_over")),
    ("obs", "repro.obs.bus", "ProbeBus", ("fire",)),
    ("check", "repro.check.oracle", "InvariantOracle", ("attach", "detach")),
    ("scenarios", "repro.scenarios.builder", "Testbed",
     ("snapshot", "restore")),
)

#: (layer, module, function) module-level functions wrapped as spans.
FUNCTIONS = (
    ("scenarios", "repro.scenarios.builder", "build_testbed"),
    ("campaign", "repro.campaign.engine", "execute_trial"),
)

#: Socket upcalls into the application (``TcpConnection`` callback
#: attributes that ``Socket`` installs): the tcp -> apps boundary.
UPCALLS = ("on_established", "on_data_available", "on_peer_fin",
           "on_reset", "on_writable", "on_closed")


class Tracer:
    """Span recorder with per-layer self-time accounting."""

    def __init__(self) -> None:
        #: layer -> ns during which its span was innermost
        self.self_ns: dict[str, int] = defaultdict(int)
        #: the same, counted only inside Simulator.run
        self.run_ns: dict[str, int] = defaultdict(int)
        #: span name -> calls, and inclusive ns
        self.calls: Counter = Counter()
        self.incl_ns: dict[str, int] = defaultdict(int)
        #: (id, parent id, name, start ns, end ns), completion order
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[tuple] = [("outside", 0)]
        self._last = 0
        self._next_id = 0
        self._run_depth = 0
        self._undo: list = []

    # ------------------------------------------------------------ wrapping

    def wrap(self, fn, layer: str, name: str, is_run: bool = False):
        """``fn`` with a span around every call."""
        tracer = self
        clock = time.perf_counter_ns
        stack = self._stack
        self_ns = self.self_ns
        run_ns = self.run_ns
        spans = self.spans
        calls = self.calls
        incl_ns = self.incl_ns

        def traced(*args, **kwargs):
            start = clock()
            outer = stack[-1][0]
            self_ns[outer] += start - tracer._last
            if tracer._run_depth:
                run_ns[outer] += start - tracer._last
            tracer._next_id += 1
            span_id = tracer._next_id
            stack.append((layer, span_id))
            tracer._last = start
            if is_run:
                tracer._run_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self_ns[layer] += end - tracer._last
                if tracer._run_depth:
                    run_ns[layer] += end - tracer._last
                if is_run:
                    tracer._run_depth -= 1
                tracer._last = end
                calls[name] += 1
                incl_ns[name] += end - start
                if len(spans) < MAX_SPANS:
                    spans.append((span_id, stack[-1][1], name, start, end))
                else:
                    tracer.dropped += 1
        return traced

    def __enter__(self) -> "Tracer":
        import importlib

        import_program()
        for layer, module, cls_name, methods in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                name = f"{layer}:{cls_name}.{method}"
                patch_method(self._undo, cls, method,
                             lambda fn, layer=layer, name=name: self.wrap(
                                 fn, layer, name,
                                 is_run=name == "sim:Simulator.run"))
        for layer, module, fn_name in FUNCTIONS:
            patch_function(self._undo, importlib.import_module(module),
                           fn_name, lambda fn, layer=layer, name=fn_name:
                           self.wrap(fn, layer, f"{layer}:{name}"))
        self._patch_boundaries()
        self._last = time.perf_counter_ns()
        return self

    def _patch_boundaries(self) -> None:
        """Spans that need the callable a public function receives."""
        from repro.host.app import Application
        from repro.obs.bus import ProbeBus
        from repro.tcp.sockets import Socket

        tracer = self

        def socket_init(original):
            def wrapper(sock, conn, *args, **kwargs):
                original(sock, conn, *args, **kwargs)
                for attr in UPCALLS:
                    setattr(conn, attr, tracer.wrap(
                        getattr(conn, attr), "apps", f"apps:Socket.{attr}"))
            return wrapper

        def timer(original, kind):
            def wrapper(app, delay_ns, fn, *args, **kwargs):
                return original(app, delay_ns, tracer.wrap(
                    fn, "apps", f"apps:Application.{kind}"), *args, **kwargs)
            return wrapper

        def subscribe(original):
            # The invariant oracle listens on the probe bus: its handlers
            # are the check layer's work inside ProbeBus.fire.
            def wrapper(bus, probe, callback):
                if getattr(callback, "__module__", "").startswith(
                        "repro.check"):
                    callback = tracer.wrap(callback, "check",
                                           f"check:{probe}")
                return original(bus, probe, callback)
            return wrapper

        patch_method(self._undo, Socket, "__init__", socket_init)
        patch_method(self._undo, Application, "every",
                     lambda fn: timer(fn, "every"))
        patch_method(self._undo, Application, "after",
                     lambda fn: timer(fn, "after"))
        patch_method(self._undo, ProbeBus, "subscribe", subscribe)

    def __exit__(self, *exc) -> None:
        end = time.perf_counter_ns()
        self.self_ns[self._stack[-1][0]] += end - self._last
        self._last = end
        unpatch(self._undo)

    # ------------------------------------------------------------- results

    def self_ms(self, layer: str) -> float:
        """Milliseconds during which ``layer`` had the innermost span."""
        return self.self_ns.get(layer, 0) / 1e6

    def covered_frac(self) -> float:
        """Share of Simulator.run time whose innermost span is not sim."""
        total = sum(self.run_ns.values())
        if not total:
            return 0.0
        return 1.0 - self.run_ns.get("sim", 0) / total

    def inclusive_ms(self, prefix: str) -> float:
        """Wall ms inside spans whose name starts with ``prefix``
        (for spans of that prefix that never nest)."""
        return sum(ns for name, ns in self.incl_ns.items()
                   if name.startswith(prefix)) / 1e6

    def write(self, path) -> None:
        """Write the kept spans as JSON lines, after one summary line."""
        with open(path, "w", encoding="ascii") as out:
            out.write(json.dumps({
                "self_ms": {k: v / 1e6 for k, v in sorted(self.self_ns.items())},
                "calls": dict(sorted(self.calls.items())),
                "kept": len(self.spans), "dropped": self.dropped}) + "\n")
            for span_id, parent, name, start, end in self.spans:
                out.write(json.dumps([span_id, parent, name, start, end]) + "\n")
