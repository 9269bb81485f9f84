"""The runtime invariant oracle.

:class:`InvariantOracle` subscribes to a :class:`~repro.sim.world.World`'s
probe bus and checks every firing against the catalogue in
:mod:`repro.check.invariants`.  It is pure observer: attaching it changes
no timing and no behaviour (probe fields are built eagerly by the
emitters), and detaching restores the zero-overhead idle path.

Three front doors, all documented in ``docs/invariants.md``:

* :class:`CheckedRun` — a context manager that attaches an oracle and
  raises :class:`InvariantViolationError` on exit if anything tripped
  (``scenarios/runner.py`` exposes it as ``check=True``);
* ``--check`` on every CLI demo (``repro.cli``);
* the autouse pytest fixture in ``tests/conftest.py`` (``REPRO_CHECK=1``),
  via :mod:`repro.check.autocheck`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.check.invariants import INVARIANTS
from repro.net.addresses import MacAddress
from repro.net.packet import IPPacket
from repro.obs.bus import ProbeEvent
from repro.sim.core import millis
from repro.tcp.segment import TcpFlags, TcpSegment
from repro.tcp.seq import SEQ_MASK, SEQ_MOD

__all__ = ["CheckTopology", "Violation", "InvariantViolationError",
           "InvariantOracle", "CheckedRun"]

# Largest believable on-wire sequence jump within one flow direction:
# far above any window (64 KiB + retain allowance), far below the random
# ~2^31 distance a wrong-ISN takeover produces.
_SEQ_BAND = 1 << 24

# In-flight allowance for wire.primary-silent: frames the primary queued
# on its cable before STONITH may still drain into the switch briefly.
_TAKEOVER_GRACE_NS = millis(200)

_HALF = SEQ_MOD >> 1
_SYN, _ACK, _FIN, _RST = (TcpFlags.SYN, TcpFlags.ACK, TcpFlags.FIN,
                          TcpFlags.RST)


@dataclass(frozen=True)
class CheckTopology:
    """Wire-layer hints: who is who on the switch (Figure 2)."""

    primary_mac: str
    backup_mac: str
    service_port: int = 80

    @classmethod
    def from_testbed(cls, tb) -> "CheckTopology":
        """Derive the hints from a built scenario testbed."""
        service_port = (tb.pair.config.service_port
                        if tb.pair is not None else 80)
        return cls(primary_mac=str(tb.addresses.primary_mac),
                   backup_mac=str(tb.addresses.backup_mac),
                   service_port=service_port)


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with everything needed to debug it."""

    invariant: str        # id into repro.check.invariants.INVARIANTS
    time: int             # virtual ns of the offending probe event
    conn: str             # connection / flow / service identifier
    detail: str           # human-readable specifics (observed vs expected)
    event: Optional[ProbeEvent] = None   # the probe record itself

    def __str__(self) -> str:
        return (f"[{self.time / 1e9:12.6f}s] {self.invariant}: {self.conn}: "
                f"{self.detail}")


class InvariantViolationError(AssertionError):
    """Raised by :class:`CheckedRun` when a run broke the catalogue."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        shown = "\n".join(f"  {v}" for v in violations[:20])
        more = len(violations) - 20
        super().__init__(
            f"{len(violations)} invariant violation(s):\n{shown}"
            + (f"\n  ... and {more} more" if more > 0 else ""))


class _EndpointState:
    """Per-connection sender/receiver tracking (keyed by probe source)."""

    __slots__ = ("una", "rcv_nxt", "deliver_next")

    def __init__(self, una: int = 0, rcv_nxt: int = 0):
        self.una = una
        self.rcv_nxt = rcv_nxt
        self.deliver_next = 0


class _FlowDirState:
    """Per (src_ip, sport, dst_ip, dport) wire-direction tracking."""

    __slots__ = ("hi_seq", "hi_ack", "max_end")

    def __init__(self):
        self.hi_seq: Optional[int] = None   # running max seq (mod 2^32)
        self.hi_ack: Optional[int] = None   # running max ack (mod 2^32)
        self.max_end: Optional[int] = None  # highest seq end incl. SYN/FIN


def _flow_label(packet: IPPacket, seg: TcpSegment) -> str:
    """``src:port->dst:port``: a wire flow's name in violation reports."""
    return f"{packet.src}:{seg.src_port}->{packet.dst}:{seg.dst_port}"


class InvariantOracle:
    """Checks probe traffic against the invariant catalogue.

    Violations are collected, not raised — callers decide (``CheckedRun``
    raises at exit, the pytest fixture asserts at teardown).  ``checks``
    counts evaluations per invariant so "ran clean" is distinguishable
    from "never looked".

    The handlers run once per probe fire, so they do only the comparisons
    themselves: flows are keyed by the addresses' integer values, the
    sequence arithmetic is inlined, and a violation's connection label and
    detail text are formatted only when a check fails.
    """

    def __init__(self, world, topology: Optional[CheckTopology] = None,
                 max_recorded: int = 200):
        self.world = world
        self.topology = topology
        self.max_recorded = max_recorded
        self.violations: list[Violation] = []
        self.violation_count = 0           # keeps counting past the cap
        self.checks: dict[str, int] = {inv: 0 for inv in INVARIANTS}
        self._endpoints: dict[str, _EndpointState] = {}
        self._flows: dict[tuple, _FlowDirState] = {}
        self._hb_seq: dict[str, int] = {}
        # connection key -> heartbeat source -> last progress counters
        self._hb_progress: dict[tuple, dict[str, tuple]] = {}
        self._takeover_at: Optional[int] = None
        self._takeover_sources: set[str] = set()
        self._nonft_sources: set[str] = set()
        # Topology hints resolved once, so the per-frame check compares ints.
        self._service_port: Optional[int] = None
        self._primary_mac: Optional[int] = None
        self._backup_mac: Optional[int] = None
        if topology is not None:
            self._service_port = topology.service_port
            self._primary_mac = MacAddress(topology.primary_mac)._value
            self._backup_mac = MacAddress(topology.backup_mac)._value
        self._subs: list = []
        self._attached = False

    # ------------------------------------------------------------ plumbing

    def attach(self) -> "InvariantOracle":
        """Subscribe to the probes the catalogue needs (idempotent)."""
        if self._attached:
            return self
        probes = self.world.probes
        for name, handler in (("tcp.segment_tx", self._on_segment_tx),
                              ("tcp.deliver", self._on_deliver),
                              ("eth.frame", self._on_frame),
                              ("hb.state", self._on_heartbeat),
                              ("sttcp.takeover", self._on_takeover),
                              ("sttcp.non-ft-mode", self._on_non_ft),
                              ("sttcp.conn-replicated", self._on_replicated)):
            self._subs.append(probes.subscribe(name, handler))
        self._attached = True
        return self

    def detach(self) -> None:
        """Stop observing (collected violations stay queryable)."""
        for sub in self._subs:
            self.world.probes.unsubscribe(sub)
        self._subs.clear()
        self._attached = False

    def _fail(self, invariant: str, event: Optional[ProbeEvent], conn: str,
              detail: str) -> None:
        self.violation_count += 1
        if len(self.violations) < self.max_recorded:
            self.violations.append(Violation(
                invariant, event.time if event else self.world.now,
                conn, detail, event))

    def report(self) -> str:
        """Human-readable summary: per-invariant check/violation counts."""
        lines = [f"invariant oracle: {self.violation_count} violation(s)"]
        for inv_id in INVARIANTS:
            lines.append(f"  {inv_id:28s} checked {self.checks[inv_id]:>9d}")
        for violation in self.violations:
            lines.append(f"  VIOLATION {violation}")
        return "\n".join(lines)

    # ------------------------------------------------- tcp-endpoint layer

    def _on_segment_tx(self, ev: ProbeEvent) -> None:
        f = ev.fields
        una, nxt = f.get("una"), f.get("nxt")
        if una is None or nxt is None:
            return
        flags = f.get("flags", "")
        source = ev.source
        checks = self.checks
        state = self._endpoints.get(source)
        if state is None or "SYN" in flags:
            # First sighting, or a new incarnation reusing the name.
            state = self._endpoints[source] = _EndpointState(
                una, f.get("rcv_nxt", 0))
        checks["tcp.snd-una-le-nxt"] += 1
        if una > nxt:
            self._fail("tcp.snd-una-le-nxt", ev, source,
                       f"snd_una={una} > snd_nxt={nxt}")
        checks["tcp.snd-una-monotone"] += 1
        if una < state.una:
            self._fail("tcp.snd-una-monotone", ev, source,
                       f"snd_una retreated {state.una} -> {una}")
        else:
            state.una = una
        mss = f.get("mss")
        if mss:
            cwnd, ssthresh = f.get("cwnd"), f.get("ssthresh")
            checks["tcp.cwnd-floor"] += 1
            if cwnd < mss:
                self._fail("tcp.cwnd-floor", ev, source,
                           f"cwnd={cwnd} < 1 MSS ({mss})")
            checks["tcp.ssthresh-floor"] += 1
            if ssthresh < 2 * mss:
                self._fail("tcp.ssthresh-floor", ev, source,
                           f"ssthresh={ssthresh} < 2 MSS ({2 * mss})")
        off = f.get("off")
        if off is not None and "SYN" not in flags and "RST" not in flags:
            # (RSTs are exempt: a reset for a bogus handshake ack echoes
            # the offender's ack field as its seq, per RFC 793.)
            checks["tcp.seq-in-window"] += 1
            if not una <= off <= nxt:
                self._fail("tcp.seq-in-window", ev, source,
                           f"segment offset {off} outside [una={una}, "
                           f"nxt={nxt}]")
        rcv_nxt = f.get("rcv_nxt")
        if rcv_nxt is not None:
            checks["tcp.rcv-nxt-monotone"] += 1
            if rcv_nxt < state.rcv_nxt:
                self._fail("tcp.rcv-nxt-monotone", ev, source,
                           f"rcv_next retreated {state.rcv_nxt} -> "
                           f"{rcv_nxt}")
            else:
                state.rcv_nxt = rcv_nxt

    def _on_deliver(self, ev: ProbeEvent) -> None:
        f = ev.fields
        off = f.get("off")
        if off is None:
            return
        source = ev.source
        state = self._endpoints.get(source)
        if state is None:
            state = self._endpoints[source] = _EndpointState()
        elif off == 0 and state.deliver_next > 0:
            state.deliver_next = 0   # new incarnation reusing the name
        self.checks["tcp.deliver-contiguous"] += 1
        if off != state.deliver_next:
            self._fail("tcp.deliver-contiguous", ev, source,
                       f"delivery at offset {off}, expected "
                       f"{state.deliver_next} (gap or re-delivery)")
        state.deliver_next = off + f.get("len", 0)

    # --------------------------------------------------------- wire layer

    def _on_frame(self, ev: ProbeEvent) -> None:
        frame = ev.fields.get("frame")
        packet = getattr(frame, "payload", None)
        if not isinstance(packet, IPPacket):
            return
        seg = packet.payload
        if not isinstance(seg, TcpSegment):
            return
        src, dst = packet.src._value, packet.dst._value
        sport, dport = seg.src_port, seg.dst_port
        flags = seg.flags
        flows = self._flows
        fkey = (src, sport, dst, dport)
        flow = flows.get(fkey)
        if flow is None or flags & _SYN:
            # New flow direction, or a new incarnation (a SYN legitimately
            # restarts the sequence space; ST-TCP takeover never SYNs).
            flow = flows[fkey] = _FlowDirState()
        checks = self.checks
        service_port = self._service_port
        if service_port is not None and (sport == service_port
                                         or dport == service_port):
            src_mac = frame.src._value
            takeover_at = self._takeover_at
            if src_mac == self._backup_mac:
                checks["wire.backup-silent"] += 1
                if takeover_at is None or ev.time < takeover_at:
                    self._fail("wire.backup-silent", ev,
                               _flow_label(packet, seg),
                               "backup emitted a service-flow frame before "
                               "takeover (output suppression breached)")
            elif src_mac == self._primary_mac and takeover_at is not None:
                checks["wire.primary-silent"] += 1
                if ev.time > takeover_at + _TAKEOVER_GRACE_NS:
                    self._fail("wire.primary-silent", ev,
                               _flow_label(packet, seg),
                               f"primary emitted a service-flow frame "
                               f"{(ev.time - takeover_at) / 1e6:.1f} ms "
                               f"after takeover (dual active)")
        seq = seg.seq
        if not flags & _RST:
            hi_seq = flow.hi_seq
            if hi_seq is None:
                flow.hi_seq = seq
            else:
                jump = (seq - hi_seq) & SEQ_MASK   # seq_sub(seq, hi_seq)
                if jump >= _HALF:
                    jump -= SEQ_MOD
                checks["wire.seq-continuity"] += 1
                if not -_SEQ_BAND < jump < _SEQ_BAND:
                    self._fail("wire.seq-continuity", ev,
                               _flow_label(packet, seg),
                               f"seq {seq} is {jump:+d} from the running "
                               f"max {hi_seq} (discontinuous space)")
                if jump > 0:
                    flow.hi_seq = seq
        end = (seq + len(seg.payload) + (1 if flags & _SYN else 0)
               + (1 if flags & _FIN else 0)) & SEQ_MASK
        max_end = flow.max_end
        if max_end is None or 0 < (end - max_end) & SEQ_MASK < _HALF:
            flow.max_end = end
        if flags & _ACK and not flags & _RST:
            ack = seg.ack
            hi_ack = flow.hi_ack
            if hi_ack is None:
                flow.hi_ack = ack
            else:
                advance = (ack - hi_ack) & SEQ_MASK
                checks["wire.ack-monotone"] += 1
                if advance >= _HALF:
                    self._fail("wire.ack-monotone", ev,
                               _flow_label(packet, seg),
                               f"ack retreated {hi_ack} -> {ack} "
                               f"({advance - SEQ_MOD:+d})")
                elif advance:
                    flow.hi_ack = ack
            reverse = flows.get((dst, dport, src, sport))
            if reverse is not None and reverse.max_end is not None:
                peer_end = reverse.max_end
                beyond = (ack - peer_end) & SEQ_MASK
                checks["wire.ack-beyond-data"] += 1
                if 0 < beyond < _HALF:
                    self._fail("wire.ack-beyond-data", ev,
                               _flow_label(packet, seg),
                               f"ack {ack} is {beyond:+d} beyond the "
                               f"peer's highest sent byte {peer_end}")

    # ---------------------------------------------------- heartbeat layer

    def _on_heartbeat(self, ev: ProbeEvent) -> None:
        hb = ev.fields.get("hb")
        if hb is None:
            return
        source = ev.source
        prev_seq = self._hb_seq.get(source)
        if prev_seq is not None:
            self.checks["hb.seq-monotone"] += 1
            if hb.seq <= prev_seq:
                self._fail("hb.seq-monotone", ev, source,
                           f"heartbeat seq {hb.seq} after {prev_seq}")
        self._hb_seq[source] = hb.seq
        hb_progress = self._hb_progress
        for progress in hb.connections:
            counters = (progress.last_byte_received,
                        progress.last_ack_received,
                        progress.last_app_byte_written,
                        progress.last_app_byte_read)
            by_source = hb_progress.get(progress.key)
            if by_source is None:
                by_source = hb_progress[progress.key] = {}
            prev = by_source.get(source)
            if prev is not None:
                self.checks["hb.progress-monotone"] += 1
                if not (counters[0] >= prev[0] and counters[1] >= prev[1]
                        and counters[2] >= prev[2]
                        and counters[3] >= prev[3]):
                    self._fail("hb.progress-monotone", ev,
                               f"{source}:{progress.key}",
                               f"progress counters retreated {prev} -> "
                               f"{counters}")
            by_source[source] = counters

    # -------------------------------------------------------- sttcp layer

    def _on_takeover(self, ev: ProbeEvent) -> None:
        if "key" in ev.fields:
            return   # per-connection logger-recovery completion, not a
                     # second engine-level takeover
        if self._takeover_at is None:
            self._takeover_at = ev.time
        self.checks["sttcp.single-active"] += 1
        if self._takeover_sources and ev.source not in self._takeover_sources:
            self._fail("sttcp.single-active", ev, ev.source,
                       f"second takeover (already taken over by "
                       f"{sorted(self._takeover_sources)})")
        if self._nonft_sources:
            self._fail("sttcp.single-active", ev, ev.source,
                       f"takeover after non-FT mode on "
                       f"{sorted(self._nonft_sources)} (split brain)")
        self._takeover_sources.add(ev.source)

    def _on_non_ft(self, ev: ProbeEvent) -> None:
        self.checks["sttcp.single-active"] += 1
        if self._takeover_sources:
            self._fail("sttcp.single-active", ev, ev.source,
                       f"non-FT mode after takeover by "
                       f"{sorted(self._takeover_sources)} (split brain)")
        self._nonft_sources.add(ev.source)

    def _on_replicated(self, ev: ProbeEvent) -> None:
        key = ev.fields.get("key")
        if key is None:
            return
        # A fresh replica announcement restarts the progress space for
        # that connection key (e.g. a client port reused after close).
        self._hb_progress.pop(key, None)


class CheckedRun:
    """Attach an oracle for the duration of a ``with`` block and raise
    :class:`InvariantViolationError` on exit if anything tripped.

    ::

        with CheckedRun(tb.world, CheckTopology.from_testbed(tb)):
            tb.run_until(60)
    """

    def __init__(self, world, topology: Optional[CheckTopology] = None,
                 raise_on_violation: bool = True):
        self.oracle = InvariantOracle(world, topology)
        self.raise_on_violation = raise_on_violation

    def __enter__(self) -> InvariantOracle:
        return self.oracle.attach()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.oracle.detach()
        if (exc_type is None and self.raise_on_violation
                and self.oracle.violations):
            raise InvariantViolationError(self.oracle.violations)
