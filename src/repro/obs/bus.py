"""The probe bus — components fire named probe points, observers attach.

The bus is layered on the :class:`~repro.sim.trace.TraceLog`: a fire of a
``traced`` probe produces exactly the trace record the component used to
emit directly (same category, source, message and fields), so existing
trace-based tests see identical output.  Non-traced probes (the
high-volume packet taps) reach only bus subscribers.

The design goal is zero overhead when nobody is listening.  Hot emitters
ask :meth:`ProbeBus.wants` first — a single cached dict lookup — and skip
building their field values entirely when a fire would reach no
subscriber, no wildcard, and (for traced probes) no enabled trace
category.  The cache is invalidated on every subscription change and
whenever the trace log's category filter changes.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional

from repro.obs.registry import PROBES, ProbeSpec, UnknownProbeError

__all__ = ["ProbeEvent", "ProbeBus"]


class ProbeEvent(NamedTuple):
    """One probe firing, as delivered to subscribers.

    An immutable named tuple rather than a frozen dataclass: one is built
    per fire that reaches a subscriber, and a tuple is constructed in one
    step instead of one ``object.__setattr__`` per field."""

    time: int                    # virtual time, ns
    probe: str                   # registered probe name, e.g. "tcp.retransmit"
    category: str                # the probe's trace category
    source: str                  # component name, e.g. "primary.tcp"
    message: str                 # human-readable summary
    fields: dict[str, Any]       # the fire's keyword fields

    @property
    def time_s(self) -> float:
        """Event time in (float) seconds."""
        return self.time / 1_000_000_000


Subscriber = Callable[[ProbeEvent], None]

# (spec, default message) per probe name, shared by every bus instance —
# the registry is immutable, so this is computed once at import.
_PROBE_INFO: dict[str, tuple[ProbeSpec, str]] = {
    name: (spec, name.split(".", 1)[1] if "." in name else name)
    for name, spec in PROBES.items()}


class ProbeBus:
    """Named probe points with per-probe and wildcard subscribers."""

    __slots__ = ("_clock", "_trace", "_subs", "_all", "wants_map", "fired")

    def __init__(self, clock: Callable[[], int], trace=None):
        self._clock = clock
        self._trace = trace
        self._subs: dict[str, list[Subscriber]] = {}
        self._all: list[Subscriber] = []
        # probe -> "would a fire do any work", eagerly recomputed for every
        # registered probe on any subscription or trace-filter change.
        # Hot emitters index this dict directly (``probes.wants_map[...]``)
        # — subscription changes are rare, per-frame fires are not.
        self.wants_map: dict[str, bool] = {}
        self.fired = 0  # probes that actually built an event for a subscriber
        self._invalidate()
        if trace is not None:
            trace.on_filter_change(self._invalidate)

    # ---------------------------------------------------------- subscribing

    def subscribe(self, probe: str, callback: Subscriber) -> Subscriber:
        """Attach ``callback`` to one probe point; returns the callback."""
        self._spec(probe)  # validate the name early
        self._subs.setdefault(probe, []).append(callback)
        self._invalidate()
        return callback

    def subscribe_all(self, callback: Subscriber) -> Subscriber:
        """Attach ``callback`` to every probe point."""
        self._all.append(callback)
        self._invalidate()
        return callback

    def unsubscribe(self, callback: Subscriber) -> None:
        """Detach a callback wherever it is attached (idempotent)."""
        for subs in self._subs.values():
            while callback in subs:
                subs.remove(callback)
        while callback in self._all:
            self._all.remove(callback)
        self._invalidate()

    def enabled(self, probe: str) -> bool:
        """True when a fire of ``probe`` would reach at least one
        subscriber — hot paths may use this to skip building expensive
        field values."""
        return bool(self._subs.get(probe)) or bool(self._all)

    def wants(self, probe: str) -> bool:
        """True when a fire of ``probe`` would do *any* work — reach a
        subscriber, a wildcard, or (for traced probes) an enabled trace
        category.  One dict lookup: hot emitters guard with this (or index
        :attr:`wants_map` directly) and skip building field values."""
        try:
            return self.wants_map[probe]
        except KeyError:
            self._spec(probe)  # raises UnknownProbeError with the hint
            raise

    def _invalidate(self) -> None:
        """Recompute the whole wants map (subscription/filter change)."""
        subs = self._subs
        any_all = bool(self._all)
        trace = self._trace
        m = self.wants_map
        for name, (spec, _msg) in _PROBE_INFO.items():
            value = bool(subs.get(name)) or any_all
            if not value and spec.traced and trace is not None:
                value = trace.wants(spec.category)
            m[name] = value

    # --------------------------------------------------------------- firing

    def fire(self, probe: str, source: str, message: Optional[str] = None,
             **fields: Any) -> None:
        """Fire one probe point.

        ``message`` defaults to the probe's event name (the part after the
        category).  Unregistered probe names raise
        :class:`~repro.obs.registry.UnknownProbeError` — the registry is
        the single source of truth, so drift fails fast.
        """
        info = _PROBE_INFO.get(probe)
        if info is None:
            self._spec(probe)  # raises UnknownProbeError with the hint
            raise AssertionError("unreachable")  # pragma: no cover
        spec, default_message = info
        subs = self._subs.get(probe)
        if subs or self._all:
            self.fired += 1
            event = ProbeEvent(self._clock(), probe, spec.category, source,
                               message if message is not None
                               else default_message, fields)
            for callback in subs or ():
                callback(event)
            for callback in self._all:
                callback(event)
        if spec.traced and self._trace is not None:
            self._trace.record(spec.category, source,
                               message if message is not None
                               else default_message, **fields)

    # ----------------------------------------------------------------- misc

    @staticmethod
    def _spec(probe: str) -> ProbeSpec:
        spec = PROBES.get(probe)
        if spec is None:
            raise UnknownProbeError(
                f"probe {probe!r} is not in the registry "
                f"(repro.obs.registry.PROBES; see docs/observability.md)")
        return spec

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n_subs = sum(len(s) for s in self._subs.values())
        return f"<ProbeBus subs={n_subs} wildcard={len(self._all)}>"
