"""Counters read from outside the program, on every run.

The benchmark touches no program code.  Before a workload runs, the
probe wraps a handful of public entry points that are each called a few
times per run, never per event, so the timed runs pay nothing
measurable for them:

* ``Simulator.run``: the instant of the first call (the end of set-up),
  the callbacks each call dispatched (its return value), the logical
  events it executed (``events_processed``; the difference is credited
  flood deliveries) and the virtual time it advanced;
* ``TcpConnection.__init__``: remembers every connection, so closed
  ones still count;
* ``build_testbed`` and ``Testbed.restore``: remember every testbed;
* ``execute_trial`` (campaign engine) and ``run_workload_failover``:
  fold the counters of the trial's or run's testbed and connections
  once it ends.

Folding reads public counters (``Cable.frames_delivered``,
``Nic.frames_received``/``frames_filtered``,
``TcpConnection.segments_sent`` and friends, ``HeartbeatService.sent``,
``ProbeBus.fired``) into a table in shared memory.  Campaign workers are
forked from the benchmark process, inherit the wrappers and write into
the same table, so a ``jobs=2`` campaign is counted exactly like an
in-process one.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import sys
import time

__all__ = ["FIELDS", "Probe", "import_program", "patch_method",
           "patch_function", "unpatch"]

#: The shared counters, in array order.  Every field but ``first_run_t``
#: is a deterministic count of simulated work.
FIELDS = (
    "first_run_t",        # perf_counter() at the first Simulator.run
    "trials",             # campaign trials folded
    "dispatched",         # callbacks Simulator.run dispatched
    "events",             # logical events (dispatched + credited)
    "sim_ns",             # virtual time advanced by Simulator.run
    "client_segments",    # segments delivered to client endpoints
    "client_payload",     # payload bytes client applications read
    "segments_sent",      # every TcpConnection, replicas included
    "segments_received",
    "retransmissions",
    "acks_sent",
    "frames_delivered",   # Cable.frames_delivered, all cables
    "nic_accepted",       # Nic.frames_received, all NICs
    "frames_filtered",    # Nic.frames_filtered, all NICs
    "heartbeats_sent",    # HeartbeatService.sent, both servers
    "serial_bytes",       # HeartbeatService.bytes_sent_serial
    "probe_fires",        # ProbeBus.fired
)


def import_program() -> None:
    """Import the entry-point packages, so every ``from ... import``
    copy of a patched function exists before :func:`patch_function`
    looks for it (a module imported later would keep whichever function
    was current at its import, and outlive the patch)."""
    import repro.campaign  # noqa: F401
    import repro.workloads  # noqa: F401


def patch_method(undo: list, cls, name: str, make_wrapper) -> None:
    """Replace ``cls.name`` with ``make_wrapper(original)``; record the
    original in ``undo``.  A missing name raises, so a renamed entry
    point fails the benchmark instead of silently going unmeasured."""
    original = cls.__dict__[name]
    if isinstance(original, staticmethod):
        fn = original.__func__
        wrapper = staticmethod(functools.wraps(fn)(make_wrapper(fn)))
    else:
        wrapper = functools.wraps(original)(make_wrapper(original))
    setattr(cls, name, wrapper)
    undo.append((cls, name, original))


def patch_function(undo: list, module, name: str, make_wrapper) -> None:
    """Replace the module-level function ``module.name`` and every
    ``from module import name`` copy of it in the loaded ``repro``
    modules."""
    original = getattr(module, name)
    wrapper = functools.wraps(original)(make_wrapper(original))
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name.startswith("repro")
                and getattr(mod, name, None) is original):
            setattr(mod, name, wrapper)
            undo.append((mod, name, original))


def unpatch(undo: list) -> None:
    """Restore everything ``patch_*`` replaced, newest first."""
    while undo:
        owner, name, original = undo.pop()
        setattr(owner, name, original)


class Probe:
    """The always-on counters; use as a context manager around runs.

    Counts go to one row per trial (row 0 outside a campaign) of a table
    in an anonymous shared mapping: forked campaign workers inherit it,
    each trial writes only its own row, so no lock is needed, and a
    retried trial overwrites the row of its lost attempt.
    """

    #: Rows in the table: the largest campaign it can count.
    ROWS = 1024

    def __init__(self) -> None:
        width = len(FIELDS)
        self._mem = mmap.mmap(-1, self.ROWS * width * 8)
        self._table = (ctypes.c_double * (self.ROWS * width)).from_buffer(
            self._mem)
        # This process's counts for the run or trial in progress.
        self._local = dict.fromkeys(FIELDS, 0)
        self._testbeds: list = []
        self._conns: list = []
        self._undo: list = []

    # ------------------------------------------------------------ lifecycle

    def __enter__(self) -> "Probe":
        import_program()
        from repro.campaign import engine as campaign_engine
        from repro.scenarios import builder
        from repro.sim.core import Simulator
        from repro.tcp.connection import TcpConnection
        from repro.workloads import runner as workloads_runner

        probe = self
        local = self._local

        def run(original):
            def wrapper(sim, *args, **kwargs):
                if not local["first_run_t"]:
                    local["first_run_t"] = time.perf_counter()
                events = sim.events_processed
                now = sim.now
                dispatched = original(sim, *args, **kwargs)
                local["dispatched"] += dispatched
                local["events"] += sim.events_processed - events
                local["sim_ns"] += sim.now - now
                return dispatched
            return wrapper

        def conn_init(original):
            def wrapper(conn, *args, **kwargs):
                original(conn, *args, **kwargs)
                probe._conns.append(conn)
            return wrapper

        def keep_testbed(original):
            def wrapper(*args, **kwargs):
                testbed = original(*args, **kwargs)
                probe._testbeds.append(testbed)
                return testbed
            return wrapper

        def workload(original):
            def wrapper(*args, **kwargs):
                probe._forget()
                result = original(*args, **kwargs)
                probe.fold()
                return result
            return wrapper

        def trial(original):
            def wrapper(spec):
                probe._forget()
                record = original(spec)
                local["trials"] = 1
                probe.fold(row=spec.index)
                return record
            return wrapper

        patch_method(self._undo, Simulator, "run", run)
        patch_method(self._undo, TcpConnection, "__init__", conn_init)
        patch_function(self._undo, builder, "build_testbed", keep_testbed)
        patch_method(self._undo, builder.Testbed, "restore", keep_testbed)
        patch_function(self._undo, campaign_engine, "execute_trial", trial)
        patch_function(self._undo, workloads_runner, "run_workload_failover",
                       workload)
        return self

    def __exit__(self, *exc) -> None:
        unpatch(self._undo)
        self._forget()

    # -------------------------------------------------------------- counters

    def reset(self) -> None:
        """Zero every row and forget remembered objects."""
        ctypes.memset(self._table, 0, ctypes.sizeof(self._table))
        self._forget()

    def counts(self) -> dict:
        """Counters summed over all rows; ``first_run_t`` is the
        earliest first ``Simulator.run`` of any row."""
        width = len(FIELDS)
        table = self._table
        out = dict.fromkeys(FIELDS, 0)
        first = []
        for row in range(self.ROWS):
            values = table[row * width:(row + 1) * width]
            if values[0]:
                first.append(values[0])
            for name, value in zip(FIELDS[1:], values[1:]):
                out[name] += int(value)
        out["first_run_t"] = min(first) if first else 0.0
        return out

    def fold(self, row: int = 0) -> None:
        """Write this process's counts and those of the remembered
        testbeds and connections into ``row``, then forget them."""
        if not 0 <= row < self.ROWS:
            raise ValueError(f"row {row} outside the probe's {self.ROWS} rows")
        totals = self._local
        for conn in self._conns:
            totals["segments_sent"] += conn.segments_sent
            totals["segments_received"] += conn.segments_received
            totals["retransmissions"] += conn.retransmissions
            totals["acks_sent"] += conn.acks_sent
            if conn.name.startswith("client"):
                totals["client_segments"] += conn.segments_received
                totals["client_payload"] += conn.last_app_byte_read
        for tb in self._testbeds:
            totals["frames_delivered"] += sum(
                cable.frames_delivered for cable in tb.cables.values())
            for host in (*tb.clients, tb.primary, tb.backup):
                for nic in host.nics:
                    totals["nic_accepted"] += nic.frames_received
                    totals["frames_filtered"] += nic.frames_filtered
            if tb.pair is not None:
                for engine in (tb.pair.primary, tb.pair.backup):
                    totals["heartbeats_sent"] += engine.hb.sent
                    totals["serial_bytes"] += engine.hb.bytes_sent_serial
            totals["probe_fires"] += tb.world.probes.fired
        width = len(FIELDS)
        self._table[row * width:(row + 1) * width] = [
            float(totals[name]) for name in FIELDS]
        self._forget()

    def _forget(self) -> None:
        for name in FIELDS:
            self._local[name] = 0
        self._testbeds.clear()
        self._conns.clear()
