"""Tests for the key-value store application."""

from repro.apps.kvstore import KvClient, KvServer
from repro.sim.core import millis, seconds


def test_basic_operations(lan):
    KvServer(lan.hosts[0], "kv", port=6379).start()
    client = KvClient(lan.hosts[1], "c", lan.ip(0), commands=[
        b"SET a 1", b"GET a", b"DEL a", b"GET a", b"KEYS"])
    client.start()
    lan.world.run(until=seconds(5))
    assert client.replies == [b"OK", b"VALUE 1", b"OK", b"MISSING",
                              b"COUNT 0"]


def test_state_accumulates(lan):
    server = KvServer(lan.hosts[0], "kv", port=6379)
    server.start()
    commands = [b"SET k%d v%d" % (i, i) for i in range(20)] + [b"KEYS"]
    client = KvClient(lan.hosts[1], "c", lan.ip(0), commands=commands)
    client.start()
    lan.world.run(until=seconds(5))
    assert client.replies[-1] == b"COUNT 20"
    assert server.store[b"k7"] == b"v7"


def test_errors_are_deterministic(lan):
    KvServer(lan.hosts[0], "kv", port=6379).start()
    client = KvClient(lan.hosts[1], "c", lan.ip(0), commands=[
        b"", b"BOGUS x", b"SET onlykey", b"GET"])
    client.start()
    lan.world.run(until=seconds(5))
    assert all(reply.startswith(b"ERR") for reply in client.replies)


def test_two_replicas_reach_identical_state(lan3):
    s0 = KvServer(lan3.hosts[0], "kv0", port=6379)
    s1 = KvServer(lan3.hosts[1], "kv1", port=6379)
    s0.start()
    s1.start()
    commands = [b"SET x 1", b"SET y 2", b"DEL x", b"SET z 3"]
    KvClient(lan3.hosts[2], "c0", lan3.ip(0), commands=commands).start()
    KvClient(lan3.hosts[2], "c1", lan3.ip(1), commands=commands).start()
    lan3.world.run(until=seconds(5))
    assert s0.store == s1.store == {b"y": b"2", b"z": b"3"}


def test_kv_state_survives_sttcp_failover():
    """The stateful-service headline: keys written before the crash are
    readable from the (former) backup after failover, on the SAME
    connection."""
    from repro.faults.faults import HwCrash
    from repro.scenarios.builder import build_testbed
    from repro.sim.core import seconds as s

    tb = build_testbed(seed=41)
    primary_kv = KvServer(tb.primary, "kv-p", port=80)
    backup_kv = KvServer(tb.backup, "kv-b", port=80)
    primary_kv.start()
    backup_kv.start()
    tb.pair.start()
    commands = ([b"SET k%d v%d" % (i, i) for i in range(50)]
                + [b"GET k25", b"KEYS"]
                + [b"GET k%d" % i for i in range(50)])
    client = KvClient(tb.client, "c", tb.service_ip, port=80,
                      commands=commands, interval_ns=millis(20))
    client.start()
    # The writes take 50*20ms = 1s; crash right after them.
    tb.inject.at(s(1.2), HwCrash(tb.primary))
    tb.run_until(60)
    assert client.reset_count == 0
    assert client.done
    assert client.replies[50] == b"VALUE v25"
    assert client.replies[51] == b"COUNT 50"
    # Every key written to the dead primary is served by the backup.
    assert client.replies[52:] == [b"VALUE v%d" % i for i in range(50)]
    assert backup_kv.store == {b"k%d" % i: b"v%d" % i for i in range(50)}


class _RecordingKvClient(KvClient):
    """Notes the virtual instant of every send and every reply."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sent_at: list[int] = []
        self.replied_at: list[int] = []

    def _send_next(self) -> None:
        before = self._next_command
        super()._send_next()
        if self._next_command > before:
            self.sent_at.append(self.world.sim.now)

    def _on_data(self, sock) -> None:
        before = len(self.replies)
        super()._on_data(sock)
        self.replied_at.extend([self.world.sim.now]
                               * (len(self.replies) - before))


def _assert_grid_paced(client, interval):
    t0 = client.sent_at[0]
    for prev_reply, sent in zip(client.replied_at, client.sent_at[1:]):
        assert (sent - t0) % interval == 0
        # The first grid instant strictly after the reply that freed it.
        assert prev_reply < sent <= prev_reply + interval


def test_sends_lie_on_the_connect_grid(lan):
    KvServer(lan.hosts[0], "kv", port=6379).start()
    client = _RecordingKvClient(
        lan.hosts[1], "c", lan.ip(0), interval_ns=millis(3),
        commands=[b"SET k%d v" % i for i in range(10)])
    client.start()
    lan.world.run(until=seconds(5))
    assert client.done and len(client.sent_at) == 10
    _assert_grid_paced(client, millis(3))


def test_sends_stay_on_the_grid_across_a_failover_stall():
    from repro.faults.faults import HwCrash
    from repro.scenarios.builder import build_testbed

    tb = build_testbed(seed=41)
    KvServer(tb.primary, "kv-p", port=80).start()
    KvServer(tb.backup, "kv-b", port=80).start()
    tb.pair.start()
    commands = [b"SET k%d v%d" % (i, i) for i in range(20)]
    client = _RecordingKvClient(tb.client, "c", tb.service_ip, port=80,
                                commands=commands, interval_ns=millis(20))
    client.start()
    tb.inject.at(seconds(0.2), HwCrash(tb.primary))
    tb.run_until(10)
    assert client.done and client.replies == [b"OK"] * 20
    _assert_grid_paced(client, millis(20))
    # The crash stalled one command for many intervals; pacing resumed
    # on the same grid afterwards.
    gaps = [b - a for a, b in zip(client.sent_at, client.sent_at[1:])]
    assert max(gaps) > 10 * millis(20)


class _Reply:
    """A socket stand-in that yields one reply line."""

    is_open = True

    def read(self) -> bytes:
        return b"OK\n"


def test_reply_on_a_grid_instant_sends_one_interval_later(lan):
    # A listener that never answers: replies are fed by hand at chosen
    # instants.
    lan.hosts[0].tcp.listen(6379, lambda sock: None)
    interval = millis(2)
    client = _RecordingKvClient(lan.hosts[1], "c", lan.ip(0),
                                interval_ns=interval,
                                commands=[b"SET a 1", b"SET b 2", b"SET c 3"])
    client.start()
    lan.world.run(until=millis(1))
    t0 = client.sent_at[0]
    sim = lan.world.sim
    # Exactly on a grid instant: the next send waits a whole interval.
    sim.schedule_at(t0 + interval, client._on_data, _Reply())
    # Between grid instants: the next send is the next grid instant.
    sim.schedule_at(t0 + 2 * interval + interval // 2, client._on_data,
                    _Reply())
    lan.world.run(until=seconds(1))
    assert client.sent_at == [t0, t0 + 2 * interval, t0 + 3 * interval]


def test_finished_client_leaves_no_pending_event(lan):
    KvServer(lan.hosts[0], "kv", port=6379).start()
    client = KvClient(lan.hosts[1], "c", lan.ip(0),
                      commands=[b"SET a 1", b"GET a"])
    client.start()
    lan.world.run(until=seconds(1))
    assert client.done
    # The connection is still open but idle: nothing is scheduled.
    assert client.sock.is_open
    assert lan.world.sim.pending_events == 0
