"""Tests for the echo server/client pair."""

from repro.apps.echo import EchoClient, EchoServer
from repro.sim.core import millis, seconds


def test_echo_roundtrips(lan):
    EchoServer(lan.hosts[0], "server", port=7).start()
    done = []
    client = EchoClient(lan.hosts[1], "client", lan.ip(0), port=7,
                        message_size=64, interval_ns=millis(10), count=20,
                        on_complete=lambda: done.append(True))
    client.start()
    lan.world.run(until=seconds(5))
    assert done == [True]
    assert len(client.rtts_ns) == 20
    assert client.mean_rtt_ns is not None
    assert client.mean_rtt_ns < millis(5)  # LAN RTT


def test_echo_preserves_byte_count_under_load(lan):
    server = EchoServer(lan.hosts[0], "server", port=7)
    server.start()
    client = EchoClient(lan.hosts[1], "client", lan.ip(0), port=7,
                        message_size=8192, interval_ns=millis(1), count=200)
    client.start()
    lan.world.run(until=seconds(30))
    assert server.bytes_echoed == 8192 * 200
    assert len(client.rtts_ns) == 200


def test_echo_server_handles_concurrent_clients(lan3):
    EchoServer(lan3.hosts[0], "server", port=7).start()
    clients = []
    for i in range(3):
        c = EchoClient(lan3.hosts[1], f"c{i}", lan3.ip(0), port=7,
                       message_size=100, interval_ns=millis(5), count=10)
        c.start()
        clients.append(c)
    lan3.world.run(until=seconds(5))
    assert all(len(c.rtts_ns) == 10 for c in clients)


def test_rtt_grows_with_bottleneck(world):
    from tests.conftest import make_lan
    lan = make_lan(world, bandwidth_bps=1_000_000)  # 1 Mbps: slow
    EchoServer(lan.hosts[0], "server", port=7).start()
    client = EchoClient(lan.hosts[1], "client", lan.ip(0), port=7,
                        message_size=4096, interval_ns=millis(50), count=5)
    client.start()
    lan.world.run(until=seconds(10))
    # 2 x 4096B at 1Mbps is ~65ms serialization alone.
    assert client.mean_rtt_ns > millis(50)


def test_finished_client_leaves_no_pending_event(lan):
    EchoServer(lan.hosts[0], "server", port=7).start()
    client = EchoClient(lan.hosts[1], "client", lan.ip(0), port=7,
                        interval_ns=millis(10), count=5)
    client.start()
    lan.world.run(until=seconds(300))
    assert len(client.rtts_ns) == 5
    # Pacing stopped at the last send; TIME_WAIT has long expired.
    assert lan.world.sim.pending_events == 0


def test_send_instants_are_unchanged_by_stopping_the_pacer(lan):
    EchoServer(lan.hosts[0], "server", port=7).start()
    client = EchoClient(lan.hosts[1], "client", lan.ip(0), port=7,
                        interval_ns=millis(10), count=4)
    client.start()
    lan.world.run(until=seconds(1))
    t0 = client._send_times[0]
    assert client._send_times == [t0 + k * millis(10) for k in range(4)]
