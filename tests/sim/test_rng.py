"""Unit tests for the deterministic RNG registry."""

from repro.sim.rng import RngRegistry


def test_same_name_returns_same_stream():
    registry = RngRegistry(seed=1)
    assert registry.stream("a") is registry.stream("a")


def test_streams_are_reproducible_across_registries():
    r1 = RngRegistry(seed=42)
    r2 = RngRegistry(seed=42)
    assert [r1.stream("x").random() for _ in range(5)] == \
           [r2.stream("x").random() for _ in range(5)]


def test_different_names_are_independent():
    registry = RngRegistry(seed=42)
    a = [registry.stream("a").random() for _ in range(5)]
    b = [registry.stream("b").random() for _ in range(5)]
    assert a != b


def test_request_order_does_not_matter():
    r1 = RngRegistry(seed=7)
    r2 = RngRegistry(seed=7)
    a1 = r1.stream("a")
    r1.stream("b")
    r2.stream("b")
    a2 = r2.stream("a")
    assert [a1.random() for _ in range(3)] == [a2.random() for _ in range(3)]


def test_different_seeds_differ():
    assert RngRegistry(seed=1).stream("x").random() != \
           RngRegistry(seed=2).stream("x").random()


def test_seed_property():
    assert RngRegistry(seed=99).seed == 99


def _lan(seed=1234, **kwargs):
    from repro.sim.world import World
    from tests.conftest import make_lan
    return make_lan(World(seed=seed), **kwargs)


def _streams(world, prefix):
    return sorted(name for name in world.rng._streams
                  if name.startswith(prefix))


def test_lossless_cables_create_no_stream():
    lan = _lan()
    lan.world.run(until=1_000_000)
    assert _streams(lan.world, "cable.") == []
    lan.cables[0].loss_rate = 0.0
    assert _streams(lan.world, "cable.") == []


def test_lossy_cable_fetches_its_stream_at_construction():
    lan = _lan(loss_rate=0.1)
    assert _streams(lan.world, "cable.") == sorted(
        f"cable.{c.name}" for c in lan.cables)


def _lossy_mid_run(eager: bool):
    """Echo traffic over a LAN whose first cable turns lossy mid-run;
    returns the cable's loss record and stream state."""
    from repro.apps.echo import EchoClient, EchoServer
    from repro.sim.core import millis, seconds

    lan = _lan()
    cable = lan.cables[0]
    eager_stream = (lan.world.rng.stream(f"cable.{cable.name}")
                    if eager else None)
    EchoServer(lan.hosts[0], "server", port=7).start()
    client = EchoClient(lan.hosts[1], "client", lan.ip(0), port=7,
                        interval_ns=millis(5), count=40)
    client.start()
    lan.world.run(until=millis(50))
    cable.loss_rate = 0.2
    lan.world.run(until=seconds(30))
    if eager:
        assert cable._rng is eager_stream
    return cable.frames_lost, client.rtts_ns, cable._rng.getstate()


def test_loss_enabled_mid_run_draws_like_an_eager_stream():
    lazy = _lossy_mid_run(eager=False)
    eager = _lossy_mid_run(eager=True)
    assert lazy[0] > 0
    assert lazy == eager


def test_isn_stream_is_fetched_on_first_connection():
    from repro.apps.echo import EchoClient, EchoServer
    from repro.sim.core import seconds

    lan = _lan()
    assert _streams(lan.world, "tcp.isn.") == []
    EchoServer(lan.hosts[0], "server", port=7).start()
    EchoClient(lan.hosts[1], "client", lan.ip(0), port=7, count=1).start()
    lan.world.run(until=seconds(1))
    names = _streams(lan.world, "tcp.isn.")
    assert names == ["tcp.isn.h0.tcp", "tcp.isn.h1.tcp"]
    # One ISN each, drawn exactly as from a fresh registry's stream.
    fresh = RngRegistry(seed=1234)
    for name in names:
        stream = fresh.stream(name)
        stream.randrange(1 << 32)
        assert lan.world.rng.stream(name).getstate() == stream.getstate()
