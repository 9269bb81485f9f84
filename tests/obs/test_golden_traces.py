"""Golden wire-trace equivalence suite (ROADMAP item 4 pattern).

Obs exports are byte-deterministic per seed, so canonical JSONL frame
and timeline exports for a curated scenario set are committed under
``tests/goldens/`` and every run is compared byte-for-byte against
them.  Any change to TCP/ST-TCP wire behaviour — intended or not —
shows up as a golden diff; pure performance work (like the segment-path
fast lane) must keep these exports byte-identical.

To refresh after an *intended* wire-behaviour change::

    PYTHONPATH=src python tools/make_goldens.py

and commit the regenerated files with an explanation of what changed.
"""

from __future__ import annotations

import pathlib

import pytest

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "goldens"
GOLDEN_ARTIFACTS = ("frames.jsonl", "tcp_timeline.jsonl")


def _failover(tmp_path, cc=None):
    from repro.faults.faults import HwCrash
    from repro.scenarios.options import RunOptions
    from repro.scenarios.runner import run_failover_experiment

    result = run_failover_experiment(
        lambda tb, sp, sb: HwCrash(tb.primary),
        total_bytes=60_000, fault_at_s=0.5,
        options=RunOptions(seed=7, run_until_s=3, obs_level="frames", cc=cc))
    return result.obs.write(tmp_path)


def _workload(tmp_path):
    from repro.scenarios.options import RunOptions
    from repro.workloads import WorkloadSpec, run_workload_failover

    spec = WorkloadSpec(kind="stream", connections=6, bytes_per_conn=20_000,
                        mean_interarrival_s=0.01)
    result = run_workload_failover(
        spec, num_clients=4, fault_at_s=0.5,
        options=RunOptions(seed=3, run_until_s=6, obs_level="frames"))
    return result.obs.write(tmp_path)


def _workload_kv(tmp_path):
    # Kv scripts that straddle a primary crash on an egress-filtered
    # fleet: pins the client's command pacing across the failover stall.
    from repro.scenarios.options import RunOptions
    from repro.workloads import WorkloadSpec, run_workload_failover

    spec = WorkloadSpec(kind="kv", connections=4, kv_ops=8, start_s=0.48,
                        mean_interarrival_s=0.01)
    result = run_workload_failover(
        spec, num_clients=4, fault_at_s=0.5,
        options=RunOptions(seed=11, run_until_s=3, obs_level="frames"),
        egress_filtering=True)
    assert result.all_intact
    return result.obs.write(tmp_path)


def _baseline(tmp_path):
    from repro.scenarios.options import RunOptions
    from repro.scenarios.runner import run_baseline_failover

    result = run_baseline_failover(
        total_bytes=60_000, fault_at_s=0.5,
        options=RunOptions(seed=5, run_until_s=4, obs_level="frames"))
    return result.obs.write(tmp_path)


# name -> callable(tmp_path) -> {artifact: path}; tools/make_goldens.py
# imports this registry to (re)generate the committed files.
SCENARIOS = {
    "failover-hwcrash-seed7": _failover,
    "workload-6conn-seed3": _workload,
    "workload-kv-seed11": _workload_kv,
    "baseline-hotstandby-seed5": _baseline,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_exports_match_committed_goldens(name, tmp_path):
    paths = SCENARIOS[name](tmp_path)
    for artifact in GOLDEN_ARTIFACTS:
        golden = GOLDEN_DIR / name / artifact
        assert golden.exists(), (
            f"missing golden {golden}; generate with "
            "`PYTHONPATH=src python tools/make_goldens.py`")
        produced = pathlib.Path(paths[artifact]).read_bytes()
        expected = golden.read_bytes()
        if produced != expected:
            # Point at the first differing row so the failure says *what*
            # changed on the wire, not just that something did.
            got_lines = produced.decode().splitlines()
            want_lines = expected.decode().splitlines()
            for i, (got, want) in enumerate(zip(got_lines, want_lines)):
                if got != want:
                    pytest.fail(
                        f"{name}/{artifact} row {i} diverges from golden:\n"
                        f"  golden: {want[:200]}\n"
                        f"  got:    {got[:200]}")
            pytest.fail(
                f"{name}/{artifact} length diverges from golden "
                f"({len(want_lines)} golden rows vs {len(got_lines)} got)")


def test_explicit_reno_matches_default_goldens(tmp_path):
    """``cc="reno"`` is the default spelled out: selecting it explicitly
    must leave every committed golden byte-identical (the congestion-
    control refactor's A/B guarantee — no behaviour drift, and no ``cc``
    field leaking onto the default timeline)."""
    paths = _failover(tmp_path, cc="reno")
    for artifact in GOLDEN_ARTIFACTS:
        golden = GOLDEN_DIR / "failover-hwcrash-seed7" / artifact
        assert pathlib.Path(paths[artifact]).read_bytes() == golden.read_bytes()
