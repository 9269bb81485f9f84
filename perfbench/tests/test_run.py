"""The benchmark's own tests: every metric printed, wrong output refused.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload runs at its ``--size tiny`` scale (about a second).  The
red tests break one program output at a time with ``monkeypatch`` (the
campaign's forked workers inherit the patch) and require the command to
exit non-zero.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (the benchmark entry point, imported by path)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def tiny(workload: str, trace: int = 0, seed: int = 1) -> list[str]:
    return ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--size", "tiny"]


def test_benchmark_json_matches_the_command():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        "stream_bcast32", "kv_fleet256", "campaign_table1"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == run.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *tiny(workload)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for metric in BENCHMARK["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert value["value"] > 0, metric["name"]
        assert metric["name"] in proc.stdout.split("{")[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_prints_every_layer_metric(workload, capsys):
    assert run.main(tiny(workload, trace=1)) == 0
    out = capsys.readouterr().out
    metrics = result_of(out)["metrics"]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(metrics)
    value = {name: m["value"] for name, m in metrics.items()}
    assert value["check.violations"] == 0
    # The oracle runs only in the campaign.
    assert (value["check.self_ms"] > 0) == (workload == "campaign_table1")
    for counter in ("sim.dispatched", "tcp.segments_sent",
                    "net.frames_delivered", "sttcp.heartbeats_sent"):
        assert value[counter] > 0, counter
    assert value["scenarios.build_ms"] > 0
    assert value["trace.overhead_ratio"] > 1
    assert 0 < value["trace.covered_frac"] < 1
    assert (HERE / "out" / f"trace-{workload}-seed1.jsonl").is_file()
    if workload == "campaign_table1":
        # Every tiny trial (8 faults x 1 period x 1 trial) was counted,
        # from the forked workers and in-process alike.
        assert "trials=8" in out
        # The traced run builds its own testbed instead of restoring a
        # snapshot cached by the untraced run before it.
        summary = json.loads((HERE / "out" / f"trace-{workload}-seed1.jsonl")
                             .read_text().splitlines()[0])
        assert summary["calls"].get("scenarios:build_testbed", 0) >= 1
    else:
        # Nothing is charged to a campaign that did not run.
        assert value["campaign.parent_cpu_s"] == 0
        assert value["campaign.retries"] == 0


def test_corrupt_stream_fails(monkeypatch, capsys):
    from repro.apps import streaming

    def corrupt(offset, length, original=streaming.pattern_bytes):
        data = original(offset, length)
        return (bytes([data[0] ^ 0xFF]) + data[1:]) if offset == 0 else data

    monkeypatch.setattr(streaming, "pattern_bytes", corrupt)
    assert run.main(tiny("stream_bcast32")) == 1
    result = result_of(capsys.readouterr().out)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_wrong_kv_reply_fails(monkeypatch, capsys):
    from repro.apps.kvstore import KvServer

    def execute(self, line, original=KvServer._execute):
        reply = original(self, line)
        return b"VALUE wrong\n" if reply.startswith(b"VALUE") else reply

    monkeypatch.setattr(KvServer, "_execute", execute)
    assert run.main(tiny("kv_fleet256")) == 1
    result = result_of(capsys.readouterr().out)
    assert not result["correct"] and result["failed"] > 0


def test_failed_trial_fails(monkeypatch, capsys):
    from repro.campaign import scenarios

    def broken(tb, sp, sb):
        raise RuntimeError("fault factory broken on purpose")

    monkeypatch.setitem(scenarios.FAULTS, "nic_failure_backup", broken)
    assert run.main(tiny("campaign_table1")) == 1
    result = result_of(capsys.readouterr().out)
    assert not result["correct"] and result["failed"] == 1


def test_nondeterministic_program_fails(monkeypatch, capsys):
    # A fault instant that moves by 150 ms per call: the traced run's
    # simulated statistics then differ from the untraced run's.
    from repro.workloads import runner

    calls = []

    def drifting(s, original=runner.seconds):
        calls.append(s)
        return original(s) + 150_000_000 * len(calls)

    monkeypatch.setattr(runner, "seconds", drifting)
    assert run.main(tiny("stream_bcast32", trace=1)) == 1
    out = capsys.readouterr()
    assert "NONDETERMINISTIC" in out.err
    assert not result_of(out.out)["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *tiny("stream_bcast32")],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        check=False)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
