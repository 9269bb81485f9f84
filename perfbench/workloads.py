"""The three workloads, each one call into a stable public entry point.

Every workload pins each setting it depends on: the seed comes from
``--seed``, ``cc="reno"``, the oracle (``check``), switch egress
filtering and observability (off).  None passes ``warm=``, ``testbed=``
or a snapshot argument.  A workload's :func:`run` returns one
:class:`Rep`: its wall times, the counts it was checked on, and a
signature of simulated statistics that must repeat exactly on every run
with the same seed.

``FULL`` sizes are what the benchmark measures; ``TINY`` sizes run the
same code in about a second, for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import resource
import time
from dataclasses import dataclass, field

__all__ = ["Rep", "WORKLOADS", "FULL", "TINY", "TABLE1_FAULTS", "run"]

#: The eight Table-1 faults, pinned by name so a fault added to the
#: program does not silently change the campaign.
TABLE1_FAULTS = (
    "hw_crash_primary", "hw_crash_backup",
    "app_hang_primary", "app_hang_backup",
    "app_crash_fin_primary", "app_crash_fin_backup",
    "nic_failure_primary", "nic_failure_backup",
)

FULL = {
    # 32 bulk downloads of 1 MB on the faithful broadcast network.
    "stream_bcast32": dict(clients=32, connections=32, bytes_per_conn=1_000_000,
                           mean_interarrival_s=0.02, fault_at_s=1.0,
                           run_until_s=20.0),
    # 256 scripted kv connections (10 SETs + 10 GETs each) over a
    # 256-client fleet with egress filtering on.
    "kv_fleet256": dict(clients=256, connections=256, kv_ops=10,
                        mean_interarrival_s=0.005, fault_at_s=1.0,
                        run_until_s=6.0),
    # 8 Table-1 faults x HB period {100, 500} ms x 2 trials, oracle on.
    "campaign_table1": dict(hb_period_ms=(100, 500), trials=2,
                            total_bytes=2_000_000, fault_at_s=0.1,
                            run_until_s=6.0, jobs=2),
}

TINY = {
    "stream_bcast32": dict(clients=4, connections=4, bytes_per_conn=50_000,
                           mean_interarrival_s=0.02, fault_at_s=0.3,
                           run_until_s=3.0),
    "kv_fleet256": dict(clients=8, connections=8, kv_ops=3,
                        mean_interarrival_s=0.005, fault_at_s=0.3,
                        run_until_s=2.0),
    "campaign_table1": dict(hb_period_ms=(100,), trials=1,
                            total_bytes=200_000, fault_at_s=0.01,
                            run_until_s=2.0, jobs=2),
}


@dataclass
class Rep:
    """One run of a workload."""

    #: perf_counter() when the workload call began and ended
    start: float
    end: float
    #: checked outputs (connections, kv scripts, trials) and the failures
    attempted: int
    failures: list = field(default_factory=list)
    #: the workload's unit of work: stream connections, kv commands,
    #: campaign trials
    ops: int = 0
    #: simulated statistics that must repeat exactly
    signature: dict = field(default_factory=dict)
    #: resource.getrusage deltas, seconds of user + system CPU
    self_cpu_s: float = 0.0
    children_cpu_s: float = 0.0
    retries: int = 0
    violations: int = 0


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _timed(call):
    """Run ``call()`` between two clock and CPU readings."""
    cpu0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    result = call()
    end = time.perf_counter()
    cpu1 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    return result, start, end, cpu1[0] - cpu0[0], cpu1[1] - cpu0[1]


def _run_workload(name: str, seed: int, p: dict) -> Rep:
    from repro.scenarios.options import RunOptions
    from repro.workloads import WorkloadSpec, run_workload_failover

    kind = "stream" if name == "stream_bcast32" else "kv"
    if kind == "stream":
        spec = WorkloadSpec(kind="stream", connections=p["connections"],
                            bytes_per_conn=p["bytes_per_conn"],
                            mean_interarrival_s=p["mean_interarrival_s"])
    else:
        spec = WorkloadSpec(kind="kv", connections=p["connections"],
                            kv_ops=p["kv_ops"],
                            mean_interarrival_s=p["mean_interarrival_s"])
    options = RunOptions(seed=seed, run_until_s=p["run_until_s"], cc="reno",
                         check=False, obs_level=None)
    result, start, end, self_cpu, children_cpu = _timed(
        lambda: run_workload_failover(
            spec, num_clients=p["clients"], fault_at_s=p["fault_at_s"],
            options=options, egress_filtering=(kind == "kv")))
    failures = []
    for record in result.records:
        if not record.completed:
            failures.append(f"connection {record.index} never completed")
        elif not record.stream_intact:
            failures.append(
                f"connection {record.index}: "
                + ("replies differ from the script" if kind == "kv"
                   else "stream not intact"))
    ops = (len(result.records) if kind == "stream"
           else len(result.records) * 2 * p["kv_ops"])
    return Rep(start=start, end=end, attempted=len(result.records),
               failures=failures, ops=ops,
               signature={"takeover_at_ns": result.timeline.takeover_at},
               self_cpu_s=self_cpu, children_cpu_s=children_cpu)


def _clear_warm_cache() -> None:
    """Empty the program's process-wide testbed snapshot cache, if it
    has one, so every campaign run starts from the same empty cache and
    builds its testbeds rather than restoring an earlier run's.  The
    cache is slated for removal, and without it there is nothing to
    empty, so a missing module is not an error."""
    try:
        from repro.campaign.warm import get_cache
    except ImportError:
        return
    get_cache().clear()


def _run_campaign(seed: int, p: dict, jobs: int) -> Rep:
    from repro.campaign import CampaignSpec, run_campaign
    from repro.scenarios.options import RunOptions

    spec = CampaignSpec(
        scenario="failover",
        base={"total_bytes": p["total_bytes"], "fault_at_s": p["fault_at_s"],
              "cc": "reno"},
        grid={"fault": list(TABLE1_FAULTS),
              "hb_period_ms": list(p["hb_period_ms"])},
        trials=p["trials"], seed=seed,
        options=RunOptions(run_until_s=p["run_until_s"], check=True,
                           obs_level=None))
    _clear_warm_cache()
    result, start, end, self_cpu, children_cpu = _timed(
        lambda: run_campaign(spec, jobs=jobs))
    failures, violations = [], 0
    for record in result.records:
        oracle = record.get("oracle") or "off"
        if oracle.startswith("violated:"):
            violations += int(oracle.split(":", 1)[1])
        if record["status"] != "ok":
            failures.append(f"trial {record['index']} {record['params']}: "
                            f"{record['status']} {record.get('error') or ''}")
        elif oracle != "clean":
            failures.append(f"trial {record['index']}: oracle {oracle}")
        elif not record.get("stream_intact"):
            failures.append(f"trial {record['index']}: stream not intact")
    digest = hashlib.sha256(result.to_json().encode()).hexdigest()
    takeovers = [r.get("takeover_at_ns") for r in result.records]
    return Rep(start=start, end=end, attempted=len(result.records),
               failures=failures, ops=len(result.records),
               signature={"aggregate_sha256": digest,
                          "takeover_at_ns": takeovers},
               self_cpu_s=self_cpu, children_cpu_s=children_cpu,
               retries=sum("retrying" in line
                           for line in result.dispatch_log),
               violations=violations)


#: Workload names, in the order BENCHMARK.json lists them.
WORKLOADS = ("stream_bcast32", "kv_fleet256", "campaign_table1")


def run(name: str, seed: int, params: dict, jobs=None) -> Rep:
    """Run workload ``name`` once.  ``jobs`` overrides the campaign's
    worker count (the traced run uses 1)."""
    if name == "campaign_table1":
        return _run_campaign(seed, params, jobs or params["jobs"])
    if name in WORKLOADS:
        return _run_workload(name, seed, params)
    raise ValueError(f"unknown workload {name!r}; one of {WORKLOADS}")
