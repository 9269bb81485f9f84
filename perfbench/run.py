"""The repository benchmark: one command, three workloads, split by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream_bcast32 --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload repeatedly for ``--seconds`` seconds and
reports every end-to-end metric: the time metrics of the fastest run
and the median set-up time, scaled to the machine's reference speed.
``--trace 1`` runs it once untraced and once with layer spans (see
``spans.py``) and reports the per-layer metrics.  Either way the last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The command exits 1, after printing that line, when any output is wrong
(a stream not intact, a kv reply that differs from the script, a trial
that failed or broke an invariant) or when the simulated statistics
differ between two runs of the same seed; and 2, printing no result,
when the program is missing or the arguments are bad.  See README.md in
this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: End-to-end metrics and their units, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_s_per_sim_s": "s/s",
    "us_per_data_segment": "us",
    "payload_mb_per_s": "MB/s",
    "us_per_op": "us",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics and their units, in BENCHMARK.json order.
PER_LAYER = {
    "net.self_ms": "ms",
    "net.frames_delivered": "count",
    "net.frames_filtered": "count",
    "net.flood_useful_ratio": "ratio",
    "tcp.self_ms": "ms",
    "tcp.ns_per_segment": "ns",
    "tcp.segments_sent": "count",
    "tcp.retransmissions": "count",
    "tcp.acks_sent": "count",
    "sim.self_ms": "ms",
    "sim.dispatched": "count",
    "sim.credited": "count",
    "sim.ns_per_dispatch": "ns",
    "sim.dispatch_per_op": "ratio",
    "apps.self_ms": "ms",
    "host.self_ms": "ms",
    "sttcp.self_ms": "ms",
    "sttcp.heartbeats_sent": "count",
    "sttcp.serial_bytes": "bytes",
    "check.self_ms": "ms",
    "check.violations": "count",
    "obs.self_ms": "ms",
    "obs.probe_fires": "count",
    "scenarios.build_ms": "ms",
    "campaign.parent_cpu_s": "s",
    "campaign.worker_cpu_s": "s",
    "campaign.parallel_eff": "ratio",
    "campaign.retries": "count",
    "trace.overhead_ratio": "ratio",
    "trace.covered_frac": "ratio",
}


def rep_metrics(rep, counts: dict) -> dict:
    """End-to-end metrics of one run (all but peak_rss_mb)."""
    first_run = counts["first_run_t"]
    wall = rep.end - first_run
    trials = counts["trials"] or 1
    return {
        "setup_s": first_run - rep.start,
        "wall_s": wall,
        "wall_s_per_sim_s": wall / (counts["sim_ns"] / 1e9),
        "us_per_data_segment": wall * 1e6 / counts["client_segments"],
        "payload_mb_per_s": counts["client_payload"] / 1e6 / wall,
        "us_per_op": wall * 1e6 / rep.ops,
        "trials_per_s": trials / wall,
    }


def signature(rep, counts: dict) -> dict:
    """Simulated statistics that must repeat exactly for one seed."""
    out = {k: v for k, v in counts.items() if k != "first_run_t"}
    out["credited"] = counts["events"] - counts["dispatched"]
    out.update(rep.signature)
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


class Session:
    """Runs of one workload in one invocation, checked as they land."""

    def __init__(self, workload: str, seed: int, params: dict, probe):
        self.workload = workload
        self.seed = seed
        self.params = params
        self.probe = probe
        self.attempted = 0
        self.failures: list[str] = []
        self.signatures: list[dict] = []

    def run(self, jobs=None):
        """One checked run; returns (rep, counts)."""
        import workloads

        gc.collect()
        self.probe.reset()
        rep = workloads.run(self.workload, self.seed, self.params, jobs=jobs)
        counts = self.probe.counts()
        self.attempted += rep.attempted
        self.failures.extend(rep.failures)
        self.signatures.append(signature(rep, counts))
        return rep, counts

    def diverged(self) -> list[str]:
        """Fields whose value differs between any two runs."""
        first = self.signatures[0]
        return sorted({k for sig in self.signatures[1:] for k in first
                       if sig.get(k) != first[k]})


def warm_up(workload: str, seed: int, probe) -> None:
    """One tiny run first, so imports and lazy set-up are not timed."""
    import workloads

    probe.reset()
    workloads.run(workload, seed, workloads.TINY[workload])


#: The reference loop's fastest time (refloop.time_once) on the 2-CPU
#: container that recorded results/baseline.json.
REFERENCE_LOOP_S = 0.038

#: Time metrics, and the rates among them, for scaling to that speed.
TIMES = ("setup_s", "wall_s", "wall_s_per_sim_s", "us_per_data_segment",
         "us_per_op")
RATES = ("payload_mb_per_s", "trials_per_s")


def measure(session: Session, seconds: float) -> dict:
    """End-to-end metrics from repeated untraced runs for ``seconds``.

    The runs repeat identical simulated work (the determinism guard
    checks it), so their wall times differ only by interference from the
    rest of the machine, which only ever adds time.  The time metrics
    therefore come from the fastest run, as ``timeit`` does, and set-up
    time is the median over the runs.  Before each run the reference
    loop is timed a few times; every time metric is scaled by
    ``REFERENCE_LOOP_S`` over the loop's fastest time in this
    invocation, which cancels slow spells of the machine that last
    longer than one run (README.md, "Noise").  Peak RSS is the
    high-water mark.
    """
    import refloop

    per_run: list[dict] = []
    loop_s: list[float] = []
    start = time.perf_counter()
    while not per_run or time.perf_counter() - start < seconds:
        gc.collect()
        loop_s.extend(refloop.time_once() for _ in range(6))
        rep, counts = session.run()
        per_run.append(rep_metrics(rep, counts))
    raw = dict(min(per_run, key=lambda run: run["wall_s"]))
    raw["setup_s"] = statistics.median(run["setup_s"] for run in per_run)
    speed = min(loop_s) / REFERENCE_LOOP_S
    metrics = {name: raw[name] / speed for name in TIMES}
    metrics.update({name: raw[name] * speed for name in RATES})
    metrics["peak_rss_mb"] = peak_rss_mb()
    walls = sorted(run["wall_s"] for run in per_run)
    print(f"runs: {len(per_run)}, raw wall_s min {walls[0]:.4f} "
          f"median {statistics.median(walls):.4f} max {walls[-1]:.4f}; "
          f"reference loop {min(loop_s) * 1e3:.2f} ms fastest "
          f"(machine at {1 / speed:.3f} of reference speed)")
    print("raw: " + ", ".join(f"{name}={raw[name]:.6g}"
                              for name in (*TIMES, *RATES)))
    return metrics


def measure_traced(session: Session, out_dir: pathlib.Path) -> dict:
    """Per-layer metrics: one untraced and one traced run, same mode.

    The campaign runs in-process (jobs=1) for both, plus one run at its
    own worker count for the pool metrics.
    """
    from spans import Tracer

    campaign = session.workload == "campaign_table1"
    jobs = 1 if campaign else None
    pool = session.run()[0] if campaign else None
    base, _ = session.run(jobs=jobs)
    with Tracer() as tracer:
        traced, counts = session.run(jobs=jobs)
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{session.workload}-seed{session.seed}.jsonl")

    pool = pool or base
    pool_wall = pool.end - pool.start
    tcp_segments = counts["segments_sent"] + counts["segments_received"]
    accepted, filtered = counts["nic_accepted"], counts["frames_filtered"]
    dispatched = counts["dispatched"]
    return {
        "net.self_ms": tracer.self_ms("net"),
        "net.frames_delivered": counts["frames_delivered"],
        "net.frames_filtered": filtered,
        "net.flood_useful_ratio": accepted / ((accepted + filtered) or 1),
        "tcp.self_ms": tracer.self_ms("tcp"),
        "tcp.ns_per_segment": tracer.self_ns["tcp"] / (tcp_segments or 1),
        "tcp.segments_sent": counts["segments_sent"],
        "tcp.retransmissions": counts["retransmissions"],
        "tcp.acks_sent": counts["acks_sent"],
        "sim.self_ms": tracer.self_ms("sim"),
        "sim.dispatched": dispatched,
        "sim.credited": counts["events"] - dispatched,
        "sim.ns_per_dispatch": tracer.self_ns["sim"] / (dispatched or 1),
        "sim.dispatch_per_op": dispatched / traced.ops,
        "apps.self_ms": tracer.self_ms("apps"),
        "host.self_ms": tracer.self_ms("host"),
        "sttcp.self_ms": tracer.self_ms("sttcp"),
        "sttcp.heartbeats_sent": counts["heartbeats_sent"],
        "sttcp.serial_bytes": counts["serial_bytes"],
        "check.self_ms": tracer.self_ms("check"),
        "check.violations": traced.violations,
        "obs.self_ms": tracer.self_ms("obs"),
        "obs.probe_fires": counts["probe_fires"],
        "scenarios.build_ms": tracer.inclusive_ms("scenarios:"),
        "campaign.parent_cpu_s": pool.self_cpu_s if campaign else 0.0,
        "campaign.worker_cpu_s": pool.children_cpu_s,
        "campaign.parallel_eff": (
            pool.children_cpu_s / (session.params["jobs"] * pool_wall)
            if campaign else 0.0),
        "campaign.retries": pool.retries if campaign else 0,
        "trace.overhead_ratio": ((traced.end - traced.start)
                                 / (base.end - base.start)),
        "trace.covered_frac": tracer.covered_frac(),
    }


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the untraced runs measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the same workload at test size")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is not there ({SRC / 'repro'} missing)",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    import workloads
    from probe import Probe

    sizes = workloads.FULL if args.size == "full" else workloads.TINY
    with Probe() as probe:
        session = Session(args.workload, args.seed, sizes[args.workload],
                          probe)
        warm_up(args.workload, args.seed, probe)
        if args.trace:
            metrics = measure_traced(session, HERE / "out")
            units = PER_LAYER
        else:
            metrics = measure(session, args.seconds)
            units = END_TO_END

    diverged = session.diverged()
    failed = len(session.failures)
    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]:>16.6g} {unit}")
    print(f"{'failed_frac':28s} {failed / session.attempted:>16.6g} "
          f"({failed} of {session.attempted} outputs wrong)")
    first = session.signatures[0]
    print("determinism: " + ("DIVERGED in " + ", ".join(diverged) if diverged
                             else f"identical across {len(session.signatures)} runs")
          + " | " + ", ".join(
              f"{k}={first[k]}" for k in ("events", "dispatched", "credited",
                                          "client_segments", "trials")))
    print(f"takeover_at_ns={first['takeover_at_ns']}"
          + (f" aggregate_sha256={first['aggregate_sha256']}"
             if "aggregate_sha256" in first else ""))
    for failure in session.failures[:10]:
        print(f"WRONG OUTPUT: {failure}", file=sys.stderr)
    if diverged:
        print(f"NONDETERMINISTIC: {', '.join(diverged)} differ between runs "
              f"of seed {args.seed}", file=sys.stderr)

    correct = not failed and not diverged
    print(json.dumps({
        "correct": correct, "attempted": session.attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
