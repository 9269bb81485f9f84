"""Per-invariant check counts pinned over the Table-1 fault matrix.

``oracle.checks`` is what tells "ran clean" apart from "never looked".
This golden pins it, with the violation count, for the eight Table-1
faults at heartbeat periods of 100 and 500 ms (seed 1, a 200 KB stream,
fault at 10 ms, 2 s of virtual time).  A rewrite of the oracle or of the
probes it reads must leave every count identical: a changed count means
an invariant is now evaluated more or less often than before.

To refresh after an *intended* change to what the oracle evaluates::

    PYTHONPATH=src python tools/make_goldens.py

and commit the regenerated file with an explanation of what changed.
"""

from __future__ import annotations

import json
import pathlib

GOLDEN = (pathlib.Path(__file__).resolve().parent.parent / "goldens"
          / "check-counts-table1-seed1.json")

TABLE1_FAULTS = (
    "hw_crash_primary", "hw_crash_backup",
    "app_hang_primary", "app_hang_backup",
    "app_crash_fin_primary", "app_crash_fin_backup",
    "nic_failure_primary", "nic_failure_backup",
)
HB_PERIODS_MS = (100, 500)


def _trial(fault: str, hb_period_ms: int) -> dict:
    from repro.campaign.scenarios import FAULTS
    from repro.check.oracle import CheckTopology, InvariantOracle
    from repro.scenarios.builder import build_testbed
    from repro.scenarios.options import RunOptions
    from repro.scenarios.runner import run_failover_experiment
    from repro.sim.core import millis
    from repro.sttcp.config import SttcpConfig

    tb = build_testbed(seed=1,
                       config=SttcpConfig(hb_period_ns=millis(hb_period_ms)))
    # Attached by hand rather than with check=True so a breach is counted
    # instead of raised.
    oracle = InvariantOracle(tb.world, CheckTopology.from_testbed(tb)).attach()
    run_failover_experiment(FAULTS[fault], total_bytes=200_000,
                            fault_at_s=0.01,
                            options=RunOptions(seed=1, run_until_s=2.0),
                            testbed=tb)
    oracle.detach()
    return {"checks": dict(oracle.checks),
            "violation_count": oracle.violation_count}


def collect() -> dict:
    """``"<fault>/hb<ms>"`` -> that trial's check counts and violations."""
    return {f"{fault}/hb{hb}": _trial(fault, hb)
            for fault in TABLE1_FAULTS for hb in HB_PERIODS_MS}


def render(counts: dict) -> str:
    """The golden file's exact text."""
    return json.dumps(counts, indent=1, sort_keys=True) + "\n"


def test_check_counts_match_golden():
    assert GOLDEN.exists(), (
        f"missing golden {GOLDEN}; generate with "
        "`PYTHONPATH=src python tools/make_goldens.py`")
    produced = collect()
    expected = json.loads(GOLDEN.read_text())
    assert sorted(produced) == sorted(expected)
    for trial in sorted(expected):
        assert produced[trial] == expected[trial], trial
    assert render(produced) == GOLDEN.read_text()
