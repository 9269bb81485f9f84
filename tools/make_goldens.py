"""Regenerate the committed goldens under tests/goldens/: the wire
traces and the oracle's per-invariant check counts.

Usage (from the repo root)::

    PYTHONPATH=src python tools/make_goldens.py

Only run this after an *intended* wire-behaviour change, and commit the
refreshed files together with the change that caused them.  The scenario
registries live in tests/obs/test_golden_traces.py and
tests/check/test_check_counts.py so the generator and the comparison
tests can never drift apart.
"""

from __future__ import annotations

import pathlib
import shutil
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from tests.check import test_check_counts  # noqa: E402
from tests.obs.test_golden_traces import (  # noqa: E402
    GOLDEN_ARTIFACTS, GOLDEN_DIR, SCENARIOS)


def main() -> int:
    for name, scenario in sorted(SCENARIOS.items()):
        with tempfile.TemporaryDirectory() as tmp:
            paths = scenario(pathlib.Path(tmp))
            out_dir = GOLDEN_DIR / name
            out_dir.mkdir(parents=True, exist_ok=True)
            for artifact in GOLDEN_ARTIFACTS:
                dest = out_dir / artifact
                shutil.copyfile(paths[artifact], dest)
                print(f"{dest.relative_to(REPO_ROOT)}: "
                      f"{dest.stat().st_size} bytes")
    dest = test_check_counts.GOLDEN
    dest.write_text(test_check_counts.render(test_check_counts.collect()))
    print(f"{dest.relative_to(REPO_ROOT)}: {dest.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
