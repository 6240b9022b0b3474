"""Regenerate perfbench/reference.json from the current sphattn sources.

    python3 perfbench/make_reference.py [workload ...]

Runs one iteration per pool key of each named workload (all by default) and
stores the outputs the benchmark later compares against.  Refuses to write
when any trial fails, since the benchmark's workloads must run without error.
Regenerating the reference changes what counts as correct: do it only in a
change that defines or corrects the benchmark, and say why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import OUT, WORKLOADS  # noqa: E402


def main(names) -> int:
    ref = json.loads(workloads.REFERENCE.read_text()) if workloads.REFERENCE.is_file() else {}
    for name in names or WORKLOADS:
        entries = {}
        with workloads.WORKLOADS[name](OUT / f"work-reference-{name}") as wl:
            for key in wl.pool:
                out = wl.iteration(key)
                entry = wl.reference(out)
                attempted, failed = wl.check(out, entry)
                if failed:
                    print(f"{name} key {key}: {failed} of {attempted} failed", file=sys.stderr)
                    return 1
                entries[str(key)] = entry
                print(f"{name} key {key}: ok", flush=True)
        ref[name] = entries
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
