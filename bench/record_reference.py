"""Records the reference values the benchmark checks every run against.

Usage, from the root of a checkout:

    python3 bench/record_reference.py

For every workload and every input variant it runs the workload's commands
once and stores each command's exit code and the values its artifacts hold
(bound, CL, final losses, ...) in bench/reference.json, plus, for the
verify workload, which outcome names each suite produces.  Record it only
from a commit whose outputs are trusted: the benchmark then counts any later
difference beyond 1e-9 relative as a failed operation.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Same thread counts as a benchmark run, set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["GENBOUND_THREADS"] = str(
    len(os.sched_getaffinity(0))
)
sys.path.insert(0, os.path.join(ROOT, "src"))

import genbound.checks  # noqa: E402
import genbound.cli  # noqa: E402

import workloads  # noqa: E402


def record_variant(name: str, v: int, work: str) -> dict:
    plan = workloads.plan(name, v, ROOT, work)
    _, exits = workloads.run_rep(plan, genbound.cli.main)
    if any(code != 0 for code in exits.values()):
        raise SystemExit(f"{name} variant {v}: exit codes {exits}; pick inputs on which nothing fails")
    entry = {"exit": exits, "values": {label: workloads.observe(plan, label) for label, _ in plan.commands}}
    if name == "verify_all":
        if not all(entry["values"]["verify"].values()):
            raise SystemExit(f"verify variant {v}: a suite failed")
        entry["suites"] = {
            suite: [o.name for o in genbound.checks.run_suites([suite], seed=v)]
            for suite in workloads.SUITES
        }
    return entry


def main() -> int:
    reference = {}
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    for name in workloads.NAMES:
        reference[name] = {}
        for v in workloads.variants(name):
            with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_work")) as work:
                reference[name][str(v)] = record_variant(name, v, work)
            print(f"recorded {name} variant {v}", file=sys.stderr)
    path = os.path.join(BENCH_DIR, "reference.json")
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
