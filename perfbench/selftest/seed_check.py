#!/usr/bin/env python3
"""Self-test of the benchmark: the seed reaches the generated inputs, and a
workload is the same program on both sides of a comparison.

For each workload it makes three short runs (--seconds 1, so one unit each):
two at seed A and one at seed B. Every run must be correct, the seed-exact
counts printed by the two seed-A runs must be identical, and the seed-B run
must print different ones. Seed A is 2006, the seed of the golden CSVs, so
figures-smoke is also checked byte for byte against results/.

Usage, from the repository root:

    python3 perfbench/selftest/seed_check.py [workload ...]

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py")
WORKLOADS = ["figures-smoke", "nps-disorder", "vivaldi-frog-chaos"]
SEED_A, SEED_B = 2006, 7


def run(workload, seed):
    """One short untraced run: (result JSON, seed-exact counts)."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    exact = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] == "exact":
            exact[parts[1]] = parts[2]
    return json.loads(lines[-1]), exact


def main():
    failures = []
    for workload in sys.argv[1:] or WORKLOADS:
        (r1, a1), (r2, a2), (r3, b) = (run(workload, s) for s in (SEED_A, SEED_A, SEED_B))
        for r, seed in ((r1, SEED_A), (r2, SEED_A), (r3, SEED_B)):
            if not r["correct"] or r["failed"] != 0:
                failures.append(f"{workload} seed {seed}: {r['failed']} of {r['attempted']} failed")
        if not a1:
            failures.append(f"{workload}: no seed-exact counts printed")
        if a1 != a2:
            failures.append(f"{workload}: two runs at seed {SEED_A} differ: {a1} vs {a2}")
        if a1 == b:
            failures.append(f"{workload}: seeds {SEED_A} and {SEED_B} give the same counts {b}")
        print(f"{workload}: seed {SEED_A} twice {a1}; seed {SEED_B} {b}")
    for f in failures:
        print(f"FAIL {f}")
    print("seed check:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
