"""Self-check of the benchmark harness.

    python3 bench/selfcheck.py [--seed 1]

Run from the root of a relint-kit checkout.  For every workload it makes
two traced runs and one untraced run, each in a fresh process, and
asserts that:

  * the deterministic counters (tracing.DETERMINISTIC) and the chunk-0
    output digest are identical between the two traced runs;
  * no operation failed in any run (error_rate 0);
  * the metric names printed are exactly those BENCHMARK.json lists.

Exits 0 when everything holds and 1 otherwise, naming each problem.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracing import DETERMINISTIC

RUN = Path(__file__).with_name("run.py")


def run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=False)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} --trace {trace} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.splitlines()
    digest = next(line.split()[-1] for line in lines if line.startswith("chunk 0 digest"))
    return json.loads(lines[-1]), digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark harness self-check")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        (first, d1), (second, d2), (plain, _) = (
            run(workload, args.seed, 1), run(workload, args.seed, 1), run(workload, args.seed, 0))
        for trace, result in ((1, first), (1, second), (0, plain)):
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload}: {result['failed']} of {result['attempted']} failed")
            if list(result["metrics"]) != names[trace]:
                problems.append(f"{workload} --trace {trace}: metric names differ from BENCHMARK.json")
        for key in DETERMINISTIC:
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            if a != b:
                problems.append(f"{workload}: {key} {a} then {b}")
        if d1 != d2:
            problems.append(f"{workload}: chunk 0 digest {d1} then {d2}")
        counters = ", ".join(f"{k} {first['metrics'][k]['value']}" for k in DETERMINISTIC)
        print(f"{workload}: {counters}; digest {d1[:16]}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
