"""relint-kit benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload lp-batch --seed 1 --seconds 25 --trace 0

Run it from the root of a relint-kit checkout: it imports relint_kit from
./src and refuses to run (exit 2) where there is none.  The load is a
closed loop with one client: each operation starts when the previous one
has finished.  Operations come in chunks built from (workload, seed,
chunk index); every memo table of relint_kit is cleared at the start of a
chunk, and the run ends at the first chunk boundary after --seconds with
at least MIN_OPS operations done, so every run measures whole chunks.

Times are taken at reference speed.  On a host shared with other tenants
the speed of a core can drift by up to 2x within seconds, so every timed
call is bracketed by runs of `reference_work`, a fixed pure-Python
rational row reduction, and its wall time is scaled by REFERENCE_S over
their median.
Wall-clock figures are printed alongside for comparison.

--trace 0 prints the end-to-end metrics; set-up time is the median of
SETUP_PROBES fresh interpreters that each import relint_kit and build the
first chunk.  --trace 1 repeats chunk 0 untraced and traced, in turn, for
--seconds, prints the per-layer metrics of the first traced pass and
writes its spans to .bench_trace/<workload>-<seed>.tsv.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

SETUP_PROBES = 7
MIN_OPS = 100
SHOWN_ERRORS = 5
WORKLOADS = ("lp-batch", "decide-fresh", "geometry-dd", "cli-repeat")
# Nominal duration of reference_work: about what it takes on an idle core
# of a 2 GHz x86-64 host, so scaled times read close to wall times there.
# Fixed, so runs of any commit compare.
REFERENCE_S = 0.002
_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, (i + 2 * j) % 4 + 1) for j in range(9)]
           for i in range(8)]


def reference_work() -> None:
    """Gauss-Jordan elimination of a fixed 8x9 rational matrix: the same
    kind of work as the simplex row updates, of fixed size."""
    rows = [row[:] for row in _MATRIX]
    for k in range(len(rows)):
        p = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if p is None:
            continue
        rows[k], rows[p] = rows[p], rows[k]
        inv = 1 / rows[k][k]
        pivot = rows[k] = [a * inv for a in rows[k]]
        for i in range(len(rows)):
            f = rows[i][k]
            if i != k and f:
                rows[i] = [a - f * b for a, b in zip(rows[i], pivot)]


def speed_probe() -> float:
    """Wall seconds reference_work takes right now."""
    start = perf_counter()
    reference_work()
    return perf_counter() - start


class ChunkResult(NamedTuple):
    digest: str
    latencies: list      # scaled seconds, certified operations only
    busy: float          # scaled seconds inside operations, failed ones included
    wall: float          # the same as busy, in wall seconds
    attempted: int
    failed: int
    errors: list
    cache_hits: int
    cache_misses: int


def run_chunk(ops, memo, tracer=None) -> ChunkResult:
    """Run one chunk in order; time each call, then check its output.

    Checks run outside the timed region and, in a traced pass, with the
    tracer idle; the cache counters are read around the calls only."""
    digest = hashlib.sha256()
    errors = []
    failed = hits = misses = 0
    walls, certified = [], []
    probes = [speed_probe()]
    for op in ops:
        if tracer is not None:
            before = [t.cache_info() for t in memo]
            tracer.begin(op.name)
        error = None
        start = perf_counter()
        try:
            out = op.call()
        except (Exception, SystemExit) as exc:  # counted as failed; the run goes on
            error = exc
        walls.append(perf_counter() - start)
        if tracer is not None:
            tracer.end()
            for t, b in zip(memo, before):
                info = t.cache_info()
                hits += info.hits - b.hits
                misses += info.misses - b.misses
        probes.append(speed_probe())
        if error is None:
            try:
                line = op.check(out)
            except Exception as exc:  # a malformed report is a failed check too
                error = exc
        certified.append(error is None)
        if error is None:
            digest.update(f"{op.name} {line}\n".encode())
        else:
            failed += 1
            errors.append(f"{op.name}: {type(error).__name__}: {error}")
            digest.update(f"{op.name} FAILED\n".encode())
    # A call's speed is the median of the reference runs just before and
    # after it and the one before that, so one disturbed reference run
    # does not skew the call.
    scaled = [t * REFERENCE_S / statistics.median(probes[max(i - 1, 0):i + 2])
              for i, t in enumerate(walls)]
    latencies = [t for t, ok in zip(scaled, certified) if ok]
    return ChunkResult(digest.hexdigest(), latencies, sum(scaled), sum(walls), len(ops), failed,
                       errors, hits, misses)


def clear(memo) -> None:
    for table in memo:
        table.cache_clear()


def probe_setup(args) -> float:
    """Median time, at reference speed, from spawning a fresh interpreter
    to its report that relint_kit is imported and the first chunk is built."""
    times = []
    for _ in range(SETUP_PROBES):
        probes = [speed_probe() for _ in range(3)]
        start = perf_counter()
        with subprocess.Popen(
                [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
                 "--seed", str(args.seed)], stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        probes += [speed_probe() for _ in range(3)]
        times.append(elapsed * REFERENCE_S / statistics.median(probes))
    return statistics.median(times)


def measure(args, memo, first) -> tuple[dict, list, list]:
    """Whole chunks until --seconds have passed: the end-to-end metrics."""
    from workloads import build_chunk

    results = []
    start = perf_counter()
    index = 0
    while True:
        ops = first if index == 0 else build_chunk(args.workload, args.seed, index, args.workdir)
        clear(memo)
        results.append(run_chunk(ops, memo))
        index += 1
        attempted = sum(r.attempted for r in results)
        if perf_counter() - start >= args.seconds and attempted >= MIN_OPS:
            break
    latencies = [t for r in results for t in r.latencies]
    busy = sum(r.busy for r in results)
    wall = sum(r.wall for r in results)
    metrics = {
        "ops_per_s": (len(latencies) / busy, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "setup_s": (args.setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    print(f"chunks {len(results)}  operations {attempted}  busy {busy:.3f} s scaled, "
          f"{wall:.3f} s wall  (wall ops_per_s {len(latencies) / wall:.4f})")
    for i, r in enumerate(results):
        print(f"chunk {i} digest {r.digest}")
    return metrics, results, []


def measure_traced(args, memo, first) -> tuple[dict, list, list]:
    """Chunk 0 untraced and traced in turn: the per-layer metrics of the
    first traced pass, and any counter or digest that did not repeat."""
    from tracing import DETERMINISTIC, Tracer

    tracer = Tracer()
    plain, traced = [], []
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds:
        clear(memo)
        plain.append(run_chunk(first, memo))
        clear(memo)
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_chunk(first, memo, tracer))
        finally:
            tracer.uninstall()
        if not passes:
            tracer.write(args.span_file)
        metrics, self_s = tracer.per_layer()
        r = traced[-1]
        metrics["cache.hits"] = (r.cache_hits, "count")
        metrics["cache.misses"] = (r.cache_misses, "count")
        lookups = r.cache_hits + r.cache_misses
        metrics["cache.hit_ratio"] = (r.cache_hits / lookups if lookups else 0.0, "ratio")
        metrics["cache.entries"] = (sum(t.cache_info().currsize for t in memo), "count")
        passes.append((metrics, self_s))
    metrics, self_s = passes[0]
    problems = [f"{key} differs between traced passes"
                for key in DETERMINISTIC if len({p[0][key][0] for p in passes}) > 1]
    if len({r.digest for r in plain + traced}) > 1:
        problems.append("chunk 0 digest differs between passes")
    overhead = statistics.median(r.busy for r in traced) / statistics.median(r.busy for r in plain)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    print(f"passes {len(passes)} untraced + {len(passes)} traced over chunk 0; "
          f"spans of the first traced pass in {args.span_file.relative_to(Path.cwd())}")
    print(f"chunk 0 digest {traced[0].digest}")
    for key, value in sorted(self_s.items()):
        print(f"  {key:<34} {value:.6f} s")
    return metrics, plain + traced, problems


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up, print 'ready' and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "relint_kit" / "__init__.py").is_file():
        print("error: no src/relint_kit here; run from the root of a relint-kit checkout",
              file=sys.stderr)
        return 2
    args.setup_s = None if args.trace or args.setup_probe else probe_setup(args)
    args.workdir = root / ".bench_work" / str(os.getpid())
    args.span_file = root / ".bench_trace" / f"{args.workload}-{args.seed}.tsv"
    sys.path.insert(0, str(src))
    try:
        import relint_kit
        if Path(relint_kit.__file__).resolve().parent != (src / "relint_kit").resolve():
            print(f"error: relint_kit imported from {relint_kit.__file__}", file=sys.stderr)
            return 2
        from tracing import memo_tables
        from workloads import build_chunk

        first = build_chunk(args.workload, args.seed, 0, args.workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        memo = memo_tables()
        metrics, results, problems = (measure_traced if args.trace else measure)(args, memo, first)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
        try:
            args.workdir.parent.rmdir()
        except OSError:
            pass
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    for message in [e for r in results for e in r.errors][:SHOWN_ERRORS] + problems:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  memo tables {len(memo)}")
    print(f"error_rate {failed / attempted:.6f}  ({failed} of {attempted})")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<34} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
