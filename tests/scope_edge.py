"""Scope-edge timings of `verify-corpus`, `image-ri`, `diff-ri`, `h_to_v`
and `minkowski_diff`, a process each.

    python3 tests/scope_edge.py [--limit SECONDS] [--src DIR]

The cases are polytopes built from a fixed seed: rows p drawn by
`random.Random(1)` as integers in [-12, 12], kept when
100 <= |p|^2 <= 144 and not a repeat, every right-hand side 1.  In
dimension 6, with 16, 24 and 32 rows they have 209, 540 and 951
vertices; `relint-kit verify-corpus --seed 0` runs on each alone, and
`h_to_v` writes the points, one per line.  On the 951-vertex set
`relint-kit image-ri` runs twice: with the projection that drops the last
coordinate (full row rank), and with that projection and a sixth row, the
sum of the first five (rank 5, so that the image has an equality row).
`minkowski_diff(P, P)` runs on the dimension-4 sets with 12 and 20 rows
(35 and 72 vertices) and on the dimension-6 set with 12 rows (79
vertices), and writes the rows of the result, one per line; on the same
sets `relint-kit diff-ri` runs with the document given twice, for P - P.
For each set the script prints the SHA-256 of the instance document, then runs
each of its cases in a fresh interpreter that imports relint_kit from
--src (default: this checkout's src/).  A run over --limit seconds is
recorded as `timeout`, not as an error.  One line per case gives the
wall seconds of the whole process, the exit code, the simplex calls and
their pivots, the rows handed to `dd_cone` over all its calls, and the
SHA-256 of its stdout, so two checkouts compare byte for byte.  The
counts come from spies on `lp.simplex_max` and `dd.dd_cone` in the child
process, written to a file so that stdout stays the command's own.

Standard library only, and pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# name: (dimension, rows, commands)
CASES = {
    "dim6-rows16": (6, 16, ("verify-corpus", "h_to_v")),
    "dim6-rows24": (6, 24, ("verify-corpus", "h_to_v")),
    "dim6-rows32": (6, 32, ("verify-corpus", "image-ri", "image-ri-rank5", "h_to_v")),
    "dim4-rows12": (4, 12, ("minkowski_diff", "diff-ri")),
    "dim4-rows20": (4, 20, ("minkowski_diff", "diff-ri")),
    "dim6-rows12": (6, 12, ("minkowski_diff", "diff-ri")),
}

PROJECTION = ";".join([",".join(["1" if i == j else "0" for j in range(6)]) for i in range(5)])
MATRICES = {"image-ri": PROJECTION, "image-ri-rank5": PROJECTION + ";1,1,1,1,1,0"}

# Run with argv = [counts file, directory, command, matrix].  The spies replace
# `simplex_max` and `dd_cone` in every module that holds them; the counts
# are written to the counts file however the command ends.  For the one
# document in the directory, verify-corpus runs the CLI on the directory,
# image-ri runs the CLI on the document with the matrix, diff-ri runs the
# CLI on the document twice, h_to_v writes the points of P and
# minkowski_diff the rows of P - P.
CHILD = """
import atexit, json, sys
from pathlib import Path
import relint_kit.cli
from relint_kit import dd, docio, lp
from relint_kit.polyhedra import h_to_v, minkowski_diff
counts = {"simplex": 0, "pivots": 0, "dd_rows": 0}
real = {"simplex_max": lp.simplex_max, "dd_cone": dd.dd_cone}

def count_simplex(*args):
    result = real["simplex_max"](*args)
    counts["simplex"] += 1
    counts["pivots"] += result[2]
    return result

def count_dd(rows, dim, *incidence):
    counts["dd_rows"] += len(rows)
    return real["dd_cone"](rows, dim, *incidence)

spies = {"simplex_max": count_simplex, "dd_cone": count_dd}
for module in list(sys.modules.values()):
    for name, original in real.items():
        if getattr(module, name, None) is original:
            setattr(module, name, spies[name])
atexit.register(lambda: Path(sys.argv[1]).write_text(json.dumps(counts)))
work, command, matrix = sys.argv[2:]
if command == "verify-corpus":
    sys.exit(relint_kit.cli.main(["verify-corpus", work, "--seed", "0"]))
(path,) = Path(work).iterdir()
if command.startswith("image-ri"):
    sys.exit(relint_kit.cli.main(["image-ri", str(path), "--matrix", matrix]))
if command == "diff-ri":
    sys.exit(relint_kit.cli.main(["diff-ri", str(path), str(path)]))
P = docio.parse_instance(path.read_text()).payload
if command == "h_to_v":
    for x in h_to_v(P).points:
        print(",".join(map(str, x)))
else:
    D = minkowski_diff(P, P)
    for row, beta in zip(D.A, D.b):
        print(",".join(map(str, row)), "<=", beta)
    for row, delta in zip(D.E, D.d):
        print(",".join(map(str, row)), "=", delta)
"""


def random_facets(m: int, dim: int) -> list[list[int]]:
    """The first m distinct rows p with 100 <= |p|^2 <= 144, seed 1."""
    rng = random.Random(1)
    rows: list[list[int]] = []
    while len(rows) < m:
        p = [rng.randint(-12, 12) for _ in range(dim)]
        if 100 <= sum(c * c for c in p) <= 144 and p not in rows:
            rows.append(p)
    return rows


def document(name: str, dim: int, m: int) -> bytes:
    rows = random_facets(m, dim)
    node = {"id": name, "kind": "hpoly", "payload": {
        "A": [[str(c) for c in p] for p in rows], "b": ["1"] * m,
        "E": [], "d": [], "dim": len(rows[0])}}
    return (json.dumps(node, indent=2, sort_keys=True) + "\n").encode()


def run_case(name: str, text: bytes, command: str, src: Path, limit: float
             ) -> tuple[str, str, str, str]:
    """(seconds or `timeout`, exit code, counts, SHA-256 of stdout) of one
    run; the exit code comes with the last line of stderr, if any."""
    with tempfile.TemporaryDirectory() as tmp:
        work, counts_file = Path(tmp) / "docs", Path(tmp) / "counts.json"
        work.mkdir()
        (work / f"{name}.json").write_bytes(text)
        env = {**os.environ, "PYTHONPATH": str(src)}
        argv = [sys.executable, "-c", CHILD, str(counts_file), str(work), command,
                MATRICES.get(command, "")]
        start = perf_counter()
        try:
            done = subprocess.run(argv, env=env, capture_output=True, timeout=limit)
        except subprocess.TimeoutExpired:
            return "timeout", "-", "-", "-"
        seconds = perf_counter() - start
        counts = json.loads(counts_file.read_text()) if counts_file.exists() else {}
    code = str(done.returncode)
    if done.stderr.strip():
        code += f" ({done.stderr.decode(errors='replace').strip().splitlines()[-1]})"
    counted = " ".join(f"{key}={counts.get(key, '-')}" for key in ("simplex", "pivots", "dd_rows"))
    return f"{seconds:.2f}", code, counted, hashlib.sha256(done.stdout).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--limit", type=float, default=300.0,
                        help="seconds a case may take before it is a timeout")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory that holds the relint_kit package")
    args = parser.parse_args()
    docs = {name: document(name, dim, m) for name, (dim, m, _) in CASES.items()}
    for name, text in docs.items():
        print(f"{name} rows={CASES[name][1]} document sha256={hashlib.sha256(text).hexdigest()}")
    for name, text in docs.items():
        for command in CASES[name][2]:
            seconds, code, counted, digest = run_case(name, text, command, args.src, args.limit)
            print(f"{name} {command} seconds={seconds} exit={code} {counted} "
                  f"stdout sha256={digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
