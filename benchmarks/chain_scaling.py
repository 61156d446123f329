"""Cold chain-layer latency over chain length: normalize, canonicalize, meet, compare.

Measures one or more source trees of valtree in alternation and writes
``BENCH_chain.json``:

    python benchmarks/chain_scaling.py --tree parent=/path/to/old/src \\
        --tree change=src --rounds 5 --out BENCH_chain.json

Every (round, tree, cell) runs in a fresh interpreter that imports
``valtree`` from that tree, so no cache answers for an earlier cell; the
order of the trees alternates from round to round, so a drift in the host's
speed hits both.

A cell is one pair of unnormalized programs.  The worker times, in order,
building them, ``normalize`` on each, ``canonicalize`` on each, ``meet`` and
``compare``, and reports each phase in milliseconds with their total; the
file keeps the median of each over the rounds, and the canonical chain
length of the first program as ``levels``.  Two sweeps:

* ``prefix_L``: L seeded centers in runs of 0 and infinity with some free
  centers, under the weights (3, 5) and (5, 3).  The two share all L centers
  and part at the next one, so ``meet`` walks the whole prefix.
* ``euclid_N``: the monomial weights (1, N) and (2, 2N + 1), whose chains are
  runs of the center 0 of length about N; their meet is the first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

PREFIX_LENGTHS = (8, 16, 32, 64, 128, 256, 512)
EUCLID_TOPS = (10**2, 10**3, 10**4, 10**5)
SEED = 0xC0FFEE
PHASES = ("build_ms", "normalize_ms", "canonicalize_ms", "meet_ms", "compare_ms", "total_ms")


def cells():
    return [f"prefix_{n}" for n in PREFIX_LENGTHS] + [f"euclid_{n}" for n in EUCLID_TOPS]


def _prefix(n: int):
    from valtree.valuation import INF_POINT, ProjPoint

    rng = random.Random(SEED + n)
    steps = []
    while len(steps) < n:
        roll = rng.random()
        if roll < 0.4:
            steps += [ProjPoint(0)] * rng.randint(1, 12)
        elif roll < 0.8:
            steps += [INF_POINT] * rng.randint(1, 12)
        else:
            steps.append(ProjPoint(Fraction(rng.randint(1, 5), rng.randint(1, 4))))
    return tuple(steps[:n])


def worker(src: str, cell: str) -> dict:
    sys.path.insert(0, os.path.abspath(src))
    from valtree.valuation import QuasiMonomialVal, canonicalize, compare, meet, normalize

    kind, n = cell.split("_")
    n = int(n)
    marks = [time.perf_counter()]
    if kind == "prefix":
        steps = _prefix(n)
        nu, mu = QuasiMonomialVal(steps, weights=(3, 5)), QuasiMonomialVal(steps, weights=(5, 3))
    else:
        nu, mu = QuasiMonomialVal(weights=(1, n)), QuasiMonomialVal(weights=(2, 2 * n + 1))
    marks.append(time.perf_counter())
    nu, mu = normalize(nu), normalize(mu)
    marks.append(time.perf_counter())
    form = canonicalize(nu)
    canonicalize(mu)
    marks.append(time.perf_counter())
    meet(nu, mu)
    marks.append(time.perf_counter())
    compare(nu, mu)
    marks.append(time.perf_counter())
    out = {phase: (b - a) * 1e3 for phase, a, b in zip(PHASES, marks, marks[1:])}
    out["total_ms"] = (marks[-1] - marks[0]) * 1e3
    out["levels"] = len(form.steps)
    return out


def _commit(src: str) -> str:
    def git(*args):
        out = subprocess.run(["git", "-C", src, *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else ""

    head = git("rev-parse", "--short", "HEAD") or "unknown"
    return head + ("+uncommitted" if git("status", "--porcelain", "--", ".") else "")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=SRC",
                        help="a label and the src/ directory to import valtree from")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--out", default="BENCH_chain.json")
    parser.add_argument("--worker", nargs=2, metavar=("SRC", "CELL"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(worker(*args.worker)))
        return 0
    trees = [t.split("=", 1) for t in args.tree]
    if not trees or any(len(t) != 2 for t in trees) or args.rounds < 1:
        parser.error("give at least one --tree LABEL=SRC and --rounds >= 1")
    runs = {label: {cell: [] for cell in cells()} for label, _ in trees}
    for r in range(args.rounds):
        for cell in cells():
            for label, src in trees if r % 2 == 0 else trees[::-1]:
                out = subprocess.run([sys.executable, __file__, "--worker", src, cell],
                                     capture_output=True, text=True, check=True)
                runs[label][cell].append(json.loads(out.stdout))
        print(f"round {r + 1} done", file=sys.stderr)
    doc = {
        "benchmark": "cold chain-layer latency per cell, one fresh process per (round, tree, "
                     "cell), median over rounds, in milliseconds: building two programs, "
                     "normalize, canonicalize, meet and compare on them, and their total",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "rounds": args.rounds,
        "trees": {},
    }
    for label, src in trees:
        per_cell = {}
        for cell, samples in runs[label].items():
            per_cell[cell] = {p: round(statistics.median(s[p] for s in samples), 3) for p in PHASES}
            per_cell[cell]["levels"] = samples[0]["levels"]
        doc["trees"][label] = {"commit": _commit(src), "cells": per_cell}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
