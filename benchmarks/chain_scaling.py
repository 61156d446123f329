"""Cold chain-layer latency over chain length: parse, normalize, canonicalize, meet, compare.

Measures one or more source trees of valtree in alternation (``harness.py``)
and writes ``BENCH_chain.json``:

    python benchmarks/chain_scaling.py --tree parent=/path/to/old/src \\
        --tree change=src --rounds 5 --out BENCH_chain.json

Every (round, tree, cell) runs in a fresh interpreter, so no cache answers
for an earlier cell.

A cell is one pair of unnormalized programs.  The worker times, in order,
``valuation_from_json`` on their two JSON documents, building them,
``normalize`` on each, ``canonicalize`` on each, ``meet`` and ``compare``,
and reports each phase in milliseconds with their total; the
file keeps the median of each over the rounds, and the canonical chain
length of the first program as ``levels``.  Two sweeps:

* ``prefix_L``: L seeded centers in runs of 0 and infinity with some free
  centers, under the weights (3, 5) and (5, 3).  The two share all L centers
  and part at the next one, so ``meet`` walks the whole prefix.
* ``euclid_N``: the monomial weights (1, N) and (2, 2N + 1), whose chains are
  runs of the center 0 of length about N; their meet is the first.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from fractions import Fraction

import harness

PREFIX_LENGTHS = (8, 16, 32, 64, 128, 256, 512)
EUCLID_TOPS = (10**2, 10**3, 10**4, 10**5)
SEED = 0xC0FFEE
PHASES = ("parse_ms", "build_ms", "normalize_ms", "canonicalize_ms", "meet_ms", "compare_ms", "total_ms")


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


def _doc(steps, weights) -> dict:
    return {
        "steps": [{"center": "inf" if s.is_inf else str(s.value)} for s in steps],
        "weights": [str(w) for w in weights],
    }


def worker(src: str, cell: str) -> dict:
    from valtree.jsonio import valuation_from_json
    from valtree.valuation import QuasiMonomialVal, canonicalize, compare, meet, normalize

    kind, n = cell.split("_")
    n = int(n)
    if kind == "prefix":
        steps = _prefix(n)
        pair = ((steps, (3, 5)), (steps, (5, 3)))
    else:
        pair = (((), (1, n)), ((), (2, 2 * n + 1)))
    docs = [_doc(steps, weights) for steps, weights in pair]
    marks = [time.perf_counter()]
    for doc in docs:
        valuation_from_json(doc)
    marks.append(time.perf_counter())
    nu, mu = (QuasiMonomialVal(steps, weights=weights) for steps, weights in pair)
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


def summarize(runs) -> dict:
    per_cell = {}
    for cell, samples in runs.items():
        per_cell[cell] = {p: round(statistics.median(s[p] for s in samples), 3) for p in PHASES}
        per_cell[cell]["levels"] = samples[0]["levels"]
    return {"cells": per_cell}


def main() -> int:
    return harness.main(
        __file__, __doc__, cells=cells(), worker=worker, summarize=summarize,
        description="cold chain-layer latency per cell, one fresh process per (round, tree, "
                    "cell), median over rounds, in milliseconds: valuation_from_json on two "
                    "documents, building their two programs, normalize, canonicalize, meet "
                    "and compare on them, and their total",
        rounds=5, out="BENCH_chain.json",
    )


if __name__ == "__main__":
    sys.exit(main())
