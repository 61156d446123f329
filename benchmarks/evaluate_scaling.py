"""``evaluate`` latency, cold and warm, over polynomial degree and chain depth.

Measures one or more source trees of valtree in alternation (``harness.py``)
and writes ``BENCH_evaluate.json``:

    python benchmarks/evaluate_scaling.py --tree parent=/path/to/old/src \\
        --tree change=src --rounds 3 --out BENCH_evaluate.json

Each (round, tree) pair runs all cells in one fresh interpreter, so the
trees never share caches.

A cell is one valuation and eight seeded polynomials (``testkit.sample_polys``,
at most five terms each).  The first pass over its (valuation, polynomial)
pairs is timed as ``cold_ms``: it builds whatever images and power tables
the pairs need.  Then the pairs are evaluated in timed loops and ``warm_us``
is the best loop's microseconds per call.  One more, untimed pass counts the
calls that reach the substitution engine (``_Engine.evaluate``):
``image_share`` is their share of the cell's calls.  The file keeps the
median of each figure over the rounds.  Cells sweep polynomial degree 1, 2, 4, 8, 16, 32 on a chain of
depth 4, and chain depth 0, 4, 8, 16 at degree 4.  The ``gen_qmv`` cell is the
shape the acceptance suites evaluate: 40 ``testkit.gen_qmv`` valuations
against 50 ``testkit.sample_polys`` polynomials of degree at most 4.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from fractions import Fraction

import harness

# two sweeps, not a grid: a depth-16 program's images are dense, and the
# first evaluation of a degree-16 polynomial that reaches them takes minutes
DEGREES = (1, 2, 4, 8, 16, 32)
DEPTH_OF_DEGREE_SWEEP = 4
DEPTHS = (0, 4, 8, 16)
DEGREE_OF_DEPTH_SWEEP = 4
SEED = 0xC0FFEE
REPEATS = 7
MIN_LOOP_S = 0.02


def _chain(depth: int, rng: random.Random):
    """A normalized program of ``depth`` centers, drawn as ``gen_qmv`` draws them."""
    from valtree.valuation import INF_POINT, ProjPoint, QuasiMonomialVal, normalize

    steps = tuple(
        INF_POINT if rng.random() < 0.15
        else ProjPoint(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for _ in range(depth)
    )
    weights = (Fraction(rng.randint(1, 30), rng.randint(1, 5)), Fraction(rng.randint(1, 30), rng.randint(1, 5)))
    return normalize(QuasiMonomialVal(steps, weights=weights))


def _cell(pairs) -> dict:
    """Cold milliseconds for the first pass over the pairs, then warm microseconds per call."""
    from valtree.valuation import evaluate

    start = time.perf_counter()
    for nu, phi in pairs:
        evaluate(nu, phi)
    cold_ms = (time.perf_counter() - start) * 1e3
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            for nu, phi in pairs:
                evaluate(nu, phi)
        if time.perf_counter() - start >= MIN_LOOP_S:
            break
        loops *= 2
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(loops):
            for nu, phi in pairs:
                evaluate(nu, phi)
        best = min(best, (time.perf_counter() - start) / (loops * len(pairs)))
    return {"cold_ms": cold_ms, "warm_us": best * 1e6, "image_share": _image_share(pairs)}


def _image_share(pairs) -> float:
    """The share of the pairs' evaluations that reach the substitution images,
    counted in one more, untimed pass through a wrapper on ``_Engine.evaluate``."""
    from valtree import valuation

    calls = []
    original = valuation._Engine.evaluate

    def counting(self, phi):
        calls.append(1)
        return original(self, phi)

    valuation._Engine.evaluate = counting
    try:
        for nu, phi in pairs:
            valuation.evaluate(nu, phi)
    finally:
        valuation._Engine.evaluate = original
    return len(calls) / len(pairs)


def worker(src: str, cell: str) -> dict:
    """Every cell, measured in one process: the harness's only cell is ``all``."""
    from valtree.testkit import gen_qmv, sample_polys

    cells = {}
    vals = [gen_qmv(SEED + s) for s in range(40)]
    polys = sample_polys(SEED, 50)
    cells["gen_qmv"] = _cell([(nu, phi) for nu in vals for phi in polys])
    cells_at = [(f"degree_{d}", DEPTH_OF_DEGREE_SWEEP, d) for d in DEGREES]
    cells_at += [(f"depth_{k}", k, DEGREE_OF_DEPTH_SWEEP) for k in DEPTHS]
    for name, depth, degree in cells_at:
        rng = random.Random(SEED + 1000 * depth + degree)
        nu = _chain(depth, rng)
        polys = sample_polys(rng.randrange(2**32), 8, max_deg=degree)
        cells[name] = _cell([(nu, phi) for phi in polys])
    return cells


METRICS = ("warm_us", "cold_ms", "image_share")


def summarize(runs) -> dict:
    (samples,) = runs.values()
    return {
        metric: {cell: round(statistics.median(run[cell][metric] for run in samples), 2)
                 for cell in samples[0]}
        for metric in METRICS
    }


def main() -> int:
    return harness.main(
        __file__, __doc__, cells=["all"], worker=worker, summarize=summarize,
        description="evaluate latency per cell, median over rounds: warm_us is microseconds "
                    "per call (best of %d timed loops), cold_ms the first pass in milliseconds, "
                    "image_share the share of calls that reached the substitution images" % REPEATS,
        rounds=3, out="BENCH_evaluate.json",
    )


if __name__ == "__main__":
    sys.exit(main())
