"""``evaluate`` latency, cold and warm, over polynomial degree and chain depth.

Measures one or more source trees of valtree in alternation (``harness.py``)
and writes ``BENCH_evaluate.json``:

    python benchmarks/evaluate_scaling.py --tree parent=/path/to/old/src \\
        --tree change=src --rounds 3 --out BENCH_evaluate.json

Each (round, tree) pair runs all cells in one fresh interpreter, so the
trees never share caches.

A cell is one valuation and eight seeded polynomials (``testkit.sample_polys``,
at most five terms each).  The first pass over its (valuation, polynomial)
pairs is timed as ``cold_ms``.  Then the pairs are evaluated in timed loops
and ``warm_us`` is the best loop's microseconds per call.  One more, untimed
pass counts the calls that the level-0 tiers leave to the strict-transform
path (``valuation._strict_transform``): ``transform_share`` is their share
of the cell's calls.  On a tree from before that path, the same figure
counts the calls into the composed-image engine it replaced
(``valuation._Engine.evaluate``).  The file keeps the median of each figure
over the rounds.

Cells sweep polynomial degree 1, 2, 4, 8, 16, 32 on a chain of depth 4, and
chain depth 0 to 512 at degree 4.  A depth cell also holds three
polynomials whose least terms cancel: the head's exceptional form l
(``homogeneous_witness``), ``l^2 + x^3`` and ``l^3 + y^4``.  A cell whose
cold pass runs past ``COLD_BUDGET_S`` is cut off and recorded as null, and so
is every later cell of that tree in that round (the depth cells come last,
deepest last): composed images grow exponentially with depth.  The ``gen_qmv`` cell is the shape the acceptance
suites evaluate: 40 ``testkit.gen_qmv`` valuations against 50
``testkit.sample_polys`` polynomials of degree at most 4.
"""

from __future__ import annotations

import random
import signal
import statistics
import sys
import time
from fractions import Fraction

import harness

# two sweeps, not a grid, as when the deep cells reached composed images
DEGREES = (1, 2, 4, 8, 16, 32)
DEPTH_OF_DEGREE_SWEEP = 4
DEPTHS = (0, 4, 8, 16, 32, 64, 128, 256, 512)
DEGREE_OF_DEPTH_SWEEP = 4
SEED = 0xC0FFEE
REPEATS = 7
MIN_LOOP_S = 0.02
COLD_BUDGET_S = 10.0


class _OverBudget(Exception):
    pass


def _over_budget(signum, frame):
    raise _OverBudget


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


def _ties(nu):
    """Polynomials whose least terms cancel under nu, built on its head's
    exceptional form; none for the m-adic valuation."""
    from valtree.poly import BivarPoly
    from valtree.valuation import homogeneous_witness

    ell = homogeneous_witness(nu)
    if ell is None:
        return []
    x, y = BivarPoly.var_x(), BivarPoly.var_y()
    return [ell, ell**2 + x**3, ell**3 + y**4]


def _cell(pairs):
    """Cold milliseconds for the first pass over the pairs, then warm
    microseconds per call; None when the cold pass runs over budget."""
    from valtree.valuation import evaluate

    signal.signal(signal.SIGALRM, _over_budget)
    signal.setitimer(signal.ITIMER_REAL, COLD_BUDGET_S)
    start = time.perf_counter()
    try:
        for nu, phi in pairs:
            evaluate(nu, phi)
    except _OverBudget:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
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
    return {"cold_ms": cold_ms, "warm_us": best * 1e6, "transform_share": _transform_share(pairs)}


def _transform_share(pairs) -> float:
    """The share of the pairs' evaluations that the level-0 tiers leave to
    the strict-transform path (or, on an older tree, to the image engine),
    counted in one more, untimed pass through a wrapper."""
    from valtree import valuation

    calls = []
    if hasattr(valuation, "_strict_transform"):
        owner, name = valuation, "_strict_transform"
    else:
        owner, name = valuation._Engine, "evaluate"
    original = getattr(owner, name)

    def counting(*args):
        calls.append(1)
        return original(*args)

    setattr(owner, name, counting)
    try:
        for nu, phi in pairs:
            valuation.evaluate(nu, phi)
    finally:
        setattr(owner, name, original)
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
    over = False
    for name, depth, degree in cells_at:
        rng = random.Random(SEED + 1000 * depth + degree)
        nu = _chain(depth, rng)
        polys = sample_polys(rng.randrange(2**32), 8, max_deg=degree)
        if name.startswith("depth_"):
            polys += _ties(nu)
        cells[name] = None if over else _cell([(nu, phi) for phi in polys])
        over = cells[name] is None
    return cells


METRICS = ("warm_us", "cold_ms", "transform_share")


def summarize(runs) -> dict:
    """The median of each figure per cell; null when a round cut the cell off."""
    (samples,) = runs.values()

    def median(cell, metric):
        values = [run[cell] and run[cell][metric] for run in samples]
        return None if None in values else round(statistics.median(values), 2)

    return {metric: {cell: median(cell, metric) for cell in samples[0]} for metric in METRICS}


def main() -> int:
    return harness.main(
        __file__, __doc__, cells=["all"], worker=worker, summarize=summarize,
        description="evaluate latency per cell, median over rounds: warm_us is microseconds "
                    "per call (best of %d timed loops), cold_ms the first pass in milliseconds, "
                    "transform_share the share of calls the level-0 tiers leave to the "
                    "strict-transform path (the image engine on older trees); null: the cold "
                    "pass ran over %g s" % (REPEATS, COLD_BUDGET_S),
        rounds=3, out="BENCH_evaluate.json",
    )


if __name__ == "__main__":
    sys.exit(main())
