"""Cold acceptance-suite seconds per criterion over ``scale``, and the
metric-ball check and the axiom reports over tree size and samples.

Measures one or more source trees of valtree in alternation (``harness.py``)
and writes ``BENCH_suite.json``:

    python benchmarks/suite_scaling.py --tree parent=/path/to/old/src \\
        --tree change=src --rounds 5 --out BENCH_suite.json

Every (round, tree, cell) runs in a fresh interpreter, so each cell pays
cold caches as ``valtree suite all`` does.  Four sweeps:

* ``scale_S``: the fifteen criteria of ``valtree.suites`` at the default
  seed and ``scale`` S in {0.25, 0.5, 1.0}, each timed; the worker fails if
  a criterion does not pass.  Figures: ``criterion_N_s`` and ``total_s``.
* ``ball_N``: a seeded tree of exactly N nodes (N in 8-64), one
  ``PathParam`` and 40 ``ball_in_subbasic_check`` calls at grid points, as
  criterion 12 makes them.  Figures: ``total_ms`` for the 40 calls and
  ``checked``, the number of ball points they examined.
* ``check_N``: one ``tree_axiom_report`` on ``ball_N``'s tree.  Figures:
  ``total_ms`` and ``passed`` (1 when T1-T4 all hold).
* ``fork_S``: one ``fi_axiom_report`` at S samples (S in {40, 100, 400}).
  Figures: ``total_ms`` and ``passed`` (0: T4 fails on the forked interval).

The file keeps the median of each figure over the rounds.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from fractions import Fraction

import harness

SCALES = (0.25, 0.5, 1.0)
TREE_SIZES = (8, 16, 32, 64)
FORK_SAMPLES = (40, 100, 400)
CHECKS = 40
SEED = 0xC0FFEE


def cells():
    return (
        [f"scale_{s}" for s in SCALES]
        + [f"{kind}_{n}" for kind in ("ball", "check") for n in TREE_SIZES]
        + [f"fork_{s}" for s in FORK_SAMPLES]
    )


def _tree(n: int, rng: random.Random):
    """n nodes: each new node hangs off a random earlier finite one; about
    one leaf in six then gets an infinite edge."""
    from valtree.rationals import INF
    from valtree.tree import RootedTree

    edges, kids = {}, {(): 0}
    for _ in range(n - 1):
        parent = rng.choice(sorted(kids))
        path = parent + (kids[parent],)
        kids[parent] += 1
        kids[path] = 0
        edges[path] = Fraction(rng.randint(1, 8), rng.randint(1, 4))
    for path in sorted(edges):
        if not kids[path] and rng.random() < 1 / 6:
            edges[path] = INF
    return RootedTree(edges)


def worker(src: str, cell: str) -> dict:
    kind, arg = cell.split("_")
    if kind == "scale":
        from valtree import suites

        out = {}
        for criterion in suites.ALL_CRITERIA:
            start = time.perf_counter()
            result = criterion(suites.DEFAULT_SEED, float(arg))
            out[f"criterion_{result.criterion}_s"] = time.perf_counter() - start
            if not result.passed:
                raise SystemExit(f"criterion {result.criterion} failed: {result.detail}")
        out["total_s"] = sum(out.values())
        return out
    from valtree.tree import PathParam, ball_in_subbasic_check, fi_axiom_report, tree_axiom_report

    def timed_report(report, arg) -> dict:
        start = time.perf_counter()
        passed = report(arg).all_pass()
        return {"total_ms": (time.perf_counter() - start) * 1e3, "passed": int(passed)}

    if kind == "fork":
        return timed_report(fi_axiom_report, int(arg))
    rng = random.Random(SEED + int(arg))
    tree = _tree(int(arg), rng)
    if kind == "check":
        return timed_report(tree_axiom_report, tree)
    pts = tree.grid_points(2)
    configs = []
    while len(configs) < CHECKS:
        tau, sigma = rng.choice(pts), rng.choice(pts)
        if sigma != tau:
            configs.append((tau, sigma))
    start = time.perf_counter()
    psi = PathParam(tree)
    checked = sum(ball_in_subbasic_check(psi, s, t, s, samples=3).checked for t, s in configs)
    return {"total_ms": (time.perf_counter() - start) * 1e3, "checked": checked}


def summarize(runs) -> dict:
    return {
        "cells": {
            cell: {k: round(statistics.median(s[k] for s in samples), 4) for k in samples[0]}
            for cell, samples in runs.items()
        }
    }


def main() -> int:
    return harness.main(
        __file__, __doc__, cells=cells(), worker=worker, summarize=summarize,
        description="cold acceptance-suite seconds per criterion at scale 0.25, 0.5 and 1.0 "
                    "(scale_S), and milliseconds for 40 ball_in_subbasic_check calls on a tree "
                    "of N nodes (ball_N), milliseconds for one tree_axiom_report on that tree "
                    "(check_N) and one fi_axiom_report at S samples (fork_S); one fresh process "
                    "per (round, tree, cell), median over rounds",
        rounds=5, out="BENCH_suite.json",
    )


if __name__ == "__main__":
    sys.exit(main())
