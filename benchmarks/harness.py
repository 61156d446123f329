"""The fresh-process, alternating-trees harness of the scaling benchmarks.

A benchmark script names its cells, measures one cell in ``worker(src,
cell)`` and folds the samples of one tree into figures in
``summarize(runs)``; ``main`` does the rest:

* every (round, cell, tree) runs in a fresh interpreter that imports
  ``valtree`` from that tree's ``src/``, so no cache answers for an earlier
  cell or another tree;
* the order of the trees alternates from round to round, so a drift in the
  host's speed hits both;
* the output file records the Python version, the platform and each tree's
  commit (``+uncommitted`` when its checkout has changes).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Callable, Dict, List, Sequence

Runs = Dict[str, List[dict]]  # cell -> one sample per round


def commit(src: str) -> str:
    def git(*args):
        out = subprocess.run(["git", "-C", src, *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else ""

    head = git("rev-parse", "--short", "HEAD") or "unknown"
    return head + ("+uncommitted" if git("status", "--porcelain", "--", ".") else "")


def main(
    script: str,
    doc: str,
    *,
    cells: Sequence[str],
    worker: Callable[[str, str], dict],
    summarize: Callable[[Runs], dict],
    description: str,
    rounds: int,
    out: str,
) -> int:
    """Parse ``--tree LABEL=SRC`` (repeatable), ``--rounds`` and ``--out``, run
    every cell on every tree, and write the JSON document."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=SRC",
                        help="a label and the src/ directory to import valtree from")
    parser.add_argument("--rounds", type=int, default=rounds)
    parser.add_argument("--out", default=out)
    parser.add_argument("--worker", nargs=2, metavar=("SRC", "CELL"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        src, cell = args.worker
        sys.path.insert(0, os.path.abspath(src))
        print(json.dumps(worker(src, cell)))
        return 0
    trees = [t.split("=", 1) for t in args.tree]
    if not trees or any(len(t) != 2 for t in trees) or args.rounds < 1:
        parser.error("give at least one --tree LABEL=SRC and --rounds >= 1")
    runs: Dict[str, Runs] = {label: {cell: [] for cell in cells} for label, _ in trees}
    for r in range(args.rounds):
        for cell in cells:
            for label, src in trees if r % 2 == 0 else trees[::-1]:
                proc = subprocess.run([sys.executable, script, "--worker", src, cell],
                                      capture_output=True, text=True, check=True)
                runs[label][cell].append(json.loads(proc.stdout))
        print(f"round {r + 1} done", file=sys.stderr)
    result = {
        "benchmark": description,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "rounds": args.rounds,
        "trees": {
            label: {"commit": commit(src), **summarize(runs[label])} for label, src in trees
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return 0
