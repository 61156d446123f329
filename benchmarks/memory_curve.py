"""Peak memory where chains are long: distinct long-chain meets, and the CLI's
long documents.

Measures one or more source trees of valtree in alternation (``harness.py``)
and writes ``BENCH_memory.json``:

    python benchmarks/memory_curve.py --tree parent=/path/to/old/src \\
        --tree change=src --rounds 3 --out BENCH_memory.json

The cells:

* ``meets_K``: K distinct ``meet`` and ``compare`` calls of the normalized
  (1, 10^5 + k) and (1, 10^5 + k + 1/2), in the worker's own fresh
  interpreter, as ``meet_memory.py --long`` makes them; the worker's peak
  resident set (``ru_maxrss``) and the seconds of the K pairs;
* ``COMMAND_N``: one ``python -m valtree val COMMAND`` process on the
  weights (1, N), for ``canon``, ``stream`` and ``stream --json``; its peak
  resident set, its wall seconds and the bytes it printed.

The file keeps the median of each figure over the rounds.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time

import harness
import meet_memory

MEETS = (10, 20, 40, 80, 100)
COMMANDS = {"canon": ["canon"], "stream": ["stream"], "stream_json": ["stream", "--json"]}
WEIGHTS = (10**4, 10**5, 10**6)


def cells():
    return [f"meets_{k}" for k in MEETS] + [f"{c}_{n}" for c in COMMANDS for n in WEIGHTS]


def worker(src: str, cell: str) -> dict:
    name, _, size = cell.rpartition("_")
    if name == "meets":
        run = meet_memory.run_one(int(size), "long")
        return {"peak_rss_mb": run["peak_rss_mb"], "seconds": run["seconds"]}
    doc = '{"weights":["1","%s"]}' % size
    argv = [sys.executable, "-m", "valtree", "val", *COMMANDS[name], "--valuation", doc]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    printed = sum(len(chunk) for chunk in iter(lambda: proc.stdout.read(1 << 16), b""))
    if proc.wait():
        raise RuntimeError(f"{cell} exited {proc.returncode}")
    seconds = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux; the worker's one child is the command
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {"peak_rss_mb": round(peak, 1), "seconds": round(seconds, 2), "bytes": printed}


def summarize(runs) -> dict:
    return {cell: {figure: statistics.median(s[figure] for s in samples) for figure in samples[0]}
            for cell, samples in runs.items()}


def main() -> int:
    return harness.main(
        __file__, __doc__, cells=cells(), worker=worker, summarize=summarize,
        description="peak resident set (MB) and seconds, median over rounds: meets_K is K "
                    "distinct meet and compare calls of the normalized (1, 10^5 + k) and "
                    "(1, 10^5 + k + 1/2) in one fresh process; COMMAND_N is one valtree val "
                    "COMMAND process on the weights (1, N), with the bytes it printed",
        rounds=3, out="BENCH_memory.json",
    )


if __name__ == "__main__":
    sys.exit(main())
