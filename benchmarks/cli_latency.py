"""Cold start: the wall time of one fresh ``valtree`` process per command.

Measures one or more source trees of valtree in alternation (``harness.py``)
and writes ``BENCH_cli.json``:

    python benchmarks/cli_latency.py --tree parent=/path/to/old/src \\
        --tree change=src --rounds 10 --out BENCH_cli.json

A cell is one command line, run in a fresh interpreter from spawn to exit,
as a user's shell runs it.  The commands:

* ``bare``: ``python -c pass``, the interpreter with its site hooks;
* ``import_valtree`` and ``import_suites``: ``import valtree`` and
  ``import valtree.suites``;
* ``val_eval``, ``val_canon``, ``val_inf`` and ``tree_dist``: ``python -m
  valtree`` with small inputs;
* ``suite_all_0.01``: ``import valtree.cli`` and the fifteen criteria at
  ``scale=0.01`` through ``suites.run_all`` (the command line has no scale
  option).

Each command is timed in two modes.  ``bytecode``: the package is compiled
before the first run.  ``source``: ``PYTHONDONTWRITEBYTECODE=1`` and no
``__pycache__``, so every run compiles the package on import.  The worker
copies the tree's ``valtree`` package to a temporary directory first, so
neither mode reads or writes the tree's own bytecode.  A worker runs its
command ``RUNS`` times, each run followed by one of ``bare``, so that the
two see the same phase of the host, and reports the medians of the
command (``ms``), of ``bare`` (``bare_ms``) and of their differences
(``above_bare_ms``); the file keeps the median of each over the rounds, in
milliseconds.
"""

from __future__ import annotations

import compileall
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import harness

RUNS = 5
MODES = ("bytecode", "source")
A = '{"weights":["1","5/2"]}'
B = '{"weights":["1","7/3"]}'
TREE = ('{"nodes":{"root":{"children":[{"edge":"1","node":{"children":[{"edge":"1/2"},'
        '{"edge":"inf"}]}},{"edge":"3/2","node":{"children":[{"edge":"2"}]}}]}}}')
COMMANDS = {
    "bare": ["-c", "pass"],
    "import_valtree": ["-c", "import valtree"],
    "import_suites": ["-c", "import valtree.suites"],
    "val_eval": ["-m", "valtree", "val", "eval", "--valuation", A, "--poly", "x+y"],
    "val_canon": ["-m", "valtree", "val", "canon", "--valuation", A],
    "val_inf": ["-m", "valtree", "val", "inf", "--valuation", A, "--valuation", B],
    "tree_dist": ["-m", "valtree", "tree", "dist", "--tree", "tree.json",
                  "--points", "0/0", "0/1@1/4"],
    "suite_all_0.01": ["-c", "import valtree.cli, valtree.suites as s; "
                             "assert all(r.passed for r in s.run_all(scale=0.01))"],
}


def cells():
    return [f"{command}/{mode}" for command in COMMANDS for mode in MODES]


def worker(src: str, cell: str) -> dict:
    command, mode = cell.split("/")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(os.path.join(src, "valtree"), os.path.join(tmp, "valtree"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        with open(os.path.join(tmp, "tree.json"), "w", encoding="utf-8") as fh:
            fh.write(TREE)
        env = dict(os.environ, PYTHONPATH=tmp)
        if mode == "bytecode":
            if not compileall.compile_dir(os.path.join(tmp, "valtree"), quiet=1):
                raise RuntimeError("the package did not compile")
            env.pop("PYTHONDONTWRITEBYTECODE", None)
        else:
            env["PYTHONDONTWRITEBYTECODE"] = "1"
        times = {"ms": [], "bare_ms": []}
        for _ in range(RUNS):
            for figure, args in (("ms", COMMANDS[command]), ("bare_ms", COMMANDS["bare"])):
                start = time.perf_counter()
                subprocess.run([sys.executable, *args], env=env, cwd=tmp, check=True,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                times[figure].append((time.perf_counter() - start) * 1e3)
        if mode == "source" and os.path.exists(os.path.join(tmp, "valtree", "__pycache__")):
            raise RuntimeError("a source run wrote bytecode")
    above = [ms - bare for ms, bare in zip(times["ms"], times["bare_ms"])]
    return {figure: statistics.median(values) for figure, values in
            (("ms", times["ms"]), ("bare_ms", times["bare_ms"]), ("above_bare_ms", above))}


def summarize(runs) -> dict:
    return {figure: {cell: round(statistics.median(s[figure] for s in samples), 1)
                     for cell, samples in runs.items()}
            for figure in ("ms", "bare_ms", "above_bare_ms")}


def main() -> int:
    return harness.main(
        __file__, __doc__, cells=cells(), worker=worker, summarize=summarize,
        description="cold start per command: wall milliseconds of one fresh process from spawn "
                    "to exit, median of %d runs per worker and of the rounds, with the package "
                    "compiled (bytecode) or compiled on import (source); bare_ms is the bare "
                    "interpreter run after each of them, above_bare_ms the difference" % RUNS,
        rounds=10, out="BENCH_cli.json",
    )


if __name__ == "__main__":
    sys.exit(main())
