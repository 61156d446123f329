"""The CLI's bytes, pinned: stdout, stderr and exit code of ``cli.main`` on
every command in text and ``--json`` form, on error paths and on every
``--help`` text, compared with the values recorded in ``cli_pinned.json``.

The calls run in-process from a directory that holds their input files, so
every path in a message reads the same, with ``COLUMNS`` fixed for argparse.
To record the values again after an intended change of output, run

    PYTHONPATH=src python tests/test_cli_pinned.py

and review the diff of ``tests/cli_pinned.json``.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from valtree.cli import build_parser, main

PINNED = Path(__file__).with_name("cli_pinned.json")

FILES = {
    "tree.json": {
        "nodes": {
            "root": {
                "children": [
                    {"edge": "1", "node": {"children": [{"edge": "1/2"}, {"edge": "inf"}]}},
                    {"edge": "3/2", "node": {"children": [{"edge": "2"}]}},
                ]
            }
        }
    },
    "fork.json": {"poset": "forked-interval"},
    "a.json": {"weights": ["1", "5/2"]},
    "bad-tree.json": {"nodes": {"root": {"children": [{"edge": "0"}]}}},
}

N = '{"frame":[["1","0"],["1","2"]],"weights":["3","inf"]}'
C = '{"steps":[{"center":"0"},{"center":"inf"}],"frame":[["2","1"],["1","1"]],"weights":["5/3","7/2"]}'
A = '{"weights":["1","5/2"]}'
B = '{"weights":["1","7/3"]}'
S = '{"steps":[{"center":"-2/3"},{"center":"inf"}],"weights":["2","3"]}'
T = '{"steps":[{"center":"-2/3"},{"center":"inf"}],"weights":["3","2"]}'
CURVE = '{"weights":["1","inf"]}'
RANK2 = '{"frame":[["1","0"],["1","2"]],"weights":["1","inf"]}'
XY = '{"weights":["1","2"]}'
YX = '{"weights":["2","1"]}'
TREE = ("--tree", "tree.json")
FORK = ("--tree", "fork.json")
SEED_OVER_64_BITS = str(2**64)
# each exponent has the most digits an argument may hold; their sum has one more
HUGE = "y^{0}*y^{0}".format("9" * 4300)

# (name, argv); each runs once as written and once with "--json"
COMMANDS = [
    ("val-eval", ["val", "eval", "--valuation", XY, "--poly", "x*y^2", "--poly", "y"]),
    ("val-mvalue", ["val", "mvalue", "--valuation", '{"weights":["2","3"]}']),
    ("val-normalize", ["val", "normalize", "--valuation", N]),
    ("val-compare", ["val", "compare", "--valuation", A, "--valuation", B]),
    ("val-compare-incomparable", ["val", "compare", "--valuation", XY, "--valuation", YX]),
    ("val-inf", ["val", "inf", "--valuation", S, "--valuation", T]),
    ("val-inf-files", ["val", "inf", "--in", "a.json", "--valuation", B, "--valuation", XY]),
    ("val-stream", ["val", "stream", "--valuation", S]),
    ("val-stream-tail", ["val", "stream", "--valuation", CURVE]),
    ("val-stream-closing-row", ["val", "stream", "--valuation", RANK2]),
    ("val-canon", ["val", "canon", "--valuation", C]),
    ("val-krull-rank2", ["val", "krull", "--valuation", RANK2, "--poly", "x*y+y^2", "--poly", "x^3-y"]),
    ("val-krull-rank2-bare", ["val", "krull", "--valuation", CURVE]),
    ("val-krull-rank1", ["val", "krull", "--valuation", XY, "--poly", "x", "--poly", "x*y"]),
    ("val-krull-rank1-bare", ["val", "krull", "--valuation", XY]),
    ("val-common-min", ["val", "common-min", "--valuation", XY, "--valuation", YX]),
    ("val-witness-incomparable", ["val", "witness", "--valuation", XY, "--valuation", YX, "--seed", "5"]),
    ("val-witness", ["val", "witness", "--valuation", A, "--valuation", B, "--samples", "3"]),
    ("val-witness-none", ["val", "witness", "--valuation", '{"steps":[{"center":"1"}],"weights":["1","1"]}',
                          "--valuation", '{"steps":[{"center":"1"},{"center":"1"}],"weights":["1","3"]}',
                          "--samples", "3"]),
    ("val-witness-eq", ["val", "witness", "--valuation", XY, "--valuation", XY, "--samples", "2"]),
    ("tree-check", ["tree", "check", *TREE]),
    ("tree-check-poset", ["tree", "check", *FORK, "--samples", "3"]),
    ("tree-inf", ["tree", "inf", *TREE, "--points", "0/0", "0/1@1/4"]),
    ("tree-inf-poset", ["tree", "inf", *FORK, "--points", "X", "1/3"]),
    ("tree-inf-poset-none", ["tree", "inf", *FORK, "--points", "X", "Y"]),
    ("tree-dist", ["tree", "dist", "--in", "tree.json", "--points", "0/1", "1/0"]),
    ("tree-nbhd", ["tree", "nbhd", *TREE, "--points", "0@1/2", "0/0", "0/1@1/4", "root", "1"]),
    ("tree-ball-check", ["tree", "ball-check", *TREE, "--points", "0/1@1/4", "0/0", "0/1@1/4"]),
    ("tree-countability", ["tree", "countability", "--samples", "5", "--seed", "3"]),
    ("suite-all", ["suite", "all"]),
]

ERRORS = [
    ("too-few-valuations", ["val", "compare", "--valuation", XY]),
    ("too-few-valuations-inf", ["val", "inf", "--valuation", XY, "--json"]),
    ("too-many-valuations", ["val", "eval", "--valuation", XY, "--valuation", YX, "--poly", "x"]),
    ("no-valuation", ["val", "mvalue"]),
    ("missing-tree", ["tree", "check"]),
    ("missing-tree-dist", ["tree", "dist", "--points", "0/0", "0/1"]),
    ("points-count-dist", ["tree", "dist", *TREE, "--points", "0/0"]),
    ("points-count-nbhd", ["tree", "nbhd", *TREE, "--points", "0/0", "--json"]),
    ("points-count-ball-check", ["tree", "ball-check", *TREE, "--points", "0/0", "0/1"]),
    ("points-count-bad-tree", ["tree", "dist", "--tree", "bad-tree.json", "--points", "0/0"]),
    ("bad-point", ["tree", "dist", *TREE, "--points", "0/0", "0/7"]),
    ("bad-poly-after-good", ["val", "eval", "--valuation", XY, "--poly", "y", "--poly", "z"]),
    ("bad-poly-after-good-json", ["val", "eval", "--valuation", XY, "--poly", "y", "--poly", "z", "--json"]),
    ("bad-poly-krull", ["val", "krull", "--valuation", XY, "--poly", "x", "--poly", "x^"]),
    ("seed-over-64-bits", ["val", "witness", "--valuation", XY, "--valuation", YX, "--seed", SEED_OVER_64_BITS]),
    ("seed-negative", ["tree", "countability", "--seed=-1"]),
    ("samples-over-limit", ["tree", "countability", "--samples", "10001"]),
    ("countability-over-star", ["tree", "countability", "--samples", "999"]),
    ("missing-poly", ["val", "eval", "--valuation", XY]),
    ("poly-without-value", ["val", "eval", "--valuation", XY, "--poly", "--json"]),
    ("bad-json-text", ["val", "canon", "--valuation", "{"]),
    ("bad-valuation", ["val", "canon", "--valuation", '{"weights":[1,2]}']),
    ("missing-file", ["val", "canon", "--in", "missing.json"]),
    ("missing-tree-file", ["tree", "check", "--tree", "missing.json"]),
    ("bad-tree", ["tree", "check", "--tree", "bad-tree.json"]),
    ("unknown-flag", ["val", "eval", "--bogus"]),
    ("no-op", ["val"]),
    ("no-group", []),
    ("long-number", ["val", "mvalue", "--valuation", '{"weights":["%s","1"]}' % ("7" * 4301)]),
    ("result-over-digit-limit", ["val", "eval", "--valuation", '{"weights":["1","%s"]}' % ("9" * 4300),
                                 "--poly", "x", "--poly", "y^2"]),
    ("krull-rank1-over-digit-limit", ["val", "krull", "--valuation", XY, "--poly", "x", "--poly", HUGE]),
    ("krull-rank1-over-digit-limit-json", ["val", "krull", "--valuation", XY, "--poly", "x", "--poly", HUGE,
                                           "--json"]),
    ("krull-rank2-over-digit-limit", ["val", "krull", "--valuation", CURVE, "--poly", "x", "--poly", HUGE]),
]

HELPS = [[], ["val"], ["tree"], ["suite"]]
for _, argv in COMMANDS:
    if argv[:2] not in HELPS:
        HELPS.append(argv[:2])

CALLS = COMMANDS + [(name + "-json", argv + ["--json"]) for name, argv in COMMANDS] + ERRORS
CALLS += [("help-" + "-".join(argv or ["valtree"]), argv + ["--help"]) for argv in HELPS]


def call(argv):
    """(exit code, stdout, stderr) of one in-process run of the CLI."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's exits: help, usage errors
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


def write_files(directory):
    for name, doc in FILES.items():
        Path(directory, name).write_text(json.dumps(doc), encoding="utf-8")


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text(encoding="utf-8"))


@pytest.fixture
def in_files(tmp_path, monkeypatch):
    write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")


def test_the_calls_cover_every_command_and_help_text(pinned):
    names = {name for name, _ in CALLS}
    assert len(names) == len(CALLS) and names == set(pinned)
    commands = {tuple(argv[:2]) for _, argv in COMMANDS}
    groups = build_parser()._subparsers._group_actions[0].choices
    every = {(g, op) for g, p in groups.items() for op in p._subparsers._group_actions[0].choices}
    assert commands == every
    assert len(HELPS) == 1 + len(groups) + len(every)


@pytest.mark.parametrize("name, argv", CALLS, ids=[name for name, _ in CALLS])
def test_bytes_match_the_recorded_ones(pinned, in_files, name, argv):
    assert call(argv) == pinned[name]


if __name__ == "__main__":
    import tempfile

    here = os.getcwd()
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as directory:
        write_files(directory)
        os.chdir(directory)
        recorded = {name: call(argv) for name, argv in CALLS}
        os.chdir(here)
    PINNED.write_text(json.dumps(recorded, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"{len(recorded)} calls recorded in {PINNED}", file=sys.stderr)
