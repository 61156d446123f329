"""Seeded fuzzing of the CLI, in-process.

Each call drives ``cli.main`` with a valuation, tree, poset or polynomial
document and an argument list, most of them mutated: a field replaced by a
value of another JSON type or a bad spelling, a key dropped or added, an
array entry dropped or repeated, the JSON text cut or given a stray
character, an argument dropped, repeated or replaced.  Whatever the input,
the exit code is 0, 1 or 2, no traceback escapes, and an exit code of 2
comes with an ``error:`` line on stderr.

Inputs stay small so that no call runs long: exponents at most 3, at most 4
steps, trees at most 3 levels deep, and few samples.
"""

import copy
import json
import random

import pytest

from valtree.cli import main

SEEDS = range(1, 6)
CALLS_PER_SEED = 100

CENTERS = ["0", "inf", "1", "-1", "1/2", "-2/3", "2", "3/4"]
WEIGHTS = ["1", "2", "3", "1/2", "2/3", "3/2", "5/3", "inf"]
FRAME_ENTRIES = ["0", "1", "-1", "2", "1/2"]
EDGES = ["1", "1/2", "2", "3/2", "inf"]
COEFFICIENTS = ["1", "2", "3", "1/2", "2/3"]
# values of the wrong JSON type, bad spellings and edge cases of each field
JUNK = [
    None, True, 0, 3, 1.5, [], {}, "", " ", "x", "-0", "0/0", "1/0", "1/2/3",
    "1e3", "+1", "٣", "inf", "-inf", "nan", "-1", "0", "[1:0]", "99/7",
    ["1", "1"], {"center": "1"}, "arclength+1", "forked-interval",
]
POINTS = ["root", "0", "1", "0/0", "0/1", "1/0", "0/1@1/4", "0@1/2", "0/0/0/0", "7",
          "0@inf", "0@-1", "@", "X", "Y", "x", "1/3", "0.5", "", "/"]
POLY_JUNK = ["x^", "x^-1", "x**2", "(x+y)", "1/0*x", "x y", "--x", "", "+", "x^1/2", "2x"]
VAL_COMMANDS = [
    ("eval", 1, True), ("mvalue", 1, False), ("normalize", 1, False), ("compare", 2, False),
    ("inf", 2, False), ("stream", 1, False), ("canon", 1, False), ("krull", 1, True),
    ("common-min", 2, False), ("witness", 2, False),
]
# (command, points, whether it takes --samples)
TREE_COMMANDS = [
    ("check", 0, True), ("inf", 2, False), ("dist", 2, False), ("nbhd", 3, False),
    ("ball-check", 3, True), ("countability", 0, True),
]
ARG_JUNK = ["--samples", "0", "-1", "10001", "--seed", "--json", "--poly", "--valuation",
            "--points", "--bogus", "x", "{}"]


def valuation_doc(rng):
    doc = {}
    if rng.random() < 0.8:
        doc["steps"] = [{"center": rng.choice(CENTERS)} for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.3:
        doc["frame"] = [[rng.choice(FRAME_ENTRIES) for _ in range(2)] for _ in range(2)]
    if rng.random() < 0.9:
        doc["weights"] = [rng.choice(WEIGHTS) for _ in range(2)]
    return doc


def tree_doc(rng):
    """A tree document and the spellings of some of its points."""
    points = ["root"]

    def node(path):
        if len(path) == 3 or rng.random() < 0.3:
            return {}
        kids = []
        for i in range(rng.randint(1, 3)):
            child = node(path + (i,))
            # an infinite edge ends in a leaf, but now and then it does not
            edge = rng.choice(EDGES[:-1] if child and rng.random() < 0.9 else EDGES)
            kids.append({"edge": edge, "node": child})
            spelling = "/".join(map(str, path + (i,)))
            points.extend([spelling, f"{spelling}@1/4"])
        return {"children": kids}

    doc = {"nodes": {"root": node(())}}
    if rng.random() < 0.3:
        doc["psi"] = rng.choice(["arclength+1", "other"])
    return doc, points


def poly_text(rng):
    if rng.random() < 0.15:
        return rng.choice(POLY_JUNK)
    terms = []
    for _ in range(rng.randint(1, 4)):
        r, s = rng.randint(0, 3), rng.randint(0, 3)
        factors = [rng.choice(COEFFICIENTS)]
        if r:
            factors.append("x" if r == 1 else f"x^{r}")
        if s:
            factors.append("y" if s == 1 else f"y^{s}")
        terms.append("*".join(factors))
    return "".join(rng.choice(["+", "-"]) + t for t in terms).lstrip("+")


def junk(rng):
    return copy.deepcopy(rng.choice(JUNK))


def containers(value):
    """Every object and array in a JSON value, the value itself first."""
    if not isinstance(value, (dict, list)):
        return []
    children = value.values() if isinstance(value, dict) else value
    return [value] + [c for child in children for c in containers(child)]


def mutate(rng, doc):
    """doc with up to three edits at random places in its JSON tree."""
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        if rng.random() < 0.08:
            doc = junk(rng)
            continue
        holders = containers(doc)
        if not holders:
            continue
        target = rng.choice(holders)
        if isinstance(target, dict):
            kind = rng.choice(["replace", "drop", "add"])
            if kind == "add" or not target:
                target[rng.choice(["steps", "frame", "weights", "psi", "edge", "node",
                                   "children", "center", "extra"])] = junk(rng)
            elif kind == "drop":
                del target[rng.choice(sorted(target))]
            else:
                target[rng.choice(sorted(target))] = junk(rng)
        elif target:
            i = rng.randrange(len(target))
            kind = rng.choice(["replace", "drop", "repeat"])
            if kind == "replace":
                target[i] = junk(rng)
            elif kind == "drop":
                del target[i]
            else:
                target.insert(i, copy.deepcopy(target[i]))
        else:
            target.append(junk(rng))
    return doc


def json_text(rng, doc):
    text = json.dumps(doc)
    if rng.random() < 0.05:
        i = rng.randrange(len(text) + 1)
        text = text[:i] + rng.choice(["", "}", ",", "\x00", "٣"]) + text[i:]
    return text


def argument_list(rng, tmp_path, n):
    if rng.random() < 0.55:
        name, n_vals, takes_poly = rng.choice(VAL_COMMANDS)
        argv = ["val", name]
        for _ in range(n_vals + rng.choice([0] * 8 + [-1, 1])):
            doc = valuation_doc(rng)
            if rng.random() < 0.4:
                doc = mutate(rng, doc)
            argv += ["--valuation", json_text(rng, doc)]
        if takes_poly or rng.random() < 0.05:
            # "--poly=TEXT" or "--poly TEXT": both take a TEXT that starts
            # with a minus sign
            for _ in range(rng.choice([0, 1, 1, 1, 2])):
                text = poly_text(rng)
                argv += [f"--poly={text}"] if rng.random() < 0.5 else ["--poly", text]
        if name == "witness":
            argv += ["--samples", rng.choice(["1", "3", "5"])]
    else:
        name, n_points, sampled = rng.choice(TREE_COMMANDS)
        argv = ["tree", name]
        points = POINTS
        if name != "countability":
            if rng.random() < 0.2:
                doc, points = {"poset": "forked-interval"}, ["X", "Y", "0", "1/3", "1/2"]
            else:
                doc, points = tree_doc(rng)
            if rng.random() < 0.1:
                points = POINTS
            if rng.random() < 0.4:
                doc = mutate(rng, doc)
            path = tmp_path / f"tree{n}.json"
            path.write_text(json_text(rng, doc), encoding="utf-8")
            argv += ["--tree", str(path)]
        if n_points:
            count = n_points + rng.choice([0] * 8 + [-1, 1])
            argv += ["--points"] + [rng.choice(points) for _ in range(count)]
        if sampled:
            argv += ["--samples", rng.choice(["1", "2", "3"])]
    if rng.random() < 0.3:
        argv.append("--json")
    if rng.random() < 0.1:
        i = rng.randrange(len(argv) + 1)
        kind = rng.choice(["drop", "repeat", "insert"])
        if kind == "insert" or i == len(argv):
            argv.insert(i, rng.choice(ARG_JUNK))
        elif kind == "drop":
            del argv[i]
        else:
            argv.insert(i, argv[i])
    return argv


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses the argument list
        code = exc.code
    except Exception as exc:  # a traceback the CLI let through
        pytest.fail(f"{argv!r} raised {type(exc).__name__}: {exc}")
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("seed", SEEDS)
def test_every_input_ends_in_a_documented_exit(seed, capsys, tmp_path):
    rng = random.Random(seed)
    codes = []
    for n in range(CALLS_PER_SEED):
        argv = argument_list(rng, tmp_path, n)
        code, out, err = run(capsys, argv)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in out + err, (argv, err)
        if code == 2:
            assert "error:" in err, (argv, err)
        codes.append(code)
    # the mutations leave enough documents whole to reach the commands' work
    assert codes.count(0) >= 20 and codes.count(2) >= 20, codes
