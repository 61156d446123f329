"""Seeded inputs for the valtree benchmark, built without importing valtree.

Everything here is a pure function of a ``random.Random(seed)`` stream and
plain ``fractions.Fraction`` arithmetic.  The library is never called to make
an input: its generators normalize valuations, and that would warm the
library's caches before timing starts.

Chains are written the way the library reads them: a valuation is a list of
centers (``"0"``, ``"inf"`` or a small rational) followed by a weight pair.
With the identity frame its canonical chain is that prefix followed by the
subtractive Euclid walk of the weights (``"inf"`` while the first weight is
larger, ``"0"`` while the second is), so the benchmark knows every input's
chain length without asking the code under test.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

SMALL_CENTERS = ("1", "-1", "1/2", "-1/2", "2", "-2", "1/3", "-2/3", "3", "3/2")

# Chain-level buckets of the meet-deep scaling curve, and how many pairs of
# each one a round holds.  The shapes of the pairs come from DESIGN_SEED and
# only their values from the run's seed (see ``meet_pairs``).
LEVEL_BUCKETS: Tuple[Tuple[str, int, int], ...] = (
    ("1-8", 1, 8),
    ("9-16", 9, 16),
    ("17-32", 17, 32),
    ("33plus", 33, 48),
)
MEET_PAIRS_PER_BUCKET = (24, 48, 36, 12)
SHARED_PREFIX_SHARE = 0.6
DESIGN_SEED = 1205_5625

# Bound on the substitution work of one chain (see ``image_work``).  Chains
# that alternate between the centers 0 and inf, or that put a nonzero finite
# center after such an alternation, have substitution images whose degrees
# grow exponentially with depth, and the library builds every power of them
# one multiplication at a time.  Unbounded, a single pair of a 16-level and
# a 26-level chain took 13 s.  The bound keeps the slowest op near a third of
# a second on a 2-core x86 VM while leaving every bucket populated.  It is
# computed from the chain alone, never from a measured time.
WORK_CAP = 60_000


def euclid_centers(w1: Fraction, w2: Fraction) -> List[str]:
    """The centers the library appends to reduce the weights (w1, w2)."""
    out = []
    while w1 != w2:
        if w1 > w2:
            out.append("inf")
            w1 -= w2
        else:
            out.append("0")
            w2 -= w1
    return out


def _image_work_from(chain: Sequence[str]) -> int:
    """Estimated cost of building the images of x and y along ``chain``.

    Each image is tracked as (terms, max x-exponent, max y-exponent).  A
    substitution costs one multiplication per power of a step image up to
    the largest exponent, a scan of the power cache per new power (cheap, so
    weighted down), and terms-in times terms-out (each term is added into a
    fresh polynomial).  Exact cancellation is ignored, so this bounds rather
    than predicts.
    """
    images = [(1, 1, 0), (1, 0, 1)]
    work = 0
    for c in chain:
        nxt = []
        for terms, r, s in images:
            work += r + s + (r * r + s * s) // 64
            if c == "inf":  # x <- x*y
                out = (terms, r, r + s)
            elif c == "0":  # y <- x*y
                out = (terms, r + s, s)
            else:  # y <- x*(y + c)
                out = (min(terms * (s + 1), (r + s + 1) * (s + 1)), r + s, s)
            work += terms * out[0]
            nxt.append(out)
        images = nxt
    return work


def image_work(chain: Sequence[str], cap: float = float("inf")) -> int:
    """Work of the chain and of every tail of it, which meet rebuilds too;
    the sum stops early once it passes ``cap``."""
    total = 0
    for i in range(len(chain)):
        total += _image_work_from(chain[i:])
        if total > cap:
            break
    return total


def alternations(chain: Sequence[str]) -> int:
    """Switches between an infinite and a finite center along the chain."""
    return sum((a == "inf") != (b == "inf") for a, b in zip(chain, chain[1:]))


def _cf_ratio(rng: random.Random) -> Tuple[Fraction, int]:
    """A ratio >= 1 with a short continued fraction, and its Euclid length."""
    quotients = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
    ratio = Fraction(quotients[-1])
    for q in reversed(quotients[:-1]):
        ratio = q + 1 / ratio
    return ratio, sum(quotients) - 1


def _prefix_kinds(rng: random.Random, n: int) -> List[str]:
    """n center kinds ("0", "inf", or "c" for a finite nonzero center), drawn
    as runs so that long chains need not alternate often."""
    out: List[str] = []
    while len(out) < n:
        r = rng.random()
        kind = "0" if r < 0.35 else "inf" if r < 0.6 else "c"
        out.extend([kind] * rng.randint(1, max(1, n // 3)))
    return out[:n]


def _shape(rng: random.Random, lo: int, hi: int, shared: Sequence[str] = ()) -> Dict:
    """The structure of a valuation: center kinds, weight ratio, and a
    canonical chain of lo..hi levels whose work is within ``WORK_CAP``.

    With ``shared``, the shape starts with a prefix of those kinds.
    """
    for _ in range(10_000):
        ratio, tail = _cf_ratio(rng)
        swap = rng.random() < 0.5
        n = rng.randint(lo, hi) - tail
        if n < 0:
            continue
        keep = rng.randint(0, min(len(shared), n))
        kinds = list(shared[:keep]) + _prefix_kinds(rng, n - keep)
        w = (ratio, Fraction(1)) if swap else (Fraction(1), ratio)
        chain = kinds + euclid_centers(*w)
        work = image_work(chain, WORK_CAP)
        if work <= WORK_CAP:
            return {"kinds": kinds, "keep": keep, "weights": w, "chain": chain, "work": work}
    raise RuntimeError(f"no chain of {lo}-{hi} levels fits the work bound")


def _fill(rng: random.Random, shape: Dict, shared: Sequence[str] = ()) -> Dict:
    """A valuation of the given shape: each finite center gets a small
    rational (copied from ``shared`` on the shared prefix) and the weights a
    random common scale, which normalization removes again."""
    prefix = list(shared[: shape["keep"]])
    prefix += [
        rng.choice(SMALL_CENTERS) if kind == "c" else kind
        for kind in shape["kinds"][len(prefix):]
    ]
    scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    w1, w2 = (scale * w for w in shape["weights"])
    chain = prefix + euclid_centers(w1, w2)
    return {
        "doc": {"steps": [{"center": c} for c in prefix], "weights": [str(w1), str(w2)]},
        "prefix": prefix,
        "chain": chain,
        "levels": len(chain),
        "work": shape["work"],
    }


def _valuation(rng: random.Random, lo: int, hi: int) -> Dict:
    return _fill(rng, _shape(rng, lo, hi))


def meet_pairs(seed: int) -> List[Dict]:
    """The meet-deep op list.

    The shapes of the pairs (chain lengths, center kinds, weight ratios,
    shared prefixes) come from the fixed ``DESIGN_SEED``, in fixed quotas
    per level bucket; ``seed`` draws the values (which small rational each
    finite center is, the weight scales) and the order.  Op cost follows the
    shape far more than the values, so seeds vary the inputs without moving
    the workload's cost from one seed to the next.
    """
    design = random.Random(DESIGN_SEED)
    rng = random.Random(seed)
    pairs = []
    for (name, lo, hi), count in zip(LEVEL_BUCKETS, MEET_PAIRS_PER_BUCKET):
        for _ in range(count):
            a = _shape(design, lo, hi)
            shared = design.random() < SHARED_PREFIX_SHARE
            b = _shape(design, lo, hi, a["kinds"] if shared else ())
            nu = _fill(rng, a)
            mu = _fill(rng, b, nu["prefix"])
            pairs.append({"bucket": name, "nu": nu, "mu": mu, "shared": shared})
    rng.shuffle(pairs)
    return pairs


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

# Calls per round, by command.  Tree-check sizes are fixed because the axiom
# report is O(n^4) in the node count (T4 tests every subset of up to three
# nodes against every node): one call took about 0.25 s at 24 nodes, 0.45 s
# at 32 and 1 s at 40 on a 2-core x86 VM.  The largest tree sets the latency
# tail, so it is capped at 40.
CLI_MIX = (
    ("val eval", 6),
    ("val inf", 5),
    ("val canon", 5),
    ("val stream", 5),
    ("val compare", 5),
    ("tree dist", 5),
    ("tree inf", 5),
)
TREE_CHECK_NODES = (8, 12, 16, 24, 32, 40)
CLI_LEVELS = (1, 16)


def poly_text(rng: random.Random) -> Tuple[str, int, int]:
    """A polynomial in the CLI's syntax, with its term count and degree."""
    exps = set()
    for _ in range(rng.randint(1, 4)):
        r = rng.randint(0, 4)
        exps.add((r, rng.randint(0, 4 - r)))
    text = ""
    for r, s in sorted(exps, reverse=True):
        c = rng.randint(1, 9)
        factors = [str(c)] if c != 1 or (r, s) == (0, 0) else []
        factors += ["x" if r == 1 else f"x^{r}"] if r else []
        factors += ["y" if s == 1 else f"y^{s}"] if s else []
        negative = rng.random() < 0.4
        if text:
            text += " - " if negative else " + "
        elif negative:
            text = "-"
        text += "*".join(factors)
    return text, len(exps), max(r + s for r, s in exps)


def tree_doc(rng: random.Random, n_nodes: int) -> Tuple[Dict, List[str]]:
    """A rooted tree of n_nodes nodes and the points the CLI may name on it.

    Edges are rationals in [1/4, 3]; about one leaf in ten gets an infinite
    edge.  Points are node paths ("root", "0/2") and interior points of
    finite edges ("0/2@1/2").
    """
    kids: Dict[Tuple[int, ...], int] = {(): 0}
    paths: List[Tuple[int, ...]] = [()]
    for _ in range(n_nodes - 1):
        parent = rng.choice(paths)
        path = parent + (kids[parent],)
        kids[parent] += 1
        kids[path] = 0
        paths.append(path)
    edges = {}
    for path in paths[1:]:
        if kids[path] == 0 and rng.random() < 0.1:
            edges[path] = "inf"
        else:
            edges[path] = str(Fraction(rng.randint(1, 12), rng.randint(1, 4)))

    def node(path):
        children = [
            {"edge": edges[path + (i,)], "node": node(path + (i,))}
            for i in range(kids[path])
        ]
        return {"children": children} if children else {}

    points = ["root"]
    for path in paths[1:]:
        text = "/".join(map(str, path))
        if edges[path] == "inf":
            points.append(f"{text}@1")
            continue
        points.append(text)
        points.append(f"{text}@{Fraction(edges[path]) / 2}")
    return {"nodes": {"root": node(())}, "psi": "arclength+1"}, points


def cli_calls(seed: int) -> Tuple[List[Dict], Dict[str, object]]:
    """The cli-mix op list and the files it reads (name -> JSON document).

    Each call is ``{"kind", "argv", "levels", "poly_terms", "poly_degree",
    "tree_nodes"}``; argv names files relative to the work directory.
    """
    rng = random.Random(seed)
    files: Dict[str, object] = {}
    calls: List[Dict] = []

    def val_file() -> Tuple[str, int]:
        v = _valuation(rng, *CLI_LEVELS)
        name = f"v{len(files)}.json"
        files[name] = v["doc"]
        return name, v["levels"]

    def tree_file(n_nodes: int) -> Tuple[str, List[str]]:
        doc, points = tree_doc(rng, n_nodes)
        name = f"t{len(files)}.json"
        files[name] = doc
        return name, points

    for kind, count in CLI_MIX:
        for _ in range(count):
            call = {"kind": kind, "levels": [], "poly_terms": [], "poly_degree": [], "tree_nodes": []}
            group, op = kind.split()
            argv = [group, op]
            if group == "val":
                n_vals = {"inf": rng.randint(2, 3), "compare": 2}.get(op, 1)
                for _ in range(n_vals):
                    name, levels = val_file()
                    argv += ["--in", name]
                    call["levels"].append(levels)
                if op == "eval":
                    for _ in range(rng.randint(1, 3)):
                        text, terms, degree = poly_text(rng)
                        argv.append(f"--poly={text}")  # text may start with '-'
                        call["poly_terms"].append(terms)
                        call["poly_degree"].append(degree)
            else:
                n_nodes = rng.randint(8, 40)
                name, points = tree_file(n_nodes)
                argv += ["--tree", name, "--points"]
                argv += rng.sample(points, 2 if op == "dist" else rng.randint(2, 4))
                call["tree_nodes"].append(n_nodes)
            if rng.random() < 0.5:
                argv.append("--json")
            call["argv"] = argv
            calls.append(call)
    for n_nodes in TREE_CHECK_NODES:
        name, _ = tree_file(n_nodes)
        argv = ["tree", "check", "--tree", name] + (["--json"] if rng.random() < 0.5 else [])
        calls.append(
            {"kind": "tree check", "argv": argv, "levels": [], "poly_terms": [],
             "poly_degree": [], "tree_nodes": [n_nodes]}
        )
    rng.shuffle(calls)
    return calls, files
