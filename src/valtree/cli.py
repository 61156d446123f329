"""Command-line front end: evaluation, infima, dilatation reports, krull,
tree checks, and the property suites.  JSON in, JSON or table out.

Exit codes: 0 success/pass, 1 check failure (witness printed), 2 usage or
format error.  Every run echoes its effective configuration to stderr.

Two limits are checked while the arguments are read, before any work: no
number in an argument or input file may have more than ``MAX_DIGITS``
digits, and ``--samples`` must be at least 1 and at most ``MAX_SAMPLES``.
Going over either exits 2 with a message that names the limit, as do
``tree countability`` with more than ``MAX_NEIGHBORHOODS`` samples, ``tree
check`` of a tree of more than ``MAX_CHECK_NODES`` nodes, and a computed value
too long to print.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from typing import List, Optional

from .jsonio import (
    ArrayDocument,
    FormatError,
    canonical_document,
    canonical_to_json,
    format_fi_point,
    format_point,
    is_poset_doc,
    parse_fi_point,
    parse_point,
    rank2_values_to_json,
    tree_from_json,
    valuation_from_json,
    valuation_to_json,
)
from .krull import KrullRank2, krull_lift, rank2_eval
from .poly import BivarPoly, poly_parse
from .rationals import format_extrat, format_rat, is_inf, parse_int
from .suites import run_all
from .testkit import DEFAULT_SEED, Counterexample, sampling_leq_oracle
from .tree import (
    TangentRef,
    ball_in_subbasic_check,
    build_star,
    class_member,
    fi_axiom_report,
    fi_infimum,
    fi_no_infimum_schedule,
    star_neighborhoods,
    star_witness,
    t_dpsi,
    t_inf_set,
    tree_axiom_report,
)
from .valuation import (
    canonicalize,
    common_minimizer,
    compare,
    dilatation_length,
    evaluate,
    infimum,
    m_value,
    multiplicity_stream,
    normalize,
)

_X = BivarPoly.var_x()
_Y = BivarPoly.var_y()

# Python's default limit on converting an int from text: checking it here
# names the limit, where Python's own message would name a setting to raise
MAX_DIGITS = 4300
_LONG_NUMBER = re.compile(r"\d{%d}" % (MAX_DIGITS + 1))
# the work of a sampled check grows with its samples: on a five-edge tree,
# ``tree ball-check`` takes about 1.4 s and 31 MB at this limit
MAX_SAMPLES = 10_000
# ``tree countability`` names its neighborhoods on distinct branches of this
# star and needs two branches more for its witness
STAR_BRANCHES = 1000
MAX_NEIGHBORHOODS = STAR_BRANCHES - 2
# ``tree check`` of a tree asks the order of every pair of its grid points,
# three per edge, and checks T4 on every pair of nodes, O(n^2) bitmask
# operations: a 40-node star or chain takes about 0.02 s in-process; the
# forked interval checks its at most 66 distinct points, whatever --samples
MAX_CHECK_NODES = 40
# the text of Python's ValueError for an int too long to print
_INT_TEXT_LIMIT = "integer string conversion"


def _show(args, doc, text=None) -> None:
    """Print ``doc`` as JSON under ``--json``, else ``text``: a line, or lines
    printed as they are made (with no text, ``doc`` in both modes).  A doc of
    None prints nothing, a function in its place is called only if shown,
    and a ``jsonio.ArrayDocument`` is written as its array is made."""
    if not args.json and text is not None:
        for line in [text] if isinstance(text, str) else text:
            print(line)
        return
    doc = doc() if callable(doc) else doc
    if isinstance(doc, ArrayDocument):
        doc.write(sys.stdout)
        print()
    elif doc is not None:
        print(json.dumps(doc))


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads ``--poly -x+y`` as ``--poly=-x+y``: argparse takes a value that
    starts with ``-`` for an option, and a polynomial may start with one."""

    def parse_known_args(self, args=None, namespace=None):
        if args is not None and "--poly" in self._option_string_actions:
            joined = []
            for arg in args:
                if joined and joined[-1] == "--poly" and arg[:1] == "-" and arg[:2] != "--":
                    joined[-1] += "=" + arg
                else:
                    joined.append(arg)
            args = joined
        return super().parse_known_args(args, namespace)


def _short_numbers(text: str) -> str:
    """The text, if none of its numbers is longer than ``MAX_DIGITS`` digits."""
    if _LONG_NUMBER.search(text):
        raise argparse.ArgumentTypeError(f"numbers are limited to {MAX_DIGITS} digits")
    return text


def _json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.loads(_short_numbers(fh.read()))
    except OSError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"{path}: {exc}") from exc


def _json_text(text: str):
    try:
        return json.loads(_short_numbers(text))
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int_value(text: str) -> int:
    """An integer argument: ASCII digits with an optional leading -."""
    try:
        return parse_int(_short_numbers(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed_value(text: str) -> int:
    value = _int_value(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _samples_value(text: str) -> int:
    value = _int_value(text)
    if value < 1:
        raise argparse.ArgumentTypeError("samples must be at least 1")
    if value > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"samples are limited to {MAX_SAMPLES}")
    return value


def _take_vals(args, low: int, high: Optional[int] = None, normal: bool = False) -> List:
    """The valuations of ``--in`` and ``--valuation``, low to high of them,
    normalized when ``normal`` is set."""
    vals = [valuation_from_json(doc) for doc in args.vals]
    n = len(vals)
    if n < low or (high is not None and n > high):
        want = f"exactly {low}" if high == low else f"at least {low}"
        raise FormatError(f"{args.command} needs {want} valuation(s), got {n}")
    return [normalize(v) for v in vals] if normal else vals


def _tree_doc(args):
    if args.tree is None:
        raise FormatError(f"{args.command} needs --tree FILE")
    return args.tree


def _tree_points(args, low: int = 1, high: Optional[int] = None, usage: str = ""):
    """The Psi of the ``--tree`` tree and the ``--points`` on it, low to high
    of them; too few or too many exit 2 with ``usage``."""
    tree, psi = tree_from_json(_tree_doc(args))
    n = len(args.points)
    if n < low or (high is not None and n > high):
        raise FormatError(f"{args.command} needs {usage}")
    return psi, [parse_point(tree, text) for text in args.points]


def _echo_config(args) -> None:
    shown = [
        f"{key}={len(value) if key == 'vals' else '<file>' if key == 'tree' else value}"
        for key, value in sorted(vars(args).items())
        if key not in ("func", "command") and value is not None
    ]
    print(f"config: {args.command} {' '.join(shown)}", file=sys.stderr)


# ---------------------------------------------------------------------------
# val subcommands
# ---------------------------------------------------------------------------


def _cmd_val_eval(args) -> int:
    (nu,) = _take_vals(args, 1, 1)
    for text in args.poly:
        value = format_extrat(evaluate(nu, poly_parse(text)))
        _show(args, {"poly": text, "value": value}, value)
    return 0


def _cmd_val_mvalue(args) -> int:
    (nu,) = _take_vals(args, 1, 1)
    value = format_extrat(m_value(nu))
    _show(args, {"value": value}, value)
    return 0


def _cmd_val_normalize(args) -> int:
    (nu,) = _take_vals(args, 1, 1, normal=True)
    _show(args, valuation_to_json(nu))
    return 0


def _cmd_val_compare(args) -> int:
    word = compare(*_take_vals(args, 2, 2, normal=True)).value
    _show(args, {"compare": word}, word)
    return 0


def _cmd_val_inf(args) -> int:
    _show(args, canonical_to_json(canonicalize(infimum(_take_vals(args, 2, normal=True)))))
    return 0


def _cmd_val_canon(args) -> int:
    (nu,) = _take_vals(args, 1, 1, normal=True)
    _show(args, canonical_document(canonicalize(nu)))
    return 0


def _cmd_val_stream(args) -> int:
    (nu,) = _take_vals(args, 1, 1, normal=True)
    form = canonicalize(nu)
    lam = dilatation_length(nu)
    stream = multiplicity_stream(nu)
    # a curve whose direction [a:b] has a, b != 0 closes on -a/b, a row before its tail
    n = len(form.steps) + (is_inf(lam) and all(form.terminal.direction.as_pair()))
    rows = zip(range(n), stream)  # takes no entry past the last row

    # in either mode the rows are printed as the stream yields them
    def tail():
        end = next(stream) if is_inf(lam) else None
        stream.close()  # frees the level values before the canonical form is made
        doc = {"lambda": format_extrat(lam), "canonical": canonical_to_json(form)}
        if end is not None:
            doc["tail"] = {"center": str(end[0]), "m": format_rat(end[1])}
        return doc

    elements = ({"level": i, "center": str(c), "m": format_rat(m)} for i, (c, m) in rows)

    def text():
        yield "level  center  m"
        for i, (center, m) in rows:
            yield f"{i:<6d} {center!s:<7} {format_rat(m)}"
        if is_inf(lam):
            center, m = next(stream)
            yield f"center {center}, m={format_rat(m)} (repeats)"
        stream.close()  # frees the level values before the canonical line is made
        yield f"lambda = {format_extrat(lam)}"
        yield f"canonical: {json.dumps(canonical_to_json(form))}"

    _show(args, ArrayDocument("rows", elements, tail), text())
    return 0


def _cmd_val_krull(args) -> int:
    (nu,) = _take_vals(args, 1, 1, normal=True)
    result = krull_lift(nu)
    polys = [(text, poly_parse(text)) for text in args.poly or []]
    rank2 = isinstance(result, KrullRank2)
    if rank2:
        rho = result.val
        doc = {
            "result": "rank-2",
            "support_generator": str(result.support_generator),
            "values": rank2_values_to_json(rho.wx, rho.wy),
            "frame": [[format_rat(v) for v in row] for row in rho.frame.rows],
        }
        head, key = [f"rank-2 refinement, support generator {result.support_generator}"], "poly_values"
    else:
        doc = {"result": "same-rank1", "valuation": valuation_to_json(result.valuation)}
        head, key = ["same rank 1", json.dumps(doc["valuation"])], "values"
    _show(args, None, head)
    values = []
    # with no --poly, the text of a rank-2 refinement shows the values of x and y
    for text, phi in polys or ([("x", _X), ("y", _Y)] if rank2 else []):
        value = rank2_eval(rho, phi) if rank2 else evaluate(result.valuation, phi)
        value = f"({value[0]}, {format_rat(value[1])})" if isinstance(value, tuple) else format_extrat(value)
        values.append({"poly": text, "value": value})
        _show(args, None, f"{text} -> {value}")
    if polys:
        doc[key] = values
    _show(args, doc, ())
    return 0


def _cmd_val_common_min(args) -> int:
    a, b = common_minimizer(*_take_vals(args, 2, 2, normal=True))
    form = _X * a + _Y * b
    a, b = format_rat(a), format_rat(b)
    _show(args, {"a": a, "b": b, "form": str(form)}, f"minimizer: {form}  (a={a}, b={b})")
    return 0


def _cmd_val_witness(args) -> int:
    nu, mu = _take_vals(args, 2, 2, normal=True)
    word = compare(nu, mu).value
    found = []
    # a counterexample to "left <= right" is a polynomial the left values higher
    for tag, hi, lo in (("left>right", nu, mu), ("right>left", mu, nu)):
        hit = sampling_leq_oracle(hi, lo, seed=args.seed, n=args.samples)
        if isinstance(hit, Counterexample):
            left, right = evaluate(nu, hit.phi), evaluate(mu, hit.phi)
            found.append(
                {"sense": tag, "poly": str(hit.phi), "left": format_extrat(left), "right": format_extrat(right)}
            )
    lines = [word] + [f"  {w['sense']}: {w['poly']}  left={w['left']} right={w['right']}" for w in found]
    if not found and word != "EQ":
        lines.append(f"  no separating polynomial found in {args.samples} samples")
    _show(args, {"compare": word, "witnesses": found}, lines)
    return 0


# ---------------------------------------------------------------------------
# tree and suite subcommands
# ---------------------------------------------------------------------------


def _cmd_tree_check(args) -> int:
    doc = _tree_doc(args)
    if is_poset_doc(doc):
        report = fi_axiom_report(samples=args.samples, seed=args.seed)
    else:
        tree, _ = tree_from_json(doc)
        n = len(tree.node_paths())
        if n > MAX_CHECK_NODES:
            raise FormatError(f"tree check is limited to trees of {MAX_CHECK_NODES} nodes, this one has {n}")
        report = tree_axiom_report(tree)
    axioms = {axiom: getattr(report, axiom) for axiom in ("t1", "t2", "t3", "t4")}
    witness = None if report.witness is None else str(report.witness)
    lines = [f"{axiom.upper()}: {'pass' if ok else 'FAIL'}" for axiom, ok in axioms.items()]
    if witness is not None:
        lines.append(f"witness: {witness}")
    _show(args, {**axioms, "witness": witness}, lines)
    return 0 if report.all_pass() else 1


def _cmd_tree_inf(args) -> int:
    if is_poset_doc(_tree_doc(args)):
        points = [parse_fi_point(text) for text in args.points]
        bottom = fi_infimum(points)
        if bottom is not None:
            shown = format_fi_point(bottom)
            _show(args, {"infimum": shown}, shown)
            return 0
        schedule = [format_rat(t) for t in fi_no_infimum_schedule(6)]
        witness = {"points": [format_fi_point(p) for p in points], "ascending_lower_bounds": schedule}
        text = "no infimum: the lower bounds ascend without a greatest one"
        _show(args, {"infimum": None, "witness": witness}, [text, f"witness schedule: {', '.join(schedule)}, ..."])
        return 1
    psi, points = _tree_points(args)
    bottom = t_inf_set(points, points[0], psi)
    shown, value = format_point(bottom), format_extrat(psi.psi(bottom))
    _show(args, {"infimum": shown, "psi": value}, f"{shown}  (Psi = {value})")
    return 0


def _cmd_tree_dist(args) -> int:
    psi, (p, q) = _tree_points(args, 2, 2, "exactly two --points")
    d = format_rat(t_dpsi(psi, p, q))
    _show(args, {"distance": d}, d)
    return 0


def _cmd_tree_nbhd(args) -> int:
    _, (base, rep, *queries) = _tree_points(args, 2, None, "--points BASE REP [QUERY...]")
    ref = TangentRef(base, rep)
    members = [(format_point(q), class_member(ref, q)) for q in queries]
    base, rep = format_point(base), format_point(rep)
    _show(
        args,
        {"base": base, "rep": rep, "members": [{"point": q, "member": ok} for q, ok in members]},
        [f"class of {rep} at {base}"] + [f"  {q}: {'in' if ok else 'out'}" for q, ok in members],
    )
    return 0


def _cmd_tree_ball_check(args) -> int:
    psi, (sigma, tau, gamma) = _tree_points(args, 3, 3, "--points SIGMA TAU GAMMA")
    report = ball_in_subbasic_check(psi, sigma, tau, gamma, samples=args.samples)
    epsilon = format_rat(report.epsilon)
    violations = [format_point(p) for p in report.violations]
    _show(
        args,
        {"epsilon": epsilon, "checked": report.checked, "violations": violations},
        [f"epsilon = {epsilon}, {report.checked} points checked"]
        + [f"  violation: {p}" for p in violations],
    )
    return 0 if report.ok() else 1


def _cmd_tree_countability(args) -> int:
    if args.samples > MAX_NEIGHBORHOODS:
        raise FormatError(
            f"tree countability --samples is limited to {MAX_NEIGHBORHOODS}, "
            f"the neighborhoods its {STAR_BRANCHES}-branch star admits"
        )
    star = build_star(STAR_BRANCHES)
    _, refs = star_neighborhoods(star, args.samples, random.Random(args.seed))
    alpha = star_witness(star, refs)
    inside = all(class_member(ref, alpha) for ref in refs)
    alpha = format_point(alpha)
    _show(
        args,
        {"branches": STAR_BRANCHES, "neighborhoods": len(refs), "witness": alpha, "in_all": inside},
        [
            f"star with {STAR_BRANCHES} branches; {len(refs)} neighborhoods of the center",
            f"witness {alpha} lies in all of them, on a branch none of them names",
        ],
    )
    return 0 if inside else 1


def _cmd_suite_all(args) -> int:
    print(f"seed = {args.seed}", file=sys.stderr)
    results = run_all(seed=args.seed)
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'} criterion {r.criterion:2d}: {r.name} -- {r.detail}")
        if not r.passed and r.witness is not None:
            lines.append(f"     witness: {r.witness}")
    _show(
        args,
        [{"criterion": r.criterion, "name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        lines,
    )
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

_POLY = dict(action="append", type=_short_numbers, metavar="STR", help="polynomial in x and y")
# the options of a command, by the names its row in ``_COMMANDS`` gives;
# every command takes the "common" ones first
_OPTIONS = {
    "common": [
        ("--json", dict(action="store_true", help="machine-readable output")),
        ("--seed", dict(type=_seed_value, default=DEFAULT_SEED, metavar="U64")),
    ],
    "vals": [
        ("--in", dict(dest="vals", action="append", type=_json_file, default=[], metavar="FILE",
                      help="valuation JSON file (repeatable)")),
        ("--valuation", dict(dest="vals", action="append", type=_json_text, metavar="JSON",
                             help="inline valuation JSON (repeatable)")),
    ],
    "poly": [("--poly", dict(_POLY, required=True))],
    "poly?": [("--poly", _POLY)],
    "tree": [
        ("--tree", dict(type=_json_file, metavar="FILE", help="tree or poset JSON file")),
        ("--in", dict(dest="tree", type=_json_file, metavar="FILE", help="alias for --tree")),
    ],
    "points": [("--points", dict(nargs="+", type=_short_numbers, required=True, metavar="PT"))],
}
_GROUPS = {"val": "valuation operations", "tree": "tree topology operations", "suite": "property suites"}
# group, command, handler, options (names in ``_OPTIONS``), --samples default
_COMMANDS = (
    ("val", "eval", _cmd_val_eval, "vals poly", None),
    ("val", "mvalue", _cmd_val_mvalue, "vals", None),
    ("val", "normalize", _cmd_val_normalize, "vals", None),
    ("val", "compare", _cmd_val_compare, "vals", None),
    ("val", "inf", _cmd_val_inf, "vals", None),
    ("val", "stream", _cmd_val_stream, "vals", None),
    ("val", "canon", _cmd_val_canon, "vals", None),
    ("val", "krull", _cmd_val_krull, "vals poly?", None),
    ("val", "common-min", _cmd_val_common_min, "vals", None),
    ("val", "witness", _cmd_val_witness, "vals", 50),
    ("tree", "check", _cmd_tree_check, "tree", 6),
    ("tree", "inf", _cmd_tree_inf, "tree points", None),
    ("tree", "dist", _cmd_tree_dist, "tree points", None),
    ("tree", "nbhd", _cmd_tree_nbhd, "tree points", None),
    ("tree", "ball-check", _cmd_tree_ball_check, "tree points", 3),
    ("tree", "countability", _cmd_tree_countability, "", 20),
    ("suite", "all", _cmd_suite_all, "", None),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="valtree",
        description="valuations, their infima, and the tree they live on",
    )
    top = parser.add_subparsers(dest="group", required=True)
    groups = {
        group: top.add_parser(group, help=text).add_subparsers(dest="op", required=True)
        for group, text in _GROUPS.items()
    }
    for group, name, func, options, samples in _COMMANDS:
        p = groups[group].add_parser(name)
        p.set_defaults(func=func, command=f"{group} {name}")
        for key in ["common"] + options.split():
            for flag, kwargs in _OPTIONS[key]:
                p.add_argument(flag, **kwargs)
        if samples is not None:
            p.add_argument("--samples", type=_samples_value, default=samples, metavar="N")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _echo_config(args)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        message = str(exc)
        if isinstance(exc, ValueError) and _INT_TEXT_LIMIT in message:
            # a computed value over Python's own limit, which is left as it is
            message = f"a result has more than {MAX_DIGITS} digits, the most that is printed"
        print(f"error: {message}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError, OverflowError) as exc:
        print(f"error: input too large to process ({type(exc).__name__})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
