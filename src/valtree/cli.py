"""Command-line front end: evaluation, infima, dilatation reports, krull,
tree checks, and the property suites.  JSON in, JSON or table out.

Exit codes: 0 success/pass, 1 check failure (witness printed), 2 usage or
format error.  Every run echoes its effective configuration to stderr.

Two limits are checked while the arguments are read, before any work: no
number in an argument or input file may have more than ``MAX_DIGITS``
digits, and ``--samples`` must be at least 1 and at most ``MAX_SAMPLES``.
Going over either exits 2 with a message that names the limit, as do
``tree countability`` with more than ``MAX_NEIGHBORHOODS`` samples and a
computed value too long to print.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from typing import List, Optional

from .jsonio import (
    FormatError,
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
# the text of Python's ValueError for an int too long to print
_INT_TEXT_LIMIT = "integer string conversion"


def _emit(doc) -> None:
    print(json.dumps(doc))


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


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


def _add_val_sources(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--in",
        dest="vals",
        action="append",
        type=_json_file,
        default=[],
        metavar="FILE",
        help="valuation JSON file (repeatable)",
    )
    p.add_argument(
        "--valuation",
        dest="vals",
        action="append",
        type=_json_text,
        metavar="JSON",
        help="inline valuation JSON (repeatable)",
    )


def _take_vals(args, low: int, high: Optional[int] = None) -> List:
    vals = [valuation_from_json(doc) for doc in args.vals]
    n = len(vals)
    if n < low or (high is not None and n > high):
        want = f"exactly {low}" if high == low else f"at least {low}"
        raise FormatError(f"{args.command} needs {want} valuation(s), got {n}")
    return vals


def _tree_doc(args):
    if args.tree is None:
        raise FormatError(f"{args.command} needs --tree FILE")
    return args.tree


def _echo_config(args) -> None:
    skip = {"func", "command"}
    shown = []
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        if key in ("vals", "tree"):
            value = len(value) if key == "vals" else "<file>"
        shown.append(f"{key}={value}")
    print(f"config: {args.command} {' '.join(shown)}", file=sys.stderr)


# ---------------------------------------------------------------------------
# val subcommands
# ---------------------------------------------------------------------------


def _cmd_val_eval(args) -> int:
    (nu,) = _take_vals(args, 1, 1)
    for text in args.poly:
        value = format_extrat(evaluate(nu, poly_parse(text)))
        _emit({"poly": text, "value": value}) if args.json else print(value)
    return 0


def _cmd_val_mvalue(args) -> int:
    (nu,) = _take_vals(args, 1, 1)
    value = format_extrat(m_value(nu))
    _emit({"value": value}) if args.json else print(value)
    return 0


def _cmd_val_normalize(args) -> int:
    (nu,) = _take_vals(args, 1, 1)
    _emit(valuation_to_json(normalize(nu)))
    return 0


def _cmd_val_compare(args) -> int:
    nu, mu = (normalize(v) for v in _take_vals(args, 2, 2))
    word = compare(nu, mu).value
    _emit({"compare": word}) if args.json else print(word)
    return 0


def _cmd_val_inf(args) -> int:
    vals = [normalize(v) for v in _take_vals(args, 2)]
    _emit(canonical_to_json(canonicalize(infimum(vals))))
    return 0


def _cmd_val_canon(args) -> int:
    (nu,) = _take_vals(args, 1, 1)
    _emit(canonical_to_json(canonicalize(normalize(nu))))
    return 0


def _cmd_val_stream(args) -> int:
    (nu,) = _take_vals(args, 1, 1)
    nu = normalize(nu)
    form = canonicalize(nu)
    stream = multiplicity_stream(nu)
    rows = [next(stream) for _ in form.steps]
    lam = dilatation_length(nu)
    tail = None if not is_inf(lam) else next(stream)
    if args.json:
        doc = {
            "rows": [
                {"level": i, "center": str(c), "m": format_rat(m)}
                for i, (c, m) in enumerate(rows)
            ],
            "lambda": format_extrat(lam),
            "canonical": canonical_to_json(form),
        }
        if tail is not None:
            doc["tail"] = {"center": str(tail[0]), "m": format_rat(tail[1])}
        _emit(doc)
        return 0
    print("level  center  m")
    for i, (center, m) in enumerate(rows):
        print(f"{i:<6d} {center!s:<7} {format_rat(m)}")
    if tail is not None:
        print(f"center {tail[0]}, m={format_rat(tail[1])} (repeats)")
    print(f"lambda = {format_extrat(lam)}")
    print(f"canonical: {json.dumps(canonical_to_json(form))}")
    return 0


def _cmd_val_krull(args) -> int:
    (nu,) = _take_vals(args, 1, 1)
    result = krull_lift(normalize(nu))
    polys = [(text, poly_parse(text)) for text in args.poly or []]
    if not isinstance(result, KrullRank2):
        doc = {"result": "same-rank1", "valuation": valuation_to_json(result.valuation)}
        if args.json:
            for text, phi in polys:
                doc.setdefault("values", []).append(
                    {"poly": text, "value": format_extrat(evaluate(result.valuation, phi))}
                )
            _emit(doc)
        else:
            print("same rank 1")
            _emit(doc["valuation"])
            for text, phi in polys:
                print(f"{text} -> {format_extrat(evaluate(result.valuation, phi))}")
        return 0
    rho = result.val

    def pair_text(value) -> str:
        if not isinstance(value, tuple):
            return format_extrat(value)
        return f"({value[0]}, {format_rat(value[1])})"

    if args.json:
        doc = {
            "result": "rank-2",
            "support_generator": str(result.support_generator),
            "values": rank2_values_to_json(rho.wx, rho.wy),
            "frame": [[format_rat(v) for v in row] for row in rho.frame.rows],
        }
        if polys:
            doc["poly_values"] = [
                {"poly": text, "value": pair_text(rank2_eval(rho, phi))}
                for text, phi in polys
            ]
        _emit(doc)
        return 0
    print(f"rank-2 refinement, support generator {result.support_generator}")
    for text, phi in polys or [("x", _X), ("y", _Y)]:
        print(f"{text} -> {pair_text(rank2_eval(rho, phi))}")
    return 0


def _cmd_val_common_min(args) -> int:
    nu, mu = (normalize(v) for v in _take_vals(args, 2, 2))
    a, b = common_minimizer(nu, mu)
    form = _X * a + _Y * b
    if args.json:
        _emit({"a": format_rat(a), "b": format_rat(b), "form": str(form)})
    else:
        print(f"minimizer: {form}  (a={format_rat(a)}, b={format_rat(b)})")
    return 0


def _cmd_val_witness(args) -> int:
    nu, mu = (normalize(v) for v in _take_vals(args, 2, 2))
    word = compare(nu, mu).value
    found = []
    # a counterexample to "left <= right" is a polynomial the left values higher
    for tag, hi, lo in (("left>right", nu, mu), ("right>left", mu, nu)):
        hit = sampling_leq_oracle(hi, lo, seed=args.seed, n=args.samples)
        if isinstance(hit, Counterexample):
            found.append(
                (tag, hit.phi, evaluate(nu, hit.phi), evaluate(mu, hit.phi))
            )
    if args.json:
        _emit(
            {
                "compare": word,
                "witnesses": [
                    {
                        "sense": tag,
                        "poly": str(phi),
                        "left": format_extrat(a),
                        "right": format_extrat(b),
                    }
                    for tag, phi, a, b in found
                ],
            }
        )
        return 0
    print(word)
    for tag, phi, a, b in found:
        print(f"  {tag}: {phi}  left={format_extrat(a)} right={format_extrat(b)}")
    if not found and word != "EQ":
        print(f"  no separating polynomial found in {args.samples} samples")
    return 0


# ---------------------------------------------------------------------------
# tree subcommands
# ---------------------------------------------------------------------------


def _cmd_tree_check(args) -> int:
    doc = _tree_doc(args)
    if is_poset_doc(doc):
        report = fi_axiom_report(samples=args.samples, seed=args.seed)
    else:
        tree, _ = tree_from_json(doc)
        report = tree_axiom_report(tree, seed=args.seed, samples=args.samples)
    if args.json:
        _emit(
            {
                "t1": report.t1,
                "t2": report.t2,
                "t3": report.t3,
                "t4": report.t4,
                "witness": None if report.witness is None else str(report.witness),
            }
        )
    else:
        for axiom in ("t1", "t2", "t3", "t4"):
            print(f"{axiom.upper()}: {'pass' if getattr(report, axiom) else 'FAIL'}")
        if report.witness is not None:
            print(f"witness: {report.witness}")
    return 0 if report.all_pass() else 1


def _cmd_tree_inf(args) -> int:
    doc = _tree_doc(args)
    if is_poset_doc(doc):
        points = [parse_fi_point(text) for text in args.points]
        bottom = fi_infimum(points)
        if bottom is not None:
            _emit({"infimum": format_fi_point(bottom)}) if args.json else print(
                format_fi_point(bottom)
            )
            return 0
        schedule = fi_no_infimum_schedule(6)
        shown = ", ".join(format_rat(t) for t in schedule)
        if args.json:
            _emit(
                {
                    "infimum": None,
                    "witness": {
                        "points": [format_fi_point(p) for p in points],
                        "ascending_lower_bounds": [format_rat(t) for t in schedule],
                    },
                }
            )
        else:
            print("no infimum: the lower bounds ascend without a greatest one")
            print(f"witness schedule: {shown}, ...")
        return 1
    tree, psi = tree_from_json(doc)
    points = [parse_point(tree, text) for text in args.points]
    bottom = t_inf_set(points, points[0], psi)
    if args.json:
        _emit({"infimum": format_point(bottom), "psi": format_extrat(psi.psi(bottom))})
    else:
        print(f"{format_point(bottom)}  (Psi = {format_extrat(psi.psi(bottom))})")
    return 0


def _cmd_tree_dist(args) -> int:
    tree, psi = tree_from_json(_tree_doc(args))
    if len(args.points) != 2:
        raise FormatError("tree dist needs exactly two --points")
    p, q = (parse_point(tree, text) for text in args.points)
    d = t_dpsi(psi, p, q)
    _emit({"distance": format_rat(d)}) if args.json else print(format_rat(d))
    return 0


def _cmd_tree_nbhd(args) -> int:
    tree, _ = tree_from_json(_tree_doc(args))
    if len(args.points) < 2:
        raise FormatError("tree nbhd needs --points BASE REP [QUERY...]")
    base, rep, *queries = (parse_point(tree, text) for text in args.points)
    ref = TangentRef(base, rep)
    members = [(q, class_member(ref, q)) for q in queries]
    if args.json:
        _emit(
            {
                "base": format_point(base),
                "rep": format_point(rep),
                "members": [
                    {"point": format_point(q), "member": ok} for q, ok in members
                ],
            }
        )
    else:
        print(f"class of {format_point(rep)} at {format_point(base)}")
        for q, ok in members:
            print(f"  {format_point(q)}: {'in' if ok else 'out'}")
    return 0


def _cmd_tree_ball_check(args) -> int:
    tree, psi = tree_from_json(_tree_doc(args))
    if len(args.points) != 3:
        raise FormatError("tree ball-check needs --points SIGMA TAU GAMMA")
    sigma, tau, gamma = (parse_point(tree, text) for text in args.points)
    report = ball_in_subbasic_check(psi, sigma, tau, gamma, samples=args.samples)
    if args.json:
        _emit(
            {
                "epsilon": format_rat(report.epsilon),
                "checked": report.checked,
                "violations": [format_point(p) for p in report.violations],
            }
        )
    else:
        print(f"epsilon = {format_rat(report.epsilon)}, {report.checked} points checked")
        for p in report.violations:
            print(f"  violation: {format_point(p)}")
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
    if args.json:
        _emit(
            {
                "branches": STAR_BRANCHES,
                "neighborhoods": len(refs),
                "witness": format_point(alpha),
                "in_all": inside,
            }
        )
    else:
        print(
            f"star with {STAR_BRANCHES} branches; {len(refs)} neighborhoods of the center"
        )
        print(
            f"witness {format_point(alpha)} lies in all of them, on a branch none of them names"
        )
    return 0 if inside else 1


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def _cmd_suite_all(args) -> int:
    print(f"seed = {args.seed}", file=sys.stderr)
    results = run_all(seed=args.seed)
    if args.json:
        _emit(
            [
                {
                    "criterion": r.criterion,
                    "name": r.name,
                    "passed": r.passed,
                    "detail": r.detail,
                }
                for r in results
            ]
        )
    else:
        for r in results:
            word = "PASS" if r.passed else "FAIL"
            print(f"{word} criterion {r.criterion:2d}: {r.name} -- {r.detail}")
            if not r.passed and r.witness is not None:
                print(f"     witness: {r.witness}")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valtree",
        description="valuations, their infima, and the tree they live on",
    )
    top = parser.add_subparsers(dest="group", required=True)

    def common(p: argparse.ArgumentParser, command: str, func) -> None:
        p.set_defaults(func=func, command=command)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--seed", type=_seed_value, default=DEFAULT_SEED, metavar="U64")

    val = top.add_parser("val", help="valuation operations").add_subparsers(
        dest="op", required=True
    )
    for name, func, polyflag, samples in (
        ("eval", _cmd_val_eval, "required", None),
        ("mvalue", _cmd_val_mvalue, None, None),
        ("normalize", _cmd_val_normalize, None, None),
        ("compare", _cmd_val_compare, None, None),
        ("inf", _cmd_val_inf, None, None),
        ("stream", _cmd_val_stream, None, None),
        ("canon", _cmd_val_canon, None, None),
        ("krull", _cmd_val_krull, "optional", None),
        ("common-min", _cmd_val_common_min, None, None),
        ("witness", _cmd_val_witness, None, 50),
    ):
        p = val.add_parser(name)
        common(p, f"val {name}", func)
        _add_val_sources(p)
        if polyflag:
            p.add_argument(
                "--poly",
                action="append",
                type=_short_numbers,
                metavar="STR",
                required=polyflag == "required",
                help="polynomial in x and y",
            )
        if samples is not None:
            p.add_argument("--samples", type=_samples_value, default=samples, metavar="N")

    tree = top.add_parser("tree", help="tree topology operations").add_subparsers(
        dest="op", required=True
    )
    for name, func, points, samples in (
        ("check", _cmd_tree_check, False, 6),
        ("inf", _cmd_tree_inf, True, None),
        ("dist", _cmd_tree_dist, True, None),
        ("nbhd", _cmd_tree_nbhd, True, None),
        ("ball-check", _cmd_tree_ball_check, True, 3),
        ("countability", _cmd_tree_countability, False, 20),
    ):
        p = tree.add_parser(name)
        common(p, f"tree {name}", func)
        if name != "countability":
            p.add_argument(
                "--tree",
                type=_json_file,
                metavar="FILE",
                help="tree or poset JSON file",
            )
            p.add_argument(
                "--in",
                dest="tree",
                type=_json_file,
                metavar="FILE",
                help="alias for --tree",
            )
        if points:
            p.add_argument(
                "--points", nargs="+", type=_short_numbers, required=True, metavar="PT"
            )
        if samples is not None:
            p.add_argument("--samples", type=_samples_value, default=samples, metavar="N")

    suite = top.add_parser("suite", help="property suites").add_subparsers(
        dest="op", required=True
    )
    p = suite.add_parser("all")
    common(p, "suite all", _cmd_suite_all)

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
