"""JSON codecs for valuations, canonical forms, trees, and points.

Field names are part of the wire format; every value printed re-parses to an
equal object.  Rationals travel as "p" or "p/q" strings, infinity as "inf",
projective directions as "[p:q]" with a primitive integer representative.
Every number is written in ASCII digits: a rational field takes exactly
``p`` or ``p/q`` (``rationals.parse_rat``), and any other spelling is a
``FormatError`` that names the document and the field.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

from .poly import IDENTITY_FRAME, LinearFrame
from .rationals import ExtRat, format_extrat, format_rat, parse_extrat, parse_rat
from .tree import PathParam, RootedTree, TreePoint, FIPoint, FI_X, FI_Y, fi_seg
from .valuation import (
    CanonicalForm,
    Curve,
    Divisorial,
    INF_POINT,
    ProjPoint,
    QuasiMonomialVal,
    ZERO_POINT,
)


class FormatError(ValueError):
    """Raised for malformed interchange data."""


# Every field is checked for its JSON type before it is converted, and a
# wrong type is a FormatError that names the field ("weights[0]"): rationals
# travel as strings, so a JSON number is rejected rather than guessed at.
# Field names are built only on the error path: documents carry a step per
# chain level, and parsing them is on the CLI's hot path.
_KINDS = {str: (str, "a string"), dict: (dict, "an object"), list: ((list, tuple), "an array")}
_JSON_TYPES = (
    (bool, "a boolean"), ((int, float), "a number"), (str, "a string"),
    (dict, "an object"), ((list, tuple), "an array"),
)


def _json_kind(value) -> str:
    if value is None:
        return "null"
    return next((name for t, name in _JSON_TYPES if isinstance(value, t)), type(value).__name__)


def _typed(value, kind: type, where: str, length: Optional[int] = None):
    """value, if it has the JSON type kind (str, dict or list) and, for an
    array, the given length; else a FormatError naming the field."""
    accepted, name = _KINDS[kind]
    if not isinstance(value, accepted):
        raise FormatError(f"{where} must be {name}, got {_json_kind(value)}")
    if length is not None and len(value) != length:
        raise FormatError(f"{where} must have {length} entries, got {len(value)}")
    return value


def _strings(value, where: str, length: int) -> list:
    """An array of the given length whose entries are strings."""
    entries = _typed(value, list, where, length)
    for i, v in enumerate(entries):
        if not isinstance(v, str):
            _typed(v, str, f"{where}[{i}]")
    return entries


def _number(parse, text: str, where: str, *keys):
    """parse(text) for a rational field, or a ValueError naming the field:
    where, then each key in brackets.  The document's parser turns it into
    a FormatError that names the document."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{where}{''.join(f'[{k}]' for k in keys)}: {exc}") from None


def _member(obj: dict, key: str, kind: type, where: str):
    """obj[key], checked as ``_typed`` checks it; where names obj."""
    path = f"{where}.{key}" if where else key
    if key not in obj:
        raise FormatError(f"{path} is missing")
    return _typed(obj[key], kind, path)


def _steps_from(data: dict) -> Tuple[ProjPoint, ...]:
    centers = []
    for i, s in enumerate(_typed(data.get("steps", []), list, "steps")):
        text = s.get("center") if isinstance(s, dict) else None
        if not isinstance(text, str):
            # raises, naming what is wrong with the step
            _member(_typed(s, dict, f"steps[{i}]"), "center", str, f"steps[{i}]")
        try:
            centers.append(_center_from(text))
        except ValueError as exc:
            raise ValueError(f"steps[{i}].center: {exc}") from None
    return tuple(centers)


def format_direction(d: ProjPoint) -> str:
    a, b = d.as_pair()
    return f"[{a}:{b}]"


_DIRECTION = re.compile(r"\A\[(-?[0-9]+):(-?[0-9]+)\]\Z")


def parse_direction(text: str) -> ProjPoint:
    m = _DIRECTION.match(text.strip())
    if not m:
        raise FormatError(f"malformed direction {text!r}")
    a, b = int(m.group(1)), int(m.group(2))
    if b == 0:
        if a == 0:
            raise FormatError("[0:0] is not a projective point")
        return INF_POINT
    return ProjPoint(Fraction(a, b))


def format_center(p: ProjPoint) -> str:
    a, b = p.as_pair()
    return "inf" if not b else str(a) if b == 1 else f"{a}/{b}"


# Each center spelling parses once into a shared ProjPoint, which keeps its
# hash, so a process that reads many documents pays one parse and one hash
# per distinct spelling; a single CLI call reads one or a few documents and
# gains little.  The table is bounded: it stops growing at
# _CENTER_TABLE_SIZE spellings and skips spellings longer than
# _CENTER_TEXT_MAX characters, which parse every time.
_CENTER_TABLE_SIZE = 1024
_CENTER_TEXT_MAX = 64
_CENTERS: Dict[str, ProjPoint] = {"0": ZERO_POINT, "inf": INF_POINT}


def _center_from(text: str) -> ProjPoint:
    point = _CENTERS.get(text)
    if point is None:
        point = ProjPoint(parse_extrat(text))
        if len(_CENTERS) < _CENTER_TABLE_SIZE and len(text) <= _CENTER_TEXT_MAX:
            _CENTERS[text] = point
    return point


def valuation_to_json(nu: QuasiMonomialVal) -> dict:
    return {
        "steps": [{"center": format_center(s)} for s in nu.steps],
        "frame": [[format_rat(v) for v in row] for row in nu.frame.rows],
        "weights": [format_extrat(w) for w in nu.weights],
    }


def valuation_from_json(data: dict) -> QuasiMonomialVal:
    if not isinstance(data, dict):
        raise FormatError("valuation must be a JSON object")
    try:
        steps = _steps_from(data)
        frame_rows = data.get("frame")
        frame = (
            IDENTITY_FRAME
            if frame_rows is None
            else LinearFrame(
                tuple(
                    tuple(_number(parse_rat, v, "frame", i, j)
                          for j, v in enumerate(_strings(row, f"frame[{i}]", 2)))
                    for i, row in enumerate(_typed(frame_rows, list, "frame", 2))
                )
            )
        )
        weights = tuple(
            _number(parse_extrat, w, "weights", i)
            for i, w in enumerate(_strings(data.get("weights", ["1", "1"]), "weights", 2))
        )
        return QuasiMonomialVal(steps, frame, weights)
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed valuation: {exc}") from exc


def canonical_to_json(form: CanonicalForm) -> dict:
    t = form.terminal
    if isinstance(t, Divisorial):
        terminal = {"divisorial": format_rat(t.gamma)}
    else:
        terminal = {
            "curve": {
                "direction": format_direction(t.direction),
                "weight": format_rat(t.gamma),
            }
        }
    return {
        "steps": [{"center": format_center(s)} for s in form.steps],
        "terminal": terminal,
    }


def canonical_from_json(data: dict) -> CanonicalForm:
    _typed(data, dict, "canonical form")
    try:
        steps = _steps_from(data)
        t = _member(data, "terminal", dict, "")
        if "divisorial" in t:
            gamma = _member(t, "divisorial", str, "terminal")
            terminal: Union[Divisorial, Curve] = Divisorial(
                _number(parse_rat, gamma, "terminal.divisorial")
            )
        else:
            c = _member(t, "curve", dict, "terminal")
            terminal = Curve(
                parse_direction(_member(c, "direction", str, "terminal.curve")),
                _number(parse_rat, _member(c, "weight", str, "terminal.curve"), "terminal.curve.weight"),
            )
        return CanonicalForm(steps, terminal)
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed canonical form: {exc}") from exc


def rank2_values_to_json(wx: Tuple[int, Fraction], wy: Tuple[int, Fraction]) -> list:
    return [[str(w[0]), format_rat(w[1])] for w in (wx, wy)]


def rank2_values_from_json(data: list) -> Tuple[Tuple[int, Fraction], Tuple[int, Fraction]]:
    pair = [_strings(w, f"values[{i}]", 2) for i, w in enumerate(_typed(data, list, "values", 2))]
    try:
        (a0, a1), (b0, b1) = pair
        return (
            (int(a0), _number(parse_rat, a1, "values", 0, 1)),
            (int(b0), _number(parse_rat, b1, "values", 1, 1)),
        )
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed rank-2 values: {exc}") from exc


# ---------------------------------------------------------------------------
# trees and points
# ---------------------------------------------------------------------------


def tree_to_json(tree: RootedTree, psi_style: str = "arclength+1") -> dict:
    def node_obj(path) -> dict:
        kids = [
            {
                "edge": format_extrat(tree.edge_length(path + (i,))),
                "node": node_obj(path + (i,)),
            }
            for i in range(tree.n_children(path))
        ]
        return {"children": kids} if kids else {}

    return {"nodes": {"root": node_obj(())}, "psi": psi_style}


def tree_from_json(data: dict) -> Tuple[RootedTree, PathParam]:
    _typed(data, dict, "tree")
    try:
        edges: Dict[tuple, ExtRat] = {}

        def walk(obj: dict, path: tuple, where: str) -> None:
            _typed(obj, dict, where)
            kids = _typed(obj.get("children", []), list, f"{where}.children")
            for i, kid in enumerate(kids):
                here = f"{where}.children[{i}]"
                edge = _member(_typed(kid, dict, here), "edge", str, here)
                edges[path + (i,)] = _number(parse_extrat, edge, f"{here}.edge")
                walk(kid.get("node", {}), path + (i,), f"{here}.node")

        walk(_member(_member(data, "nodes", dict, ""), "root", dict, "nodes"), (), "nodes.root")
        tree = RootedTree(edges)
        return tree, PathParam(tree, _typed(data.get("psi", "arclength+1"), str, "psi"))
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed tree: {exc}") from exc


def format_point(p: TreePoint) -> str:
    if p.is_root():
        return "root"
    path = "/".join(str(i) for i in p.path)
    if p.t == p.tree.edge_length(p.path):
        return path
    return f"{path}@{format_extrat(p.t)}"


def parse_point(tree: RootedTree, text: str) -> TreePoint:
    text = text.strip()
    if text == "root":
        return tree.root_point()
    body, sep, offset = text.partition("@")
    try:
        path = tuple(int(part) for part in body.split("/"))
        if sep:
            return tree.point(path, parse_extrat(offset))
        return tree.node_point(path)
    except (KeyError, ValueError) as exc:
        raise FormatError(f"malformed point {text!r}: {exc}") from exc


FORKED_INTERVAL_TAG = "forked-interval"


def is_poset_doc(data: dict) -> bool:
    return isinstance(data, dict) and data.get("poset") == FORKED_INTERVAL_TAG


def parse_fi_point(text: str) -> FIPoint:
    text = text.strip()
    if text in ("X", "x"):
        return FI_X
    if text in ("Y", "y"):
        return FI_Y
    try:
        return fi_seg(parse_rat(text))
    except ValueError as exc:
        raise FormatError(f"malformed poset point {text!r}: {exc}") from exc


def format_fi_point(p: FIPoint) -> str:
    return p.kind.upper() if p.kind != "seg" else format_rat(p.t)
