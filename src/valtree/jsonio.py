"""JSON codecs for valuations, canonical forms, trees, and points.

Field names are part of the wire format; every value printed re-parses to an
equal object.  Rationals travel as "p" or "p/q" strings, infinity as "inf",
projective directions as "[p:q]" with a primitive integer representative.
Every number is written in ASCII digits: a rational field takes exactly
``p`` or ``p/q`` (``rationals.parse_rat``), an integer field, such as a
tree point's path or the first entry of a rank-2 value, takes ``p``
(``rationals.parse_int``), and any other spelling is a ``FormatError``
that names the document and the field.

A valuation document's steps and weights are read in one checked pass.
Centers and weights go through bounded spelling memos (``_center_from``,
``_weight_from``), so a batch of documents parses each spelling once; only
plain strings reach them.  A document of more steps than a canonical chain
may keep, ``MAX_CHAIN_STEPS`` and one more that a curve folds into its
direction, is refused with the step limit's ``ChainTooLongError`` before
any step is read.

A document whose bulk is one array, such as a long chain's canonical form,
can be written as an ``ArrayDocument``, element by element as each is made.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Callable, Dict, Iterable, Optional, Tuple, Union

from .poly import IDENTITY_FRAME, MEMO_SIZE, LinearFrame
from .rationals import (
    INF, ExtRat, format_extrat, format_rat, parse_extrat, parse_int, parse_rat,
)
from .tree import PathParam, RootedTree, TreePoint, FIPoint, FI_X, FI_Y, fi_seg
from . import valuation
from .valuation import (
    CanonicalForm,
    ChainTooLongError,
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
# A valuation's steps and weights are tested with ``type(...) is`` inline and
# their field names built only when that fails: parsing is on the hot path.
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
    """An array of the given length whose entries are strings, each as the
    plain ``str`` it holds (``str.__str__`` copies a str subclass)."""
    entries = _typed(value, list, where, length)
    return [v if type(v) is str else str.__str__(_typed(v, str, f"{where}[{i}]"))
            for i, v in enumerate(entries)]


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


def _steps_from(data: dict, spare: int) -> Tuple[ProjPoint, ...]:
    """The centers of a document's steps, read in one pass through the
    spelling memo ``_center_from``.  More than ``MAX_CHAIN_STEPS + spare``
    steps raise the step limit's ``ChainTooLongError`` before any is read,
    where spare counts the centers the canonical form may fold away; else
    the first step that is not an object with a well-spelled string center
    raises, naming itself by its index."""
    steps = _typed(data.get("steps", ()), list, "steps")
    valuation._limit(len(steps) - spare)
    centers = []
    for s in steps:
        text = s.get("center") if type(s) is dict else None
        if type(text) is not str:  # raises, naming the step, unless a str subclass
            where = f"steps[{len(centers)}]"
            text = str.__str__(_member(_typed(s, dict, where), "center", str, where))
        try:
            centers.append(_center_from(text))
        except ValueError as exc:
            raise ValueError(f"steps[{len(centers)}].center: {exc}") from None
    return tuple(centers)


# the weights of a document that names none
_UNIT_WEIGHTS = ("1", "1")


def _weights_from(data: dict) -> Tuple[ExtRat, ExtRat]:
    """The two weights of a valuation document, read through the spelling
    memo ``_weight_from``.  Both entries are checked for a string before
    either is parsed, and the first bad one raises, naming itself."""
    a, b = weights = _typed(data.get("weights", _UNIT_WEIGHTS), list, "weights", 2)
    if type(a) is not str or type(b) is not str:
        a, b = _strings(weights, "weights", 2)
    i = 0
    try:
        w = _weight_from(a)
        i = 1
        return w, _weight_from(b)
    except ValueError as exc:
        raise ValueError(f"weights[{i}]: {exc}") from None


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


@lru_cache(maxsize=MEMO_SIZE)
def _center_from(text: str) -> ProjPoint:
    """The point a center spelling names.  Each of the last ``MEMO_SIZE``
    spellings parsed maps to one shared point, which keeps its hash, so a
    process that reads many documents pays one parse and one hash per
    spelling; every spelling of 0 and of infinity gives ``ZERO_POINT`` and
    ``INF_POINT``."""
    value = parse_extrat(text)
    return INF_POINT if value is INF else ProjPoint(value) if value else ZERO_POINT


@lru_cache(maxsize=MEMO_SIZE)
def _weight_from(text: str) -> ExtRat:
    """The value a weight spelling names, ``parse_extrat(text)``, shared by
    every parse of the spelling while it is among the last ``MEMO_SIZE``
    weight spellings parsed: a batch of documents repeats few of them."""
    return parse_extrat(text)


def _steps_to_json(steps: Tuple[ProjPoint, ...]) -> list:
    """The step objects of a document.  They are shared: one
    ``{"center": ...}`` per distinct center, however often the chain repeats
    it, so a long chain costs a list of references; callers must not mutate
    them."""
    made: Dict[ProjPoint, dict] = {}
    out = []
    for point in steps:
        step = made.get(point)
        if step is None:
            step = made[point] = {"center": str(point)}
        out.append(step)
    return out


class ArrayDocument:
    """The JSON object ``{key: [*elements], **tail()}``, whose bulk is the
    one array, for ``write`` to print as the array is made.

    ``tail`` is called once the last element is written, so its members may
    read what making the elements found."""

    __slots__ = ("key", "elements", "tail")

    def __init__(self, key: str, elements: Iterable, tail: Callable[[], dict]):
        self.key, self.elements, self.tail = key, elements, tail

    def write(self, out) -> None:
        """Write the bytes ``json.dumps`` gives the object to the text stream
        out: the head, then each element as ``json.dumps(element)`` joined by
        ``", "``, then the tail's members, with json's default separators.
        The elements are encoded ``_BATCH`` at a time, as ``json.dumps`` of
        the batch less its brackets, which is the same text, so neither a
        list of all the elements nor the whole text is built."""
        import json  # here, so that importing the library does not load it

        dumps, write = json.dumps, out.write
        write(f"{{{dumps(self.key)}: [")
        elements, sep = iter(self.elements), ""
        batch = list(islice(elements, _BATCH))
        while batch:
            write(sep)
            write(dumps(batch)[1:-1])
            sep = ", "
            batch = list(islice(elements, _BATCH))
        write("]")
        for key, value in self.tail().items():
            write(f", {dumps(key)}: {dumps(value)}")
        write("}")


# the elements an ArrayDocument encodes in one call of json.dumps
_BATCH = 4096


def valuation_to_json(nu: QuasiMonomialVal) -> dict:
    return {
        "steps": _steps_to_json(nu.steps),
        "frame": [[format_rat(v) for v in row] for row in nu.frame.rows],
        "weights": [format_extrat(w) for w in nu.weights],
    }


def valuation_from_json(data: dict) -> QuasiMonomialVal:
    if not isinstance(data, dict):
        raise FormatError("valuation must be a JSON object")
    try:
        # a curve's canonical form folds its last center into its direction
        weights = w1, w2 = _weights_from(data)
        steps = _steps_from(data, w1 is INF or w2 is INF)
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
        return QuasiMonomialVal(steps, frame, weights)
    except (FormatError, ChainTooLongError):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed valuation: {exc}") from exc


def _terminal_to_json(t: Union[Divisorial, Curve]) -> dict:
    if isinstance(t, Divisorial):
        return {"divisorial": format_rat(t.gamma)}
    return {"curve": {"direction": format_direction(t.direction), "weight": format_rat(t.gamma)}}


def canonical_to_json(form: CanonicalForm) -> dict:
    return {"steps": _steps_to_json(form.steps), "terminal": _terminal_to_json(form.terminal)}


def canonical_document(form: CanonicalForm) -> ArrayDocument:
    """``canonical_to_json(form)`` as an ``ArrayDocument``: its step objects
    are made as the form's centers are read, one per distinct center as
    ``_steps_to_json`` makes them, and no list of them is built."""
    made: Dict[ProjPoint, dict] = {}
    steps = (made.get(p) or made.setdefault(p, {"center": str(p)}) for p in form.steps)
    return ArrayDocument("steps", steps, lambda: {"terminal": _terminal_to_json(form.terminal)})


def canonical_from_json(data: dict) -> CanonicalForm:
    _typed(data, dict, "canonical form")
    try:
        steps = _steps_from(data, 0)
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
    except (FormatError, ChainTooLongError):
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
            (_number(parse_int, a0, "values", 0, 0), _number(parse_rat, a1, "values", 0, 1)),
            (_number(parse_int, b0, "values", 1, 0), _number(parse_rat, b1, "values", 1, 1)),
        )
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed rank-2 values: {exc}") from exc


# ---------------------------------------------------------------------------
# trees and points
# ---------------------------------------------------------------------------


# the one parametrization a tree document may name (``tree.PathParam``)
_PSI = "arclength+1"


def tree_to_json(tree: RootedTree) -> dict:
    def node_obj(path) -> dict:
        kids = [
            {
                "edge": format_extrat(tree.edge_length(path + (i,))),
                "node": node_obj(path + (i,)),
            }
            for i in range(tree.n_children(path))
        ]
        return {"children": kids} if kids else {}

    return {"nodes": {"root": node_obj(())}, "psi": _PSI}


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
        psi = _typed(data.get("psi", _PSI), str, "psi")
        if psi != _PSI:
            raise ValueError(f"unknown parametrization style {psi!r}")
        return tree, PathParam(tree)
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
        path = tuple(parse_int(part) for part in body.split("/"))
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
