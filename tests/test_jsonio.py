"""Wire formats: field names are contracts, every print re-parses equal."""

import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from valtree.jsonio import (
    FORKED_INTERVAL_TAG,
    ArrayDocument,
    FormatError,
    canonical_document,
    canonical_from_json,
    canonical_to_json,
    format_direction,
    format_fi_point,
    format_point,
    is_poset_doc,
    parse_direction,
    parse_fi_point,
    parse_point,
    rank2_values_from_json,
    rank2_values_to_json,
    tree_from_json,
    tree_to_json,
    valuation_from_json,
    valuation_to_json,
)
from valtree.rationals import INF, ONE
from valtree.testkit import gen_qmv, gen_tree
from valtree.tree import FI_X, RootedTree, fi_seg
from valtree.valuation import (
    CanonicalForm,
    Curve,
    INF_POINT,
    ProjPoint,
    QuasiMonomialVal,
    canonicalize,
    equal_valuations,
    from_canonical,
    monomial,
    multiplicity_stream,
    normalize,
)


class TestValuationDoc:
    def test_exact_fields(self):
        nu = monomial(1, Fraction(3, 2))
        assert valuation_to_json(nu) == {
            "steps": [],
            "frame": [["1", "0"], ["0", "1"]],
            "weights": ["1", "3/2"],
        }

    def test_steps_and_infinity(self):
        nu = QuasiMonomialVal(
            (ProjPoint(Fraction(-1, 2)), INF_POINT), weights=(Fraction(1), Fraction(2))
        )
        doc = valuation_to_json(nu)
        assert doc["steps"] == [{"center": "-1/2"}, {"center": "inf"}]
        assert valuation_to_json(monomial(1, INF))["weights"] == ["1", "inf"]

    def test_defaults(self):
        nu = valuation_from_json({"weights": ["1", "2"]})
        assert equal_valuations(nu, monomial(1, 2))

    def test_round_trip_seeded(self):
        for s in range(40):
            nu = gen_qmv(s)
            assert valuation_from_json(valuation_to_json(nu)) == nu

    def test_json_text_round_trip(self):
        nu = gen_qmv(11)
        assert valuation_from_json(json.loads(json.dumps(valuation_to_json(nu)))) == nu

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            {"weights": ["1"]},
            {"weights": ["1", "0"]},
            {"weights": ["inf", "inf"]},
            {"weights": ["1", "2"], "frame": [["1", "2"], ["2", "4"]]},
            {"weights": ["1", "2"], "steps": [{"centre": "0"}]},
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(FormatError):
            valuation_from_json(bad)


class TestCanonicalDoc:
    def test_divisorial(self):
        form = canonicalize(monomial(1, Fraction(5, 2)))
        assert canonical_to_json(form) == {
            "steps": [{"center": "0"}, {"center": "0"}, {"center": "inf"}],
            "terminal": {"divisorial": "1/2"},
        }

    def test_curve(self):
        form = canonicalize(monomial(1, INF))
        assert canonical_to_json(form) == {
            "steps": [],
            "terminal": {"curve": {"direction": "[0:1]", "weight": "1"}},
        }

    def test_round_trip_seeded(self):
        for s in range(40):
            form = canonicalize(gen_qmv(s + 70))
            assert canonical_from_json(canonical_to_json(form)) == form

    def test_rejects_missing_terminal(self):
        with pytest.raises(FormatError):
            canonical_from_json({"steps": []})

    @staticmethod
    def long_and_curve_forms():
        forms = [canonicalize(normalize(monomial(1, w))) for w in (1000, Fraction(10**4, 7), Fraction(355, 113))]
        free = (ProjPoint(Fraction(-2, 3)), ProjPoint(Fraction(1, 2)), ProjPoint(5))
        prefix = free + (INF_POINT,) * 40 + (ProjPoint(0),) * 30 + free
        forms.append(canonicalize(normalize(QuasiMonomialVal(prefix, weights=(3, 5)))))
        for direction in (ProjPoint(0), ProjPoint(Fraction(7, 3)), ProjPoint(1)):
            form = CanonicalForm(prefix, Curve(direction, Fraction(5, 2)))
            forms.append(canonicalize(normalize(from_canonical(form))))
        assert sum(isinstance(f.terminal, Curve) for f in forms) == 3 and len(forms[0].steps) == 999
        return forms

    def test_steps_print_as_one_object_per_step(self):
        """The document shares one step object per distinct center, and
        prints as the document with an object per step does."""
        for form in self.long_and_curve_forms():
            doc = canonical_to_json(form)
            reference = dict(doc, steps=[{"center": str(s)} for s in form.steps])
            assert json.dumps(doc) == json.dumps(reference)
            assert len({id(step) for step in doc["steps"]}) == len(set(form.steps))


def written(doc: ArrayDocument) -> str:
    out = io.StringIO()
    doc.write(out)
    return out.getvalue()


def as_array_document(doc: dict) -> ArrayDocument:
    """doc, whose first member is an array, as an ArrayDocument that yields
    the array's elements one by one and makes its tail only when asked."""
    key, *rest = doc
    return ArrayDocument(key, iter(doc[key]), lambda: {k: doc[k] for k in rest})


class TestArrayDocument:
    """The writer prints the bytes of ``json.dumps`` of the whole document."""

    def test_the_pinned_canon_and_stream_documents(self):
        pinned = json.loads(Path(__file__).with_name("cli_pinned.json").read_text(encoding="utf-8"))
        names = [n for n in pinned if n.startswith("val-canon") or (n.startswith("val-stream") and n.endswith("-json"))]
        assert len(names) == 5
        for name in names:
            code, out, _ = pinned[name]
            doc = json.loads(out)
            assert code == 0 and out == json.dumps(doc) + "\n"
            assert written(as_array_document(doc)) == out[:-1]

    @pytest.mark.parametrize("n", [0, 1, 2, 4095, 4096, 4097, 10000])
    def test_every_batch_length(self, n):
        """Empty arrays, and arrays that end inside, at and past a batch."""
        doc = {"rows": [{"level": i, "m": f"{i}/7", "x": [i, None, "é"]} for i in range(n)],
               "lambda": "inf", "tail": {"center": "0"}}
        assert written(as_array_document(doc)) == json.dumps(doc)
        assert written(ArrayDocument("steps", iter(()), dict)) == json.dumps({"steps": []})

    def test_the_tail_is_made_after_the_last_element(self):
        made = []
        elements = (made.append(i) or i for i in range(3))
        doc = ArrayDocument("rows", elements, lambda: {"seen": list(made)})
        assert written(doc) == json.dumps({"rows": [0, 1, 2], "seen": [0, 1, 2]})

    def test_a_long_chain_and_its_stream(self):
        """The weights (1, 10^5): canon's document as ``canonical_document``
        writes it, and the rows of its multiplicity stream."""
        nu = normalize(monomial(1, 10**5))
        form = canonicalize(nu)
        assert len(form.steps) == 10**5 - 1
        assert written(canonical_document(form)) == json.dumps(canonical_to_json(form))
        rows = [{"level": i, "center": str(c), "m": str(m)} for i, (c, m) in zip(range(10**5 - 1), multiplicity_stream(nu))]
        doc = {"rows": rows, "lambda": "100000", "canonical": canonical_to_json(form)}
        assert written(as_array_document(doc)) == json.dumps(doc)

    def test_canonical_documents_of_every_kind(self):
        for form in TestCanonicalDoc.long_and_curve_forms():
            assert written(canonical_document(form)) == json.dumps(canonical_to_json(form))


class TestDirections:
    def test_fixtures(self):
        assert format_direction(INF_POINT) == "[1:0]"
        assert format_direction(ProjPoint(Fraction(-1, 2))) == "[-1:2]"
        assert parse_direction("[2:1]") == ProjPoint(2)

    def test_round_trip(self):
        for d in (INF_POINT, ProjPoint(0), ProjPoint(Fraction(7, 3)), ProjPoint(-4)):
            assert parse_direction(format_direction(d)) == d

    @pytest.mark.parametrize("bad", ["", "[0:0]", "[1:2", "(1:2)", "[1.5:2]"])
    def test_rejects(self, bad):
        with pytest.raises(FormatError):
            parse_direction(bad)


class TestRank2Doc:
    def test_shape(self):
        doc = rank2_values_to_json((0, Fraction(1)), (1, Fraction(0)))
        assert doc == [["0", "1"], ["1", "0"]]
        assert rank2_values_from_json(doc) == ((0, Fraction(1)), (1, Fraction(0)))

    def test_rejects(self):
        with pytest.raises(FormatError):
            rank2_values_from_json([["0", "1"]])


class TestTreeDoc:
    def test_exact_fields(self):
        tree = RootedTree({(0,): Fraction(3, 2)})
        assert tree_to_json(tree) == {
            "nodes": {"root": {"children": [{"edge": "3/2", "node": {}}]}},
            "psi": "arclength+1",
        }

    def test_round_trip_seeded(self):
        for s in range(25):
            tree = gen_tree(s, max_nodes=12)
            back, _psi = tree_from_json(tree_to_json(tree))
            assert back.edges == tree.edges

    def test_rejects_unknown_psi(self):
        doc = {"nodes": {"root": {}}, "psi": "other"}
        with pytest.raises(FormatError):
            tree_from_json(doc)


class TestPoints:
    def test_fixtures(self):
        tree = RootedTree({(0,): Fraction(3, 2), (0, 0): INF, (1,): ONE})
        assert format_point(tree.root_point()) == "root"
        assert format_point(tree.node_point((0,))) == "0"
        assert format_point(tree.point((0, 0), Fraction(3, 4))) == "0/0@3/4"
        # the infinite end is the node end itself, so the offset is omitted
        assert format_point(tree.point((0, 0), INF)) == "0/0"
        assert parse_point(tree, "0/0") == tree.point((0, 0), INF)

    def test_round_trip_grid(self):
        tree = gen_tree(3, max_nodes=10)
        for p in tree.grid_points(3):
            assert parse_point(tree, format_point(p)) == p

    def test_rejects(self):
        tree = RootedTree({(0,): ONE})
        for bad in ("5", "0@7", "zero", "0@"):
            with pytest.raises(FormatError):
                parse_point(tree, bad)


class TestPosetDoc:
    def test_tag(self):
        assert is_poset_doc({"poset": FORKED_INTERVAL_TAG})
        assert not is_poset_doc({"nodes": {}})

    def test_points(self):
        assert parse_fi_point("X") == FI_X
        assert parse_fi_point("1/4") == fi_seg(Fraction(1, 4))
        assert format_fi_point(FI_X) == "X"
        assert format_fi_point(fi_seg(Fraction(1, 4))) == "1/4"
        with pytest.raises(FormatError):
            parse_fi_point("Z")


class TestCenterParsing:
    """Each center spelling parses once, through ``parse_extrat``, into a
    point shared by every later parse of it while it is among the last
    ``MEMO_SIZE`` spellings; every spelling of 0 and of infinity gives the
    shared ``ZERO_POINT`` and ``INF_POINT``."""

    def test_common_spellings(self):
        from valtree.jsonio import _center_from
        from valtree.valuation import ZERO_POINT

        assert _center_from("0") is ZERO_POINT and _center_from("inf") is INF_POINT
        assert _center_from("-0") is ZERO_POINT and _center_from(" INF ") is INF_POINT
        for text in ("0", "-0", "0/5"):
            assert _center_from(text) == ProjPoint(0)
        for text in ("inf", "INF", " inf "):
            assert _center_from(text) == INF_POINT

    def test_every_other_spelling_parses_as_parse_extrat(self):
        from valtree.jsonio import _center_from
        from valtree.rationals import parse_extrat

        texts = ["0", "-0", "0/5", "inf", "INF", " inf ", "Inf", " 0", "00", "3/6", "-2/3"]
        bad = ["", "abc", "1/0", "0/0", "+inf", "-inf", "0x", "1.5.2", 0, None, 1.5]
        for text in texts + bad:
            try:
                want = ProjPoint(parse_extrat(text))
            except Exception as exc:  # the same error, type and message
                with pytest.raises(type(exc)) as got:
                    _center_from(text)
                assert str(got.value) == str(exc)
                continue
            assert _center_from(text) == want

    def test_repeated_spellings_share_one_point(self):
        doc = {"steps": [{"center": c} for c in ("1/2", "-3", "inf", "7/5", "1/2")],
               "weights": ["2", "3"]}
        first, second = valuation_from_json(doc), valuation_from_json(json.loads(json.dumps(doc)))
        assert first == second
        assert all(p is q for p, q in zip(first.steps, second.steps))
        assert first.steps[0] is first.steps[4]

    def test_table_stops_at_its_bound(self):
        from valtree.jsonio import _center_from
        from valtree.poly import MEMO_SIZE
        from valtree.rationals import parse_extrat

        _center_from.cache_clear()
        texts = [f"{n}/7" for n in range(1, MEMO_SIZE + 4)]
        got = [_center_from(t) for t in texts]
        assert _center_from.cache_info().currsize == MEMO_SIZE
        assert got == [ProjPoint(parse_extrat(t)) for t in texts]
        assert _center_from(texts[-1]) is got[-1]  # among the last MEMO_SIZE
        assert _center_from(texts[0]) is not got[0]  # evicted, parsed again
        assert _center_from(texts[0]) == got[0]
        long = "1" * 100
        assert _center_from(long) == ProjPoint(int(long))
        assert _center_from(long) is _center_from(long)
        assert _center_from.cache_info().currsize == MEMO_SIZE

    def test_malformed_centers_in_documents(self):
        for center in ("", "abc", "1/0", "0/0", "+inf", "-inf"):
            doc = {"steps": [{"center": center}], "weights": ["1", "2"]}
            with pytest.raises(FormatError, match="malformed valuation"):
                valuation_from_json(doc)


class TestNumberFields:
    """A rational field of any document takes p or p/q in ASCII digits,
    q > 0; another spelling is a FormatError naming the document and the
    field, on every Python version."""

    @pytest.mark.parametrize("text", ["1.5", "1_000", "\u0663", "+3", "1/0", "1e1", " "])
    def test_each_document_names_the_field(self, text):
        cases = [
            (valuation_from_json, {"weights": [text, "1"]}, "malformed valuation: weights[0]"),
            (valuation_from_json, {"steps": [{"center": "1"}, {"center": text}]},
             "malformed valuation: steps[1].center"),
            (valuation_from_json, {"frame": [["1", text], ["0", "1"]]}, "malformed valuation: frame[0][1]"),
            (canonical_from_json, {"steps": [], "terminal": {"divisorial": text}},
             "malformed canonical form: terminal.divisorial"),
            (canonical_from_json, {"steps": [], "terminal": {"curve": {"direction": "[1:0]", "weight": text}}},
             "malformed canonical form: terminal.curve.weight"),
            (rank2_values_from_json, [["0", "1"], ["1", text]], "malformed rank-2 values: values[1][1]"),
            (tree_from_json, {"nodes": {"root": {"children": [{"edge": text}]}}},
             "malformed tree: nodes.root.children[0].edge"),
        ]
        for parse, doc, field in cases:
            with pytest.raises(FormatError) as exc:
                parse(doc)
            assert str(exc.value) == f"{field}: expected p or p/q in ASCII digits with q > 0, got {text!r}"
        with pytest.raises(FormatError, match="malformed poset point"):
            parse_fi_point(text)
        with pytest.raises(FormatError, match="malformed direction"):
            parse_direction(f"[{text}:1]")


class TestFieldTypes:
    """Every field's JSON type is checked before it is converted; a wrong
    type is a FormatError naming the field."""

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"weights": [1, 2]}, "weights[0] must be a string, got a number"),
            ({"weights": ["1", 2.5]}, "weights[1] must be a string, got a number"),
            ({"weights": "12"}, "weights must be an array, got a string"),
            ({"weights": ["1", "2", "3"]}, "weights must have 2 entries, got 3"),
            ({"steps": [{"center": 0}], "weights": ["1", "2"]}, "steps[0].center must be a string"),
            ({"steps": [{"center": None}]}, "steps[0].center must be a string, got null"),
            ({"steps": ["0"]}, "steps[0] must be an object, got a string"),
            ({"steps": {"center": "0"}}, "steps must be an array, got an object"),
            ({"steps": [{}]}, "steps[0].center is missing"),
            ({"frame": [[1, 0], ["0", "1"]]}, "frame[0][0] must be a string"),
            ({"frame": [["1", "0"]]}, "frame must have 2 entries, got 1"),
            ({"frame": "identity"}, "frame must be an array"),
            ({"weights": [True, "1"]}, "weights[0] must be a string, got a boolean"),
        ],
    )
    def test_valuation_fields(self, doc, field):
        with pytest.raises(FormatError) as exc:
            valuation_from_json(doc)
        assert field in str(exc.value)

    def test_string_fields_still_parse(self):
        nu = valuation_from_json(
            {"steps": [{"center": "0"}, {"center": "inf"}, {"center": "-1/2"}],
             "frame": [["1", "0"], ["0", "1"]], "weights": ["1", "3/2"]}
        )
        assert nu == QuasiMonomialVal(
            (ProjPoint(0), INF_POINT, ProjPoint(Fraction(-1, 2))), weights=(1, Fraction(3, 2))
        )

    @pytest.mark.parametrize(
        "doc, field",
        [
            ([], "canonical form must be an object"),
            ({"terminal": {"divisorial": 1}}, "terminal.divisorial must be a string"),
            ({"terminal": {"curve": {"direction": [1, 0], "weight": "1"}}},
             "terminal.curve.direction must be a string"),
            ({"terminal": {"curve": {"direction": "[1:0]"}}}, "terminal.curve.weight is missing"),
            ({"steps": [{"center": 1}], "terminal": {"divisorial": "1"}}, "steps[0].center"),
        ],
    )
    def test_canonical_fields(self, doc, field):
        with pytest.raises(FormatError) as exc:
            canonical_from_json(doc)
        assert field in str(exc.value)

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"nodes": {"root": {"children": [{"edge": 1}]}}},
             "nodes.root.children[0].edge must be a string"),
            ({"nodes": {"root": {"children": {"edge": "1"}}}},
             "nodes.root.children must be an array"),
            ({"nodes": {"root": {"children": [{"edge": "1", "node": []}]}}},
             "nodes.root.children[0].node must be an object"),
            ({"nodes": {"root": {}}, "psi": 1}, "psi must be a string"),
            ({"nodes": []}, "nodes must be an object"),
            ({"nodes": {}}, "nodes.root is missing"),
            ("tree", "tree must be an object"),
        ],
    )
    def test_tree_fields(self, doc, field):
        with pytest.raises(FormatError) as exc:
            tree_from_json(doc)
        assert field in str(exc.value)

    def test_rank2_fields(self):
        with pytest.raises(FormatError, match=r"values\[1\]\[0\] must be a string"):
            rank2_values_from_json([["0", "1"], [1, "0"]])
        with pytest.raises(FormatError, match="values must be an array"):
            rank2_values_from_json("01")


GOOD_STEPS = [{"center": "0"}, {"center": "inf"}, {"center": "-2/3"}, {"center": "5"}]
SPELLING = "expected p or p/q in ASCII digits with q > 0, got '1/0'"
# a bad step, and the text of the error it raises at position i; a type error
# names the field, a bad spelling is wrapped by the document's reader
BAD_STEPS = [
    ({"center": 0}, "steps[{i}].center must be a string, got a number", False),
    ({"center": None}, "steps[{i}].center must be a string, got null", False),
    ({"center": ["0"]}, "steps[{i}].center must be a string, got an array", False),
    ({"center": True}, "steps[{i}].center must be a string, got a boolean", False),
    ({}, "steps[{i}].center is missing", False),
    ({"centre": "0"}, "steps[{i}].center is missing", False),
    ("0", "steps[{i}] must be an object, got a string", False),
    (["0"], "steps[{i}] must be an object, got an array", False),
    (None, "steps[{i}] must be an object, got null", False),
    ({"center": "1/0"}, f"steps[{{i}}].center: {SPELLING}", True),
]
BAD_WEIGHTS = [
    (1, "weights[{i}] must be a string, got a number", False),
    (None, "weights[{i}] must be a string, got null", False),
    (["1"], "weights[{i}] must be a string, got an array", False),
    ("1/0", f"weights[{{i}}]: {SPELLING}", True),
]


def bad_step_docs():
    """``(steps, text, wrapped)``: each bad step among good ones, at
    positions 0, 1 and last, and two bad steps, the first of which is named."""
    n = len(GOOD_STEPS)
    for step, text, wrapped in BAD_STEPS:
        for i in (0, 1, n - 1):
            steps = GOOD_STEPS[:i] + [step] + GOOD_STEPS[i + 1:]
            yield steps, text.format(i=i), wrapped
    yield [{"center": 0}, {"center": "1/0"}], BAD_STEPS[0][1].format(i=0), False
    yield GOOD_STEPS + [{"center": "1/0"}, {"center": 0}], BAD_STEPS[-1][1].format(i=n), True


class TestReaderParity:
    """A valuation's steps and weights are read in one checked pass.  A bad
    entry raises the FormatError that names the first bad one, whatever the
    entries around it, from the valuation and canonical-form readers and
    from the CLI, which exits 2."""

    @pytest.mark.parametrize("steps, text, wrapped", list(bad_step_docs()))
    def test_bad_steps(self, capsys, steps, text, wrapped):
        doc = {"steps": steps, "weights": ["2", "3"]}
        self.check(valuation_from_json, doc, ("malformed valuation: " if wrapped else "") + text)
        canonical = {"steps": steps, "terminal": {"divisorial": "1"}}
        self.check(canonical_from_json, canonical, ("malformed canonical form: " if wrapped else "") + text)
        self.check_cli(capsys, doc, ("malformed valuation: " if wrapped else "") + text)

    @pytest.mark.parametrize("weight, text, wrapped", BAD_WEIGHTS)
    @pytest.mark.parametrize("i", [0, 1])
    def test_bad_weights(self, capsys, weight, text, wrapped, i):
        weights = ["3/2", "inf"]
        weights[i] = weight
        doc = {"steps": GOOD_STEPS, "weights": weights}
        want = ("malformed valuation: " if wrapped else "") + text.format(i=i)
        self.check(valuation_from_json, doc, want)
        self.check_cli(capsys, doc, want)

    @staticmethod
    def check(parse, doc, want):
        with pytest.raises(FormatError) as exc:
            parse(doc)
        assert str(exc.value) == want

    @staticmethod
    def check_cli(capsys, doc, want):
        from valtree.cli import main

        assert main(["val", "canon", "--valuation", json.dumps(doc)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {want}"

    def test_good_documents_read_alike_either_way(self):
        """A document reads alike in plain containers and in the other ones
        the reader takes: steps spelled in a dict subclass, weights in a
        tuple."""

        class Step(dict):
            pass

        for nu in (gen_qmv(s, max_depth=8) for s in range(40)):
            doc = json.loads(json.dumps(valuation_to_json(nu)))
            slow = dict(doc, steps=[Step(s) for s in doc["steps"]], weights=tuple(doc["weights"]))
            assert valuation_from_json(doc) == valuation_from_json(slow) == nu

    def test_only_strings_reach_the_spelling_memos(self, monkeypatch):
        from valtree import jsonio

        seen = []
        for name in ("_center_from", "_weight_from"):
            memo = getattr(jsonio, name)
            monkeypatch.setattr(jsonio, name, lambda text, memo=memo: seen.append(type(text)) or memo(text))
        steps = [steps for steps, _, _ in bad_step_docs()]
        docs = [{"steps": s, "weights": ["2", "3"]} for s in steps]
        docs += [{"weights": [w, "1"]} for w, _, _ in BAD_WEIGHTS]
        docs += [{"weights": ["1", w]} for w, _, _ in BAD_WEIGHTS]
        for doc in docs:
            with pytest.raises(FormatError):
                valuation_from_json(doc)
        for s in steps:
            with pytest.raises(FormatError):
                canonical_from_json({"steps": s, "terminal": {"divisorial": "1"}})
        assert len(seen) > len(docs) and set(seen) == {str}

    def test_string_subclasses_read_as_their_plain_spelling(self, monkeypatch):
        """A center or weight spelled as a str subclass reads equal to the
        plain spelling, and only ``str`` reaches the spelling memos: the
        subclass's own methods are never called."""
        from valtree import jsonio

        class Text(str):
            def strip(self, *chars):
                raise AssertionError("a str subclass reached the parser")

        seen = []
        for name in ("_center_from", "_weight_from"):
            memo = getattr(jsonio, name)
            monkeypatch.setattr(jsonio, name, lambda text, memo=memo: seen.append(type(text)) or memo(text))
        for nu in (gen_qmv(s, max_depth=8) for s in range(40)):
            doc = json.loads(json.dumps(valuation_to_json(nu)))
            texts = dict(doc, steps=[{"center": Text(s["center"])} for s in doc["steps"]],
                         weights=[Text(w) for w in doc["weights"]])
            assert valuation_from_json(texts) == valuation_from_json(doc) == nu
            form = canonical_to_json(canonicalize(normalize(nu)))
            steps = [{"center": Text(s["center"])} for s in form["steps"]]
            assert canonical_from_json(dict(form, steps=steps)) == canonical_from_json(form)
        assert len(seen) > 80 and set(seen) == {str}
