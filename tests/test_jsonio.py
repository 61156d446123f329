"""Wire formats: field names are contracts, every print re-parses equal."""

import json
from fractions import Fraction

import pytest

from valtree.jsonio import (
    FORKED_INTERVAL_TAG,
    FormatError,
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
    INF_POINT,
    ProjPoint,
    QuasiMonomialVal,
    canonicalize,
    equal_valuations,
    monomial,
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
    point shared by every later parse of it; ``"0"`` and ``"inf"`` start out
    as the shared ``ZERO_POINT`` and ``INF_POINT``."""

    def test_common_spellings(self):
        from valtree.jsonio import _center_from
        from valtree.valuation import ZERO_POINT

        assert _center_from("0") is ZERO_POINT and _center_from("inf") is INF_POINT
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

    def test_table_stops_at_its_bound(self, monkeypatch):
        import valtree.jsonio as jsonio_module
        from valtree.rationals import parse_extrat

        fresh = {text: jsonio_module._CENTERS[text] for text in ("0", "inf")}
        monkeypatch.setattr(jsonio_module, "_CENTERS", fresh)
        monkeypatch.setattr(jsonio_module, "_CENTER_TABLE_SIZE", 5)
        texts = [f"{n}/7" for n in range(1, 9)]
        got = [jsonio_module._center_from(t) for t in texts]
        assert len(jsonio_module._CENTERS) == 5
        assert got == [ProjPoint(parse_extrat(t)) for t in texts]
        assert jsonio_module._center_from(texts[0]) is got[0]
        assert jsonio_module._center_from(texts[-1]) is not got[-1]
        assert jsonio_module._center_from(texts[-1]) == got[-1]
        long = "1" * (jsonio_module._CENTER_TEXT_MAX + 1)
        monkeypatch.setattr(jsonio_module, "_CENTER_TABLE_SIZE", 100)
        assert jsonio_module._center_from(long) == ProjPoint(int(long))
        assert long not in jsonio_module._CENTERS

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
