"""Command-line behavior: pinned examples, exit codes, round trips."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import valtree
from valtree.cli import main
from valtree.jsonio import canonical_from_json, valuation_from_json
from valtree import cli as cli_module, valuation
from valtree.valuation import canonicalize, equal_valuations, monomial, normalize

STEP_LIMIT_ERROR = "error: the canonical chain needs more than the limit of %d steps"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def tree_file(tmp_path):
    doc = {
        "nodes": {
            "root": {
                "children": [
                    {
                        "edge": "3/2",
                        "node": {
                            "children": [
                                {"edge": "1", "node": {}},
                                {"edge": "inf", "node": {}},
                            ]
                        },
                    },
                    {"edge": "1/2", "node": {}},
                ]
            }
        },
        "psi": "arclength+1",
    }
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def fork_file(tmp_path):
    path = tmp_path / "fork.json"
    path.write_text('{"poset": "forked-interval"}')
    return str(path)


class TestValCommands:
    def test_eval_prints_the_bare_value(self, capsys):
        code, out, err = run(
            capsys, "val", "eval", "--valuation", '{"weights":["1","2"]}', "--poly", "y"
        )
        assert (code, out) == (0, "2\n")
        assert err.startswith("config:")

    def test_eval_json_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "val", "eval", "--valuation", '{"weights":["1","2"]}',
            "--poly", "x*y^2", "--json",
        )
        assert code == 0
        assert json.loads(out) == {"poly": "x*y^2", "value": "5"}

    def test_inf_of_transverse_monomials(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text('{"weights": ["1", "2"]}')
        b.write_text('{"weights": ["2", "1"]}')
        code, out, _ = run(capsys, "val", "inf", "--in", str(a), "--in", str(b))
        assert code == 0
        assert json.loads(out) == {"steps": [], "terminal": {"divisorial": "1"}}

    def test_inf_mixes_files_and_inline(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        a.write_text('{"weights": ["1", "2"]}')
        code, out, _ = run(
            capsys, "val", "inf", "--in", str(a), "--valuation", '{"weights":["1","3"]}'
        )
        assert json.loads(out) == {
            "steps": [{"center": "0"}],
            "terminal": {"divisorial": "1"},
        }

    def test_stream_euclid_fixture(self, capsys):
        code, out, _ = run(
            capsys, "val", "stream", "--valuation", '{"weights":["1","5/2"]}'
        )
        lines = out.splitlines()
        assert lines[0].split() == ["level", "center", "m"]
        assert [ln.split() for ln in lines[1:4]] == [
            ["0", "0", "1"],
            ["1", "0", "1"],
            ["2", "inf", "1/2"],
        ]
        assert "lambda = 4" in out

    def test_stream_m_adic(self, capsys):
        _, out, _ = run(capsys, "val", "stream", "--valuation", '{"weights":["1","1"]}')
        assert "lambda = 1" in out
        assert '"divisorial": "1"' in out

    def test_stream_curve_tail(self, capsys):
        _, out, _ = run(
            capsys, "val", "stream", "--valuation", '{"weights":["1","inf"]}'
        )
        assert "center 0, m=1 (repeats)" in out
        assert "lambda = inf" in out

    def test_normalize_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "val", "normalize", "--valuation", '{"weights":["2","3"]}'
        )
        nu = valuation_from_json(json.loads(out))
        assert equal_valuations(nu, normalize(monomial(2, 3)))

    def test_canon_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "val", "canon", "--valuation", '{"weights":["1","5/2"]}'
        )
        form = canonical_from_json(json.loads(out))
        assert form == canonicalize(monomial(1, Fraction(5, 2)))

    def test_compare(self, capsys):
        code, out, _ = run(
            capsys,
            "val", "compare",
            "--valuation", '{"weights":["1","2"]}',
            "--valuation", '{"weights":["1","3"]}',
        )
        assert (code, out) == (0, "LT\n")

    def test_krull_rank2(self, capsys):
        code, out, _ = run(
            capsys,
            "val", "krull", "--valuation", '{"weights":["1","inf"]}',
            "--poly", "x", "--poly", "y", "--poly", "x*y^2", "--json",
        )
        doc = json.loads(out)
        assert doc["result"] == "rank-2"
        assert doc["values"] == [["0", "1"], ["1", "0"]]
        assert [p["value"] for p in doc["poly_values"]] == [
            "(0, 1)", "(1, 0)", "(2, 1)",
        ]

    def test_krull_same_rank1(self, capsys):
        code, out, _ = run(
            capsys, "val", "krull", "--valuation", '{"weights":["1","1"]}'
        )
        assert code == 0
        assert "same rank 1" in out

    def test_common_min(self, capsys):
        code, out, _ = run(
            capsys,
            "val", "common-min",
            "--valuation", '{"weights":["1","2"]}',
            "--valuation", '{"weights":["2","1"]}',
            "--json",
        )
        doc = json.loads(out)
        assert (doc["a"], doc["b"]) == ("1", "1")

    def test_witness_incomparable(self, capsys):
        code, out, _ = run(
            capsys,
            "val", "witness",
            "--valuation", '{"weights":["1","2"]}',
            "--valuation", '{"weights":["2","1"]}',
        )
        assert code == 0
        assert out.splitlines()[0] == "INCOMPARABLE"
        assert "left>right" in out and "right>left" in out

    def test_mvalue(self, capsys):
        code, out, _ = run(
            capsys, "val", "mvalue", "--valuation", '{"weights":["2","3"]}'
        )
        assert (code, out) == (0, "2\n")


class TestTreeCommands:
    def test_check_passes(self, capsys, tree_file):
        code, out, _ = run(capsys, "tree", "check", "--tree", tree_file)
        assert code == 0
        assert out.count("pass") == 4

    def test_check_poset_fails_t4(self, capsys, fork_file):
        code, out, _ = run(capsys, "tree", "check", "--tree", fork_file)
        assert code == 1
        assert "T4: FAIL" in out
        assert "witness" in out

    def test_inf_no_infimum_exit_1(self, capsys, fork_file):
        code, out, _ = run(
            capsys, "tree", "inf", "--tree", fork_file, "--points", "X", "Y"
        )
        assert code == 1
        assert "no infimum" in out

    def test_inf_with_a_segment_point(self, capsys, fork_file):
        code, out, _ = run(
            capsys, "tree", "inf", "--tree", fork_file, "--points", "X", "1/4"
        )
        assert (code, out) == (0, "1/4\n")

    def test_inf_on_a_tree(self, capsys, tree_file):
        code, out, _ = run(
            capsys, "tree", "inf", "--tree", tree_file, "--points", "0/0", "0/1@2"
        )
        assert code == 0
        assert out.startswith("0 ")

    def test_dist(self, capsys, tree_file):
        code, out, _ = run(
            capsys, "tree", "dist", "--tree", tree_file, "--points", "root", "0"
        )
        assert (code, out) == (0, "3/5\n")

    def test_nbhd_membership(self, capsys, tree_file):
        code, out, _ = run(
            capsys,
            "tree", "nbhd", "--tree", tree_file,
            "--points", "0@1", "0/0", "0/1@2", "root", "--json",
        )
        doc = json.loads(out)
        assert [m["member"] for m in doc["members"]] == [True, False]

    def test_ball_check(self, capsys, tree_file):
        code, out, _ = run(
            capsys,
            "tree", "ball-check", "--tree", tree_file,
            "--points", "0/0", "0@1", "0/0@1/2", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == []
        assert doc["epsilon"] == "1/6"

    def test_countability_witness(self, capsys):
        code, out, _ = run(
            capsys, "tree", "countability", "--samples", "5", "--seed", "3", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "branches": 1000,
            "neighborhoods": 5,
            "witness": doc["witness"],
            "in_all": True,
        }


class TestExitCodes:
    def test_malformed_valuation_is_2(self, capsys):
        code, _, err = run(
            capsys, "val", "eval", "--valuation", '{"weights":["inf","inf"]}',
            "--poly", "y",
        )
        assert code == 2
        assert "error:" in err

    def test_bad_poly_is_2(self, capsys):
        code, _, err = run(
            capsys, "val", "eval", "--valuation", '{"weights":["1","1"]}',
            "--poly", "z",
        )
        assert code == 2

    def test_missing_count_is_2(self, capsys):
        code, _, err = run(
            capsys, "val", "compare", "--valuation", '{"weights":["1","2"]}'
        )
        assert code == 2

    def test_unknown_flag_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["val", "eval", "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_tree_file_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tree", "check", "--tree", "/nonexistent.json"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_huge_exponent_is_evaluated(self, capsys):
        code, out, _ = run(
            capsys, "val", "eval", "--valuation", '{"weights":["1","2"]}',
            "--poly", "x^100000",
        )
        assert code == 0
        assert out.strip() == "100000"

    @pytest.mark.parametrize("error", [RecursionError, MemoryError])
    def test_resource_exhaustion_is_2(self, capsys, monkeypatch, error):
        def exhausted(*args):
            raise error()

        monkeypatch.setattr(valtree.cli, "evaluate", exhausted)
        code, out, err = run(
            capsys, "val", "eval", "--valuation", '{"weights":["1","2"]}', "--poly", "y"
        )
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1].startswith("error:")


    @pytest.mark.parametrize(
        "doc, field",
        [
            ('{"weights":[1,2]}', "weights[0] must be a string, got a number"),
            ('{"steps":[{"center":0}],"weights":["1","2"]}', "steps[0].center must be a string"),
            ('{"weights":"12"}', "weights must be an array, got a string"),
        ],
    )
    def test_wrong_json_type_is_2(self, capsys, doc, field):
        """A JSON number or string where the wire format has another type is
        rejected with the field's name, never guessed at or crashed on."""
        code, out, err = run(capsys, "val", "canon", "--valuation", doc)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1].startswith("error: ") and field in err.splitlines()[-1]

    def test_weight_too_long_to_expand_is_2(self, capsys):
        """Weights (1, 1 + 10^-30) need about 10^30 centers inf: the chain
        layer refuses them at its step limit before it builds the chain, and
        the CLI reports that as exit 2."""
        weights = '{"weights":["1","%d/%d"]}' % (10**30 + 1, 10**30)
        code, out, err = run(capsys, "val", "stream", "--valuation", weights)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == STEP_LIMIT_ERROR % valuation.MAX_CHAIN_STEPS

    @pytest.mark.parametrize("exc", [OverflowError, MemoryError, RecursionError])
    def test_resource_errors_are_2(self, capsys, monkeypatch, exc):
        """The chain layer's resource errors map to exit 2; no small input
        raises them since the step limit, so the layer is patched to."""

        def too_large(nu):
            raise exc("too large")

        monkeypatch.setattr(cli_module, "canonicalize", too_large)
        code, out, err = run(capsys, "val", "canon", "--valuation", '{"weights":["1","2"]}')
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == f"error: input too large to process ({exc.__name__})"

    def test_chain_over_the_step_limit_is_2(self, capsys):
        """(1, 10^8) needs 10^8 - 1 steps, a hundred times the limit."""
        code, out, err = run(capsys, "val", "canon", "--valuation", '{"weights":["1","100000000"]}')
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == STEP_LIMIT_ERROR % 1000000

    def test_step_limit_admits_a_chain_of_its_length(self, capsys, monkeypatch):
        """(1, N) has N - 1 steps: under a limit of 999, (1, 1000) prints and
        (1, 1001) exits 2."""
        monkeypatch.setattr(valuation, "MAX_CHAIN_STEPS", 999)
        # each call parses a fresh valuation, which holds no canonical form yet
        code, out, _ = run(capsys, "val", "canon", "--valuation", '{"weights":["1","1000"]}')
        assert code == 0
        assert len(json.loads(out)["steps"]) == 999
        code, out, err = run(capsys, "val", "canon", "--valuation", '{"weights":["1","1001"]}')
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == STEP_LIMIT_ERROR % 999



class TestInputLimits:
    """The digit and sample limits are checked while the arguments are read:
    over either, the CLI exits 2 before any work, naming the limit."""

    @staticmethod
    def refused(capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "config:" not in err  # nothing ran
        return err.splitlines()[-1]

    SAMPLED = [
        ("val", "witness", "--valuation", '{"weights":["1","2"]}', "--valuation", '{"weights":["2","1"]}'),
        ("tree", "check", "--tree", "TREE"),
        ("tree", "ball-check", "--tree", "TREE", "--points", "0/0", "0/0", "0/0"),
        ("tree", "countability"),
    ]

    @pytest.mark.parametrize("command", SAMPLED, ids=lambda c: " ".join(c[:2]))
    def test_samples_over_the_limit_are_2(self, capsys, tree_file, command):
        argv = [tree_file if a == "TREE" else a for a in command]
        limit = cli_module.MAX_SAMPLES
        last = self.refused(capsys, *argv, "--samples", str(limit + 1))
        assert last.endswith(f"error: argument --samples: samples are limited to {limit}")
        assert cli_module.build_parser().parse_args(argv + ["--samples", str(limit)]).samples == limit

    @pytest.mark.parametrize("samples", ["0", "-1"])
    @pytest.mark.parametrize("command", SAMPLED, ids=lambda c: " ".join(c[:2]))
    def test_samples_below_one_are_2(self, capsys, tree_file, command, samples):
        argv = [tree_file if a == "TREE" else a for a in command]
        last = self.refused(capsys, *argv, "--samples", samples)
        assert last.endswith("error: argument --samples: samples must be at least 1")
        assert cli_module.build_parser().parse_args(argv + ["--samples", "1"]).samples == 1

    def test_countability_samples_are_limited_by_its_star(self, capsys):
        limit = cli_module.MAX_NEIGHBORHOODS
        assert limit == 998
        code, _, err = run(capsys, "tree", "countability", "--samples", str(limit + 1))
        assert code == 2
        assert err.splitlines()[-1] == (
            "error: tree countability --samples is limited to 998, "
            "the neighborhoods its 1000-branch star admits"
        )
        code, out, _ = run(capsys, "tree", "countability", "--samples", str(limit), "--json")
        assert code == 0 and json.loads(out)["neighborhoods"] == limit

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="this Python prints ints of any length"
    )
    def test_a_result_over_the_digit_limit_is_2(self, capsys):
        before = sys.get_int_max_str_digits()
        code, out, err = run(
            capsys, "val", "eval", "--valuation", '{"weights":["1","%s"]}' % ("9" * 4300), "--poly", "y^2"
        )
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"error: a result has more than {cli_module.MAX_DIGITS} digits, the most that is printed"
        )
        assert sys.get_int_max_str_digits() == before

    def test_the_sample_limit_admits_the_defaults(self, tree_file):
        parse = cli_module.build_parser().parse_args
        defaults = [parse([tree_file if a == "TREE" else a for a in c]).samples for c in self.SAMPLED]
        assert defaults == [50, 6, 3, 20]
        assert max(defaults) <= cli_module.MAX_SAMPLES

    def test_a_5000_digit_weight_is_2(self, capsys, tmp_path):
        long, limit = "7" * 5000, cli_module.MAX_DIGITS
        doc = '{"weights":["%s","1"]}' % long
        path = tmp_path / "long.json"
        path.write_text('{"weights":[%s,"1"]}' % long)  # a JSON number, too long to read
        for argv in (
            ("val", "mvalue", "--valuation", doc),
            ("val", "mvalue", "--in", str(path)),
            ("val", "eval", "--valuation", '{"weights":["1","1"]}', "--poly", f"{long}*x"),
            ("val", "eval", "--valuation", '{"weights":["1","1"]}', "--poly", f"x^{long}"),
        ):
            last = self.refused(capsys, *argv)
            assert last.endswith(f"numbers are limited to {limit} digits")
            assert "set_int_max_str_digits" not in last

    def test_the_digit_limit_admits_a_number_of_its_length(self, capsys):
        code, out, _ = run(
            capsys, "val", "eval", "--valuation", '{"weights":["1","%s"]}' % ("9" * 4300), "--poly", "x"
        )
        assert (code, out) == (0, "1\n")


class TestOptimizedMode:
    def test_python_O_prints_what_the_library_prints(self, capsys, tmp_path):
        """Results must not depend on assert statements, which ``-O`` strips.

        The two valuations are incomparable and meet through a framed monomial
        program at a shared level, so ``val inf`` runs the whole meet walk.
        """
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(
            '{"steps": [{"center": "inf"}, {"center": "0"}, {"center": "3/2"},'
            ' {"center": "-1/3"}], "weights": ["1/2", "1/4"]}'
        )
        b.write_text('{"weights": ["3", "1"]}')
        src = os.path.dirname(os.path.dirname(os.path.abspath(valtree.__file__)))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        for argv in (
            ["val", "inf", "--in", str(a), "--in", str(b)],
            ["val", "stream", "--in", str(a)],
            ["val", "stream", "--in", str(b), "--json"],
        ):
            code, out, _ = run(capsys, *argv)
            proc = subprocess.run(
                [sys.executable, "-O", "-m", "valtree", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert (proc.returncode, proc.stdout) == (code, out)
            assert code == 0 and out


class TestLongEuclid:
    def test_canon_of_a_long_euclid_run(self, capsys, monkeypatch):
        """Weights (1, 10^5) canonicalize to 99,999 centers 0 in one quotient,
        without a valuation built per step."""
        from valtree.valuation import QuasiMonomialVal

        built = []
        post_init = QuasiMonomialVal.__post_init__

        def counting(self):
            built.append(1)
            post_init(self)

        monkeypatch.setattr(QuasiMonomialVal, "__post_init__", counting)
        code, out, _ = run(capsys, "val", "canon", "--valuation", '{"weights":["1","100000"]}')
        assert code == 0
        doc = json.loads(out)
        assert len(doc["steps"]) == 99_999 and {s["center"] for s in doc["steps"]} == {"0"}
        assert doc["terminal"] == {"divisorial": "1"}
        assert len(built) <= 2


# Every rational field takes exactly p or p/q in ASCII digits with q > 0,
# blanks around allowed, on every Python version.  Each good spelling maps to
# the value printed back; each bad one exits 2 with a message naming the
# field, whether or not some Python's Fraction would take it.
GOOD_SPELLINGS = {
    "3": "3", " 3 ": "3", "\t3\n": "3", "-3": "-3", "0": "0", "-0": "0", "00": "0",
    "3/4": "3/4", "-3/4": "-3/4", "6/8": "3/4", "007/010": "7/10", "12/4": "3",
}
BAD_SPELLINGS = [
    "1/0", "1/00", "+3", "3/-4", "-3/-4", "--3", "3/", "/4", "3/4/5", "3 / 4",
    "1_000", "1.5", ".5", "1e1", "0x10", "٣", "３", "١/٢", "abc", "", " ",
]


class TestNumberSpelling:
    @staticmethod
    def file(tmp_path, name, doc) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def fields(self, tmp_path, text):
        """(argv, the field's name in the message) for each rational field
        the CLI reads, with text in that field."""
        tree = {"nodes": {"root": {"children": [{"edge": "1"}]}}}
        return [
            (["val", "normalize", "--valuation", json.dumps({"steps": [{"center": text}]})],
             "steps[0].center"),
            (["val", "normalize", "--valuation", json.dumps({"weights": ["1", text]})], "weights[1]"),
            (["val", "normalize", "--valuation", json.dumps({"frame": [["1", "0"], [text, "1"]]})],
             "frame[1][0]"),
            (["tree", "dist", "--tree", self.file(tmp_path, "edge.json", {"nodes": {"root": {"children": [{"edge": text}]}}}),
              "--points", "0", "root"], "nodes.root.children[0].edge"),
            (["tree", "dist", "--tree", self.file(tmp_path, "tree.json", tree), "--points", f"0@{text}", "root"],
             f"malformed point {f'0@{text}'.strip()!r}"),
            # a leading blank keeps argparse from reading "-3/-4" as an option
            (["tree", "inf", "--tree", self.file(tmp_path, "fork.json", {"poset": "forked-interval"}),
              "--points", "X", f" {text}"], f"malformed poset point {text.strip()!r}"),
        ]

    @pytest.mark.parametrize("text", sorted(GOOD_SPELLINGS))
    def test_good_spellings_print_their_value(self, capsys, text):
        want = GOOD_SPELLINGS[text]
        code, out, _ = run(capsys, "val", "normalize", "--valuation", json.dumps({"steps": [{"center": text}]}))
        assert code == 0 and json.loads(out)["steps"][0]["center"] == want
        frame = {"frame": [["1", "0"], [text, "1"]]}
        code, out, _ = run(capsys, "val", "normalize", "--valuation", json.dumps(frame))
        assert code == 0 and json.loads(out)["frame"][1][0] == want

    @pytest.mark.parametrize("text", BAD_SPELLINGS)
    def test_bad_spellings_exit_2_naming_the_field(self, capsys, tmp_path, text):
        for argv, field in self.fields(tmp_path, text):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert field in err and "expected p or p/q in ASCII digits" in err, (argv, err)

    @pytest.mark.parametrize("poly, want", [
        ("3/4*x - 6/8*x + y", "2"), ("x + 007/010*y", "1"), ("+3*y^2 - 0*x", "4"),
        ("٣*x+y", 2), ("３*x+y", 2), ("1/0*x", 2), ("x+1/00", 2), ("1_0*x", 2), ("1.5*x", 2),
    ])
    def test_polynomial_coefficients(self, capsys, poly, want):
        code, out, err = run(capsys, "val", "eval", "--valuation", '{"weights":["1","2"]}', "--poly", poly)
        if want == 2:
            assert (code, out) == (2, "") and "(at position" in err
        else:
            assert (code, out.strip()) == (0, want)
