"""The objects on the parse -> normalize -> meet -> compare path, each built
once, against the definitions they shortcut.

A construction reads level 0 with a loop that keeps no level list and the
head's root off the first center's pair; ``meet`` builds its results from the
canonical forms it makes, without the checked constructor; ``compare``
reads the order that the same walk finds, also through the walk's memo.
Each is checked here against the slower definition: level 0 of the Fraction
recursion ``test_deep_chains.reference_levels``, the root of the
``negate()``-d direction, ``from_canonical`` of the result's canonical form,
and the order the canonical forms decide.
"""

import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

from test_deep_chains import reference_levels
from valtree import valuation
from valtree.jsonio import valuation_from_json
from valtree.poly import LinearFrame
from valtree.rationals import INF
from valtree.testkit import DEFAULT_SEED, gen_qmv
from valtree.valuation import (
    CanonicalForm,
    Curve,
    Divisorial,
    INF_POINT,
    ProjPoint,
    QuasiMonomialVal,
    ZERO_POINT,
    canonicalize,
    compare,
    direction_enumeration,
    from_canonical,
    is_normalized,
    meet,
    normalize,
)

FRAMES = (
    LinearFrame(((0, 1), (1, 0))),
    LinearFrame(((1, 0), (1, 1))),
    LinearFrame(((2, -1), (1, 3))),
    LinearFrame(((1, 2), (0, 1))),
)


def random_steps(rng, n):
    """n centers: runs of 0 and infinity mixed with free centers."""
    steps = []
    while len(steps) < n:
        roll = rng.random()
        if roll < 0.35:
            steps += [ZERO_POINT] * rng.randint(1, 4)
        elif roll < 0.7:
            steps += [INF_POINT] * rng.randint(1, 4)
        else:
            value = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
            steps.append(ProjPoint(value))
    return tuple(steps[:n])


def framed_programs(rng, n):
    """Programs in a frame other than the identity, some with an infinite weight."""
    out = []
    while len(out) < n:
        w1, w2 = (Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(2))
        if rng.random() < 0.25:
            w1, w2 = (w1, valuation.INF) if rng.random() < 0.5 else (valuation.INF, w2)
        steps = random_steps(rng, rng.randint(0, 8))
        try:
            out.append(QuasiMonomialVal(steps, rng.choice(FRAMES), (w1, w2)))
        except ValueError:  # an illegal program: both level-0 values infinite
            continue
    return out


def curve_programs(rng, n):
    """Normalized curve programs with a prefix of centers, whose level values
    are infinite in one coordinate from some level on."""
    out = []
    while len(out) < n:
        direction = rng.choice((ZERO_POINT, INF_POINT, ProjPoint(Fraction(rng.randint(1, 7), 3))))
        curve = Curve(direction, Fraction(rng.randint(1, 9), 2))
        form = CanonicalForm(random_steps(rng, rng.randint(1, 8)), curve)
        try:
            out.append(normalize(from_canonical(form)))
        except ValueError:  # the direction made the program illegal
            continue
    return out


def programs():
    rng = random.Random(DEFAULT_SEED + 1700)
    vals = [gen_qmv(DEFAULT_SEED + 1701 + s, max_depth=8) for s in range(500)]
    return vals + framed_programs(rng, 100) + curve_programs(rng, 100)


def negate_root(nu):
    """The zero ``(b, -a)`` of the head's exceptional form ``a*x + b*y``, its
    direction found by ``negate()`` on the first center."""
    center = valuation._head_center(nu)
    if center is None:
        return None
    a, b = center.negate().as_pair()
    return b, -a


class TestConstruction:
    def test_level_zero_loop_is_level_0_of_the_level_list(self):
        infinite = 0
        for nu in programs():
            _, _, q, _, n1, n2 = nu._lead
            nx, ny = valuation._level_zero(nu.steps, *valuation._last_level(nu.frame, n1, n2))
            assert (nx, ny) == nu._lead[:2]
            levels = reference_levels(nu)
            assert tuple(INF if n is None else Fraction(n, q) for n in (nx, ny)) == levels[0]
            infinite += bool(nu.steps) and any(INF in level for level in levels)
        assert infinite >= 50  # the loop's branch for an infinite value is reached

    def test_head_root_is_that_of_the_negated_center(self):
        for nu in programs():
            center = valuation._head_center(nu)
            assert (None if center is None else valuation._center_root(center)) == negate_root(nu)
            nx, ny = nu._lead[:2]
            assert nu._lead[3] == (negate_root(nu) if nx == ny else None)

    def test_center_root_on_every_kind_of_center(self):
        centers = [p for p, _ in zip(direction_enumeration(), range(40))]
        centers += [ProjPoint(Fraction(a, b)) for a in (-7, -2, 3, 5) for b in (2, 3, 9)]
        for c in centers:
            a, b = c.negate().as_pair()
            assert valuation._center_root(c) == (b, -a)


def partners(nu, rng):
    """Valuations that share part of nu's chain: a point on its segment, a
    sibling branch at a random level, and a child below its divisorial end."""
    form = canonicalize(nu)
    cut = rng.randint(0, len(form.steps))
    sibling = form.steps[:cut] + (ProjPoint(Fraction(rng.randint(1, 9), 7)),)
    out = [
        normalize(from_canonical(CanonicalForm(form.steps[:cut], Divisorial(Fraction(1))))),
        normalize(from_canonical(CanonicalForm(sibling, Divisorial(Fraction(1, 3))))),
    ]
    if isinstance(form.terminal, Divisorial):
        child = form.steps + random_steps(rng, rng.randint(1, 6))
        out.append(normalize(from_canonical(CanonicalForm(child, Divisorial(Fraction(2, 5))))))
    return out


def meet_pairs():
    rng = random.Random(DEFAULT_SEED + 1702)
    vals = [gen_qmv(DEFAULT_SEED + 2300 + s, max_depth=8) for s in range(300)]
    vals += curve_programs(rng, 40)
    pairs = [(nu, rng.choice(vals)) for nu in vals]
    for nu in vals:
        pairs += [(nu, mu) for mu in partners(nu, rng)]
    return pairs


def met(nu, mu):
    """``(w, kind, monomial)``: meet's result on a pair, computed past the
    memo, which branch gave it (an input, a result the monomial meet built,
    or the shared-prefix truncation), and whether the monomial meet ran,
    told by a wrapper around it."""
    ran = []
    monomial_meet = valuation._monomial_meet

    def recording(*args):
        ran.append(True)
        return monomial_meet(*args)

    valuation._monomial_meet = recording
    try:
        w = valuation._walk.__wrapped__(nu, mu)[0]
    finally:
        valuation._monomial_meet = monomial_meet
    kind = ("first input" if w is nu else "second input" if w is mu
            else "monomial" if ran else "shared prefix")
    return w, kind, bool(ran)


def word_from_forms(nu, mu):
    """The order of two valuations as their canonical forms and that of their
    meet decide it."""
    c_nu, c_mu, c_w = canonicalize(nu), canonicalize(mu), canonicalize(meet(nu, mu))
    return ("EQ" if c_nu == c_mu else "LT" if c_w == c_nu
            else "GT" if c_w == c_mu else "INCOMPARABLE")


class TestMeetResults:
    def test_built_results_equal_those_of_the_checked_constructor(self):
        pairs = meet_pairs()
        assert len(pairs) >= 500
        seen = dict.fromkeys(("first input", "second input", "monomial", "shared prefix"), 0)
        for nu, mu in pairs:
            w, kind, _ = met(nu, mu)
            seen[kind] += 1
            if kind in ("first input", "second input"):
                continue
            handed = vars(w).get("_form")
            ref = from_canonical(canonicalize(w))
            assert (w.steps, w.frame, w.weights) == (ref.steps, ref.frame, ref.weights)
            assert type(w.steps) is tuple and all(type(g) is Fraction for g in w.weights)
            assert w._lead == ref._lead
            assert is_normalized(w)
            # the form meet handed in is the one canonicalize builds afresh
            assert canonicalize(ref) == canonicalize(w)
            assert canonicalize(w) is handed
            assert hash(w) == hash(ref)
        assert min(seen.values()) >= 50, seen

    def test_compare_agrees_with_the_canonical_forms(self):
        words = set()
        for nu, mu in meet_pairs():
            for a, b in ((nu, mu), (mu, nu)):
                word = compare(a, b).value
                assert word == word_from_forms(a, b)
                words.add(word)
        assert words == {"EQ", "LT", "GT", "INCOMPARABLE"}


def deep_programs(rng, n):
    """Normalized programs whose chains run 1-48 levels deep, as in the
    benchmark's meet-deep workload: a prefix of up to 40 centers, then the
    Euclid walk of two small weights."""
    out = []
    for _ in range(n):
        steps = random_steps(rng, rng.randint(0, 40))
        w1, w2 = (Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(2))
        out.append(normalize(QuasiMonomialVal(steps, weights=(w1, w2))))
    return out


def deep_pairs():
    """Each deep program with a random other one, with the same centers under
    other weights (the two chains agree down to the end of the centers), and
    with its partners."""
    rng = random.Random(DEFAULT_SEED + 1703)
    vals = deep_programs(rng, 200)
    pairs = []
    for nu in vals:
        w1, w2 = (Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(2))
        pairs.append((nu, rng.choice(vals)))
        pairs.append((nu, normalize(QuasiMonomialVal(nu.steps, weights=(w1, w2)))))
        pairs += [(nu, mu) for mu in partners(nu, rng)]
    return pairs


def raise_if_built(nu):
    raise AssertionError("a canonical form was built where a carried one should be read")


class TestCarriedForms:
    """Every result ``meet`` builds carries its canonical form, and a meet
    that equals an input is that input, on seeded deep pairs; ``compare``
    then answers without building a form."""

    def test_built_results_carry_their_canonical_form(self):
        seen = dict.fromkeys(("monomial", "shared prefix"), 0)
        for nu, mu in deep_pairs():
            w, kind, _ = met(nu, mu)
            if kind in seen:
                seen[kind] += 1
                assert "_form" in vars(w)
                assert w._form == valuation._build_canonical(w)
        assert min(seen.values()) >= 50, seen

    def test_a_meet_equal_to_an_input_is_that_input(self):
        returned = 0
        for nu, mu in deep_pairs():
            w, kind, monomial = met(nu, mu)
            if kind in ("first input", "second input"):
                returned += monomial
            else:
                form = valuation._build_canonical(w)
                assert form != valuation._build_canonical(nu)
                assert form != valuation._build_canonical(mu)
        assert returned >= 100  # the monomial meet handed back an input

    def test_compare_builds_no_form_and_agrees_with_the_forms(self, monkeypatch):
        pairs = deep_pairs()
        build = valuation._build_canonical
        want = []
        for nu, mu in pairs:
            c_nu, c_mu, c_w = build(nu), build(mu), build(valuation._walk.__wrapped__(nu, mu)[0])
            want.append("EQ" if c_nu == c_mu else "LT" if c_w == c_nu
                        else "GT" if c_w == c_mu else "INCOMPARABLE")
            meet(nu, mu)  # as an operation meets before it compares
        monkeypatch.setattr(valuation, "_build_canonical", raise_if_built)
        mirror = {"LT": "GT", "GT": "LT", "EQ": "EQ", "INCOMPARABLE": "INCOMPARABLE"}
        for (nu, mu), word in zip(pairs, want):
            assert compare(nu, mu).value == word
            assert compare(mu, nu).value == mirror[word]
            canonicalize(meet(nu, mu))
        assert set(want) == set(mirror)


class TestOrderThroughTheMemo:
    def test_twins_read_the_order_the_forms_decide(self):
        """After ``meet(nu, mu)``, the walk's memo answers ``compare`` for
        equal but distinct copies of both, with the word the canonical forms
        give; the swapped copies give the mirrored word."""
        mirror = {"LT": "GT", "GT": "LT", "EQ": "EQ", "INCOMPARABLE": "INCOMPARABLE"}
        words = set()
        for nu, mu in deep_pairs():
            word = word_from_forms(nu, mu)  # meets the pair
            twin_nu, twin_mu = (QuasiMonomialVal(v.steps, v.frame, v.weights) for v in (nu, mu))
            assert twin_nu == nu and twin_nu is not nu and twin_mu == mu and twin_mu is not mu
            hits = valuation._walk.cache_info().hits
            assert compare(twin_nu, twin_mu).value == word
            assert valuation._walk.cache_info().hits == hits + 1
            assert compare(twin_mu, twin_nu).value == mirror[word]
            words.add(word)
        assert words == set(mirror)


def meet_deep_documents(seed):
    """The document pairs of valbench's meet-deep workload at this seed;
    its input module imports nothing from valtree."""
    path = Path(__file__).resolve().parents[1] / "valbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("valbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [(pair["nu"]["doc"], pair["mu"]["doc"]) for pair in inputs.meet_pairs(seed)]


class TestNoPointBuilt:
    def test_the_meet_deep_op_builds_no_point(self, monkeypatch):
        """valbench's meet-deep op, parse -> normalize -> meet -> compare ->
        canonicalize, builds no ``ProjPoint`` over its 120 seed-1 pairs once
        the spelling memos hold the documents' centers and meet's memo is
        empty: the chain and order layers name each level by a center that
        a document or a Euclid run (``ZERO_POINT``, ``INF_POINT``) holds."""
        docs = meet_deep_documents(1)
        assert len(docs) == 120
        for a, b in docs:  # the spelling memos learn every center and weight
            valuation_from_json(a), valuation_from_json(b)
        valuation._walk.cache_clear()
        built, monomial = [], []
        post_init, monomial_meet = ProjPoint.__post_init__, valuation._monomial_meet
        monkeypatch.setattr(ProjPoint, "__post_init__", lambda p: built.append(p) or post_init(p))
        monkeypatch.setattr(valuation, "_monomial_meet", lambda *a: monomial.append(1) or monomial_meet(*a))
        for a, b in docs:
            nu, mu = normalize(valuation_from_json(a)), normalize(valuation_from_json(b))
            w = meet(nu, mu)
            compare(nu, mu)
            canonicalize(w)
        assert built == []
        assert len(monomial) >= 20  # meet's monomial case, which hands a level's center on, is reached


class TestTerminalNeverSmaller:
    def test_the_levels_behind_monomial_meets_center(self):
        """The two facts by which ``_monomial_meet``'s smaller side is never
        at its terminal level, over ``_chain``'s levels of the
        ``gen_qmv(max_depth=6)`` programs of seeds 0-199 and of the deep
        pairs: no multiplicity rises from a level to the next, level 0 being
        1, and a divisorial's terminal multiplicity is its last center's."""
        programs = [gen_qmv(seed, max_depth=6) for seed in range(200)]
        programs += [nu for pair in deep_pairs() for nu in pair]
        repeated = 0
        for nu in programs:
            q, steps, levels = valuation._chain(valuation._canonicalize_raw(nu))
            chain = list(itertools.islice(levels, len(steps) + 2))
            ms = [m for _, m, _ in chain]
            assert ms[0] == q
            assert ms == sorted(ms, reverse=True)
            if chain[-1][0] is valuation.TERMINAL and steps:
                assert ms[-1] == ms[-2]
                repeated += 1
        assert repeated >= 200
