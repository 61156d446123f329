"""Quasi-monomial valuations: evaluation, normalization, canonical forms."""

import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest

from valtree.poly import BivarPoly, BothWeightsInfiniteError, IDENTITY_FRAME, LinearFrame, poly_parse
from valtree.rationals import INF, format_rat, is_inf, scale
from valtree import jsonio, valuation
from valtree.jsonio import format_center, valuation_from_json
from valtree.testkit import DEFAULT_SEED, gen_qmv, sample_polys
from valtree.valuation import (
    CanonicalForm,
    Curve,
    Divisorial,
    INF_POINT,
    M_ADIC,
    ProjPoint,
    QuasiMonomialVal,
    TERMINAL,
    Terminal,
    ValueNumerators,
    canonicalize,
    dilatation_length,
    dilate,
    direction_enumeration,
    equal_valuations,
    evaluate,
    evaluate_naive,
    from_canonical,
    is_normalized,
    m_value,
    monomial,
    meet,
    multiplicity_stream,
    normalize,
)

X = BivarPoly.var_x()
Y = BivarPoly.var_y()
SWAP = LinearFrame(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))


def level_values(nu):
    """``valuation._level_numerators`` as exact rationals."""
    q, levels = valuation._level_numerators(nu)
    return [tuple(INF if n is None else Fraction(n, q) for n in level) for level in levels]


def record_values(nu):
    """The level-0 values kept in a program's record, as exact rationals."""
    nx, ny, q = nu._lead[:3]
    return tuple(INF if n is None else Fraction(n, q) for n in (nx, ny))


def walk(form):
    """``valuation._walk_numerators`` as exact rationals: (center, m, e) per
    level, e being None at a divisorial end and INF for an infinite value."""
    q, levels = valuation._walk_numerators(form)
    for center, m, e in levels:
        yield center, Fraction(m, q), (None if center is TERMINAL else INF) if e is None else Fraction(e, q)


class TestProjPoint:
    def test_enumeration_head(self):
        six = list(itertools.islice(direction_enumeration(), 6))
        assert six == [
            INF_POINT,
            ProjPoint(0),
            ProjPoint(1),
            ProjPoint(-1),
            ProjPoint(Fraction(1, 2)),
            ProjPoint(Fraction(-1, 2)),
        ]

    def test_center_direction_involution(self):
        """Centers and directions convert by ``negate``, its own inverse."""
        for c in (ProjPoint(Fraction(2, 3)), ProjPoint(0), INF_POINT):
            assert c.negate().negate() == c
        assert ProjPoint(Fraction(2, 3)).negate() == ProjPoint(Fraction(-2, 3))
        assert INF_POINT.negate() == INF_POINT

    def test_form(self):
        assert ProjPoint(2).form() == poly_parse("2*x + y")
        assert INF_POINT.form() == X

    def test_as_pair_primitive(self):
        assert ProjPoint(Fraction(-2, 4)).as_pair() == (-1, 2)
        assert INF_POINT.as_pair() == (1, 0)

    def test_kept_pair_against_the_value(self):
        """Every point keeps the primitive pair its value gives, ``negate``
        acts on the pair and twice gives the point back, and equality, hash
        and ``format_center`` give what they gave when they read the value
        alone.  Points: the JSON center table, the centers, canonical chains,
        curve directions and frame rows of generated programs, the
        directions curvettes are drawn from, and random rationals."""
        rng = random.Random(DEFAULT_SEED + 31)
        spellings = ["0", "-0", "00", "0/5", "3", "-7/2", "6/4", " 5 ", "inf", "INF", str(10**40) + "/3"]
        valuation_from_json({"steps": [{"center": c} for c in spellings]})
        points = list(jsonio._CENTERS.values())
        programs = [gen_qmv(DEFAULT_SEED + 900 + s, max_depth=8) for s in range(60)]
        programs += [alternating_chain(rng, n) for n in range(1, 10)]
        for nu in programs:
            form = canonicalize(nu)
            points += nu.steps + form.steps + tuple(valuation._row_direction(nu.frame, i) for i in (0, 1))
            if isinstance(form.terminal, Curve):
                d = form.terminal.direction
                points += [d, ProjPoint(1 if d.is_inf else d.value + 1)]  # the two curvette directions
        values = [Fraction(0), Fraction(-0), 7, -7, 10**50, -(10**50)]
        values += [Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**20)) for _ in range(300)]
        values += [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(300)]
        points += [ProjPoint(v) for v in values] + [INF_POINT, ProjPoint(INF)]
        assert len(points) > 1000
        for p in points:
            v = p.value
            pair = (1, 0) if v is INF else (v.numerator, v.denominator)
            assert p.as_pair() == pair and math.gcd(*pair) == 1 and pair[1] >= 0
            neg = p.negate()
            assert neg.as_pair() == (pair if 0 in pair else (-pair[0], pair[1]))
            assert neg.negate() == p and neg.negate().as_pair() == pair
            assert hash(p) == hash((v,))
            assert format_center(p) == ("inf" if v is INF else format_rat(v))
            twin = ProjPoint(v)
            assert twin == p and hash(twin) == hash(p) and twin.as_pair() == pair
        for p, q in zip(points, points[7:]):
            assert (p == q) == (p.value == q.value) == (p.as_pair() == q.as_pair())


class TestConstruction:
    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            monomial(0, 1)
        with pytest.raises(ValueError):
            monomial(1, -2)

    def test_both_infinite_rejected(self):
        with pytest.raises(BothWeightsInfiniteError):
            QuasiMonomialVal((), weights=(INF, INF))

    def test_m_adic_normalized(self):
        assert is_normalized(M_ADIC)
        assert m_value(M_ADIC) == 1


class TestEvaluate:
    def test_monomial_weights(self):
        nu = monomial(1, Fraction(3, 2))
        assert evaluate(nu, poly_parse("x*y^2")) == 4
        assert evaluate(nu, poly_parse("x^3 + y^2")) == 3
        assert evaluate(nu, BivarPoly.constant(7)) == 0
        assert is_inf(evaluate(nu, BivarPoly.zero()))

    def test_m_adic_is_vanishing_order(self):
        phi = poly_parse("x^2*y + 3*y^2")
        assert evaluate(M_ADIC, phi) == 2

    def test_translated_step(self):
        # the program y <- x*(y+1) values y-x above the other lines through 0
        nu = QuasiMonomialVal((ProjPoint(1),), weights=(Fraction(1), Fraction(1)))
        assert evaluate(nu, poly_parse("y - x")) == 2
        assert evaluate(nu, poly_parse("y - 2*x")) == 1
        assert evaluate(nu, X) == 1
        assert evaluate(nu, Y) == 1

    def test_infinite_step(self):
        mu = QuasiMonomialVal((INF_POINT,), weights=(Fraction(1), Fraction(2)))
        assert evaluate(mu, X) == 3
        assert evaluate(mu, Y) == 2

    def test_curve_weights(self):
        nu = monomial(1, INF)
        assert is_inf(evaluate(nu, Y))
        assert evaluate(nu, poly_parse("y + x^5")) == 5
        assert evaluate(nu, X) == 1

    def test_frame_renames_coordinates(self):
        rho = QuasiMonomialVal((), SWAP, (Fraction(2), Fraction(1)))
        assert evaluate(rho, X) == 1
        assert evaluate(rho, Y) == 2
        assert equal_valuations(rho, monomial(1, 2))

    def test_agrees_with_naive_substitution(self):
        polys = sample_polys(DEFAULT_SEED, 8)
        for s in range(12):
            nu = gen_qmv(DEFAULT_SEED + s)
            for phi in polys:
                assert evaluate(nu, phi) == evaluate_naive(nu, phi)

    def test_huge_exponent(self):
        assert evaluate(monomial(1, 2), BivarPoly.monomial(100000, 0)) == 100000
        assert evaluate(monomial(1, 2), BivarPoly.monomial(3, 50000)) == 100003

    def test_differential_against_naive(self):
        """evaluate against literal substitution on every program shape.

        Shapes: centers with denominators (images with non-unit contents),
        framed programs of the shape of meet's monomial case, an infinite weight on either side,
        and gen_qmv chains of up to eight levels; polynomials carry Fraction
        coefficients and have degree up to 8.  Evaluation must leave the
        valuation's equality, hash and repr as they were.
        """
        rng = random.Random(DEFAULT_SEED + 5)
        chains = [gen_qmv(DEFAULT_SEED + 700 + s, max_depth=8) for s in range(40)]
        contents = [
            QuasiMonomialVal(steps, weights=w)
            for steps in ((Fraction(2, 3),), (Fraction(-5, 2), 3), (Fraction(1, 3), INF_POINT, Fraction(7, 4)))
            for w in ((1, 1), (2, 5), (Fraction(3, 2), INF))
        ]
        # fractional centers: their charts scale the terms by powers of a
        # denominator, and the composed images have non-integer coefficients
        assert any(not c.is_inf and c.value.denominator != 1 for nu in contents for c in nu.steps)
        shear = LinearFrame(((1, 0), (1, 1)))
        curves = [
            QuasiMonomialVal(steps, frame, w)
            for steps, frame, w in (
                ((), SWAP, (1, INF)),
                ((), SWAP, (INF, Fraction(2, 3))),
                ((ProjPoint(Fraction(2, 3)),), IDENTITY_FRAME, (Fraction(5, 3), INF)),
                ((ProjPoint(1), ProjPoint(-2)), shear, (1, INF)),
                ((INF_POINT,), IDENTITY_FRAME, (INF, 1)),
                ((INF_POINT, INF_POINT), shear, (INF, 2)),
            )
        ]
        # the framed programs of meet's monomial case: a prefix of a chain,
        # then a generic direction and the next center's exceptional one,
        # valued above it (degree-8 literal substitution through deeper
        # framed programs takes seconds each, so at most five centers)
        framed = []
        for nu in chains:
            if len(nu.steps) < 2:
                continue
            k = rng.randrange(1, min(len(nu.steps), 5))
            exc = nu.steps[k].negate()
            x_dir = next(d for d in direction_enumeration() if d != exc)
            m = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            weights = (m, m + Fraction(rng.randint(1, 5), rng.randint(1, 3)))
            framed.append(QuasiMonomialVal(nu.steps[:k], LinearFrame((x_dir.as_pair(), exc.as_pair())), weights))
        assert len(framed) >= 5
        programs = chains + contents + curves + framed

        for nu in programs:
            twin = QuasiMonomialVal(nu.steps, nu.frame, nu.weights)
            before = (hash(nu), repr(nu))
            # (y - c*x)^2 cancels under the center c, across its coefficients' denominators
            polys = fraction_polys(rng, 2) + fraction_polys(rng, 2, max_deg=4) + [
                BivarPoly.linear_form(-c.value, 1) ** 2 + BivarPoly.monomial(0, 5)
                for c in nu.steps[:3] if not c.is_inf
            ]
            for phi in polys:
                assert evaluate(nu, phi) == evaluate_naive(nu, phi)
            assert nu == twin and (hash(nu), repr(nu)) == before == (hash(twin), repr(twin))

    def test_programs_differing_in_weights_keep_their_values(self):
        steps = (ProjPoint(Fraction(1, 2)), INF_POINT, ProjPoint(-1))
        family = [QuasiMonomialVal(steps, weights=w) for w in ((1, 1), (1, 3), (Fraction(7, 2), 1), (2, INF))]
        polys = fraction_polys(random.Random(DEFAULT_SEED + 6), 12)
        for _ in range(2):  # the second round is warm and shares the images
            for phi in polys:
                for nu in family:
                    assert evaluate(nu, phi) == evaluate_naive(nu, phi)

    def test_leading_term_tiers_and_strict_transforms_agree_with_naive(self, monkeypatch):
        """evaluate against literal substitution, on inputs that reach every
        tier and the strict-transform path: an infinite level-0 value, a
        unique least term, ties with v(x) = v(y) that do and do not cancel,
        and ties with v(x) != v(y)."""
        ties, transform_calls = [], []
        vanishes, transform = valuation._vanishes_at, valuation._strict_transform

        def recording_vanishes(root, terms):
            ties.append(vanishes(root, terms))
            return ties[-1]

        def counting_transform(nu, phi):
            transform_calls.append(phi)
            return transform(nu, phi)

        monkeypatch.setattr(valuation, "_vanishes_at", recording_vanishes)
        monkeypatch.setattr(valuation, "_strict_transform", counting_transform)
        rng = random.Random(DEFAULT_SEED + 9)
        shear = LinearFrame(((1, 0), (1, 1)))
        # v(x) = 2, v(y) = 1 and v(x - y^2) = 3: x - y^2 ties and cancels
        parabola = QuasiMonomialVal((INF_POINT, ProjPoint(1)), weights=(1, 1))
        programs = [gen_qmv(DEFAULT_SEED + 900 + s, max_depth=8) for s in range(40)] + [
            M_ADIC,
            monomial(1, INF),
            monomial(INF, Fraction(2, 3)),
            QuasiMonomialVal((), SWAP, (1, INF)),
            QuasiMonomialVal((ProjPoint(Fraction(2, 3)), INF_POINT), shear, (Fraction(3, 2), INF)),
            QuasiMonomialVal((INF_POINT, INF_POINT), IDENTITY_FRAME, (INF, 1)),
            QuasiMonomialVal((), shear, (1, 3)),
            QuasiMonomialVal((ProjPoint(Fraction(-5, 2)), ProjPoint(3)), weights=(2, 5)),
            parabola,
        ]
        for nu in programs:
            polys = fraction_polys(rng, 3, max_deg=5) + [
                X * Y + X**2 + Y**2,  # three tied terms when v(x) = v(y)
                X - Y**2 + X * Y,
                X + Y**2,
            ]
            d = valuation._head_exceptional(nu)
            if d is not None:
                ell = d.form()
                other = ProjPoint(d.value + 1).form() if not d.is_inf else Y
                polys += [
                    ell,
                    ell**2 + X**3 * Y,  # a tied form divisible by ell
                    ell * other + Y**4 - X**5,
                    other**2 + ell * X,  # a tie ell does not divide
                    ell**3 * Fraction(2, 7) + other**4,
                ]
            for phi in polys:
                assert evaluate(nu, phi) == evaluate_naive(nu, phi), (nu, phi)
        assert transform_calls and True in ties and False in ties
        assert evaluate(parabola, X - Y**2) == 3 and evaluate(parabola, X + Y**2) == 2

    def test_seeded_polynomials_agree_with_naive(self):
        """The leading-term tiers and strict transforms against literal
        substitution on 1,500 seeded pairs."""
        polys = sample_polys(DEFAULT_SEED + 10, 60, max_deg=5)
        for s in range(25):
            nu = gen_qmv(DEFAULT_SEED + 950 + s, max_depth=8)
            for phi in polys:
                assert evaluate(nu, phi) == evaluate_naive(nu, phi)

    def test_generated_pairs_agree_with_naive(self):
        """One-pass tiers and the value table against literal substitution, on
        the suites' own shapes: gen_qmv valuations times sample_polys."""
        polys = sample_polys(DEFAULT_SEED + 12, 40, max_deg=3, max_terms=3, coeff_bound=5)
        polys += sample_polys(DEFAULT_SEED + 13, 20)
        for s in range(60):
            nu = gen_qmv(DEFAULT_SEED + 2 * s + 1)
            for _ in range(2):  # the second pass reads the value table
                for phi in polys:
                    assert evaluate(nu, phi) == evaluate_naive(nu, phi), (nu, phi)

    def test_value_table_stays_within_its_bound(self):
        nu = QuasiMonomialVal(weights=(Fraction(3, 7), Fraction(5, 7)))
        table = nu._lead[-1]
        for k in range(3 * valuation._VALUE_TABLE_SIZE):
            assert evaluate(nu, X**k * Y) == Fraction(3 * k + 5, 7)
            assert len(table) <= valuation._VALUE_TABLE_SIZE
        assert len(table) == valuation._VALUE_TABLE_SIZE
        assert all(value == Fraction(n, 7) for n, value in table.items())
        assert evaluate(nu, X**200 * Y) == Fraction(605, 7)  # past the bound: fresh


class TestValueNumerators:
    """``ValueNumerators`` against ``evaluate``: each numerator over the shared
    denominator is the Fraction value, so the numerators compare exactly as
    the values do, infinity included."""

    @staticmethod
    def record_paths(monkeypatch):
        """The tier-3 answers and the strict-transform calls, as they happen."""
        ties, transforms = [], []
        vanishes, transform = valuation._vanishes_at, valuation._strict_transform

        def recording_vanishes(root, terms):
            ties.append(vanishes(root, terms))
            return ties[-1]

        def counting_transform(nu, phi):
            transforms.append(phi)
            return transform(nu, phi)

        monkeypatch.setattr(valuation, "_vanishes_at", recording_vanishes)
        monkeypatch.setattr(valuation, "_strict_transform", counting_transform)
        return ties, transforms

    @staticmethod
    def assert_agree(vals, polys, naive=None):
        """The numerators against ``evaluate``, which makes the same tier pass
        on one row.  Given a dict ``naive``, the values are also checked
        against literal substitution, kept there per (valuation, polynomial)."""
        values = ValueNumerators(vals)
        for phi in polys:
            got = values(phi)
            want = [evaluate(nu, phi) for nu in vals]
            if naive is not None:
                for nu, v in zip(vals, want):
                    if (nu, phi) not in naive:
                        naive[nu, phi] = evaluate_naive(nu, phi)
                    assert v == naive[nu, phi], (nu, phi)
            assert [n if n is INF else Fraction(n, values.den) for n in got] == want, (vals, phi)
            for (a, u), (b, v) in itertools.product(zip(got, want), repeat=2):
                assert (a > b, a == b, a < b) == (u > v, u == v, u < v), (vals, phi)

    @pytest.mark.parametrize("depth", [4, 8])
    def test_generated_triples(self, monkeypatch, depth):
        ties, transforms = self.record_paths(monkeypatch)
        polys = sample_polys(DEFAULT_SEED + 14, 60, max_deg=3, max_terms=3, coeff_bound=5)
        polys += sample_polys(DEFAULT_SEED + 15, 20)
        # literal substitution through the depth-8 programs would take seconds
        naive = {} if depth == 4 else None
        for s in range(30):
            seed = DEFAULT_SEED + 3000 + 3 * s
            nu, mu = gen_qmv(seed, max_depth=depth), gen_qmv(seed + 1, max_depth=depth)
            self.assert_agree((meet(nu, mu), nu, mu), polys, naive)
            self.assert_agree((nu, mu, gen_qmv(seed + 2, max_depth=depth)), polys, naive)
        assert transforms and True in ties and False in ties

    def test_every_tier_and_the_strict_transforms(self, monkeypatch):
        """Infinite weights (tier 1), ties with v(x) = v(y) that do and do not
        cancel (tier 3), ties with v(x) != v(y) and ties the exceptional form
        divides (strict transforms), over denominators 1, 2, 3 and 7."""
        ties, transforms = self.record_paths(monkeypatch)
        shear = LinearFrame(((1, 0), (1, 1)))
        parabola = QuasiMonomialVal((INF_POINT, ProjPoint(1)), weights=(1, 1))
        programs = [
            M_ADIC,
            monomial(1, INF),
            monomial(INF, Fraction(2, 3)),
            QuasiMonomialVal((), SWAP, (1, INF)),
            QuasiMonomialVal((ProjPoint(Fraction(2, 3)), INF_POINT), shear, (Fraction(3, 2), INF)),
            QuasiMonomialVal((), shear, (Fraction(1, 7), Fraction(3, 7))),
            QuasiMonomialVal((ProjPoint(Fraction(-5, 2)), ProjPoint(3)), weights=(2, 5)),
            QuasiMonomialVal((ProjPoint(2),), weights=(Fraction(1, 2), Fraction(1, 2))),
            parabola,
        ]
        polys = [BivarPoly.zero(), BivarPoly.constant(3), X * Y + X**2 + Y**2, X - Y**2 + X * Y]
        for nu in programs:
            d = valuation._head_exceptional(nu)
            if d is not None:
                ell = d.form()
                other = ProjPoint(d.value + 1).form() if not d.is_inf else Y
                polys += [ell, ell**2 + X**3 * Y, ell * other + Y**4 - X**5, other**2 + ell * X]
        polys += sample_polys(DEFAULT_SEED + 16, 40, max_deg=4)
        naive = {}
        for vals in itertools.combinations(programs, 3):
            self.assert_agree(vals, polys, naive)
        # tier 1: curve programs value the nonzero multiples of their curve infinite
        assert sum(is_inf(v) for (_, phi), v in naive.items() if not phi.is_zero()) > 10
        assert transforms and True in ties and False in ties
        values = ValueNumerators((parabola, M_ADIC))
        assert values(X - Y**2) == [3 * values.den, values.den]  # a tie that cancels


class TestEvaluateWork:
    # a 16-center chain drawn as benchmarks/evaluate_scaling.py draws them;
    # its composed y image has 2,979 terms of degree 341, while the strict
    # transforms of the polynomials below keep a handful of terms
    DEEP = QuasiMonomialVal(
        tuple(ProjPoint(c) for c in (
            2, Fraction(-2, 3), -2, 0, INF, -1, 0, -1, 1, -2, -2, INF, 0, Fraction(2, 3), 1, INF,
        )),
        weights=(Fraction(5, 42), Fraction(1, 21)),
    )

    def count_charts(self, monkeypatch):
        """The term count of each strict transform a chart returns, in order."""
        sizes = []
        chart = valuation._chart

        def counting(f, step):
            e, g = chart(f, step)
            sizes.append(len(g))
            return e, g

        monkeypatch.setattr(valuation, "_chart", counting)
        return sizes

    def test_unique_least_term_builds_no_images(self, monkeypatch):
        """A unique least term at level 0 runs no chart at all."""
        nu = QuasiMonomialVal(self.DEEP.steps, self.DEEP.frame, self.DEEP.weights)
        vx, vy = level_values(nu)[0]
        assert record_values(nu) == (vx, vy)
        assert vx == vy
        polys = [X, Y, X**3 * Y + Y**7, BivarPoly.monomial(40, 2) + X**50]
        polys += [
            phi for phi in sample_polys(DEFAULT_SEED + 11, 40, max_deg=6)
            if len({r + s for r, s in phi.terms}) == len(phi.terms)
        ]
        assert len(polys) > 10
        sizes = self.count_charts(monkeypatch)
        for phi in polys:
            assert evaluate(nu, phi) == min(r + s for r, s in phi.terms) * vx
        assert sizes == []

    def test_tie_divisible_by_the_exceptional_form_does_bounded_work(self, monkeypatch):
        """A tie the head's exceptional form divides runs at most one chart
        per center, on strict transforms of a few terms."""
        nu = QuasiMonomialVal(self.DEEP.steps, self.DEEP.frame, self.DEEP.weights)
        ell = poly_parse("y - 2*x")  # the direction of the first center, 2
        assert valuation._head_exceptional(nu).form() == ell
        sizes = self.count_charts(monkeypatch)
        assert evaluate(nu, ell) == evaluate_naive(nu, ell) > m_value(nu)
        assert sizes == [1]  # the chart at 2 takes y - 2x to the single term y
        for phi in (ell**2 + X**3, ell**3 + Y**4, ell**3 * X + Y**5 - X**6):
            del sizes[:]
            assert evaluate(nu, phi) > min(r + s for r, s in phi.terms) * m_value(nu)
            assert 1 <= len(sizes) <= len(nu.steps)
            assert max(sizes) <= 8

    def test_warm_evaluate_never_hashes_the_valuation(self, monkeypatch):
        """evaluate keeps its state on the valuation (its level-0 numerators
        and value table) and runs no cache lookup keyed by it."""
        nu = QuasiMonomialVal((ProjPoint(Fraction(3, 5)), INF_POINT), SWAP, (Fraction(4, 3), 1))
        polys = fraction_polys(random.Random(DEFAULT_SEED + 7), 10)
        for phi in polys:
            evaluate(nu, phi)
        calls = []
        original = QuasiMonomialVal.__hash__

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(QuasiMonomialVal, "__hash__", counting)
        for i in range(100):
            evaluate(nu, polys[i % len(polys)])
        assert len(calls) == 0


class TestNormalize:
    def test_scales_by_m(self):
        nu = monomial(2, 3)
        assert m_value(nu) == 2
        assert normalize(nu).weights == (Fraction(1), Fraction(3, 2))

    def test_identity_when_normalized(self):
        nu = monomial(1, 2)
        assert normalize(nu) is nu

    def test_generated_values_are_normalized(self):
        for s in range(40):
            assert is_normalized(gen_qmv(DEFAULT_SEED + s))

    @staticmethod
    def rescaled_programs():
        """(program, rescaled copy) pairs: 200 generated programs of depth up
        to 8, with every weight pair also under two non-identity frames and
        with an infinite weight on either side."""
        rng = random.Random(DEFAULT_SEED + 700)
        frames = (IDENTITY_FRAME, SWAP, LinearFrame(((2, -1), (1, 3))))
        out = []
        for s in range(200):
            nu = gen_qmv(DEFAULT_SEED + 700 + s, max_depth=8)
            w1, w2 = nu.weights
            variants = [(frame, nu.weights) for frame in frames]
            if not (is_inf(w1) or is_inf(w2)):
                variants += [(IDENTITY_FRAME, (w1, INF)), (rng.choice(frames), (INF, w2))]
            for frame, weights in variants:
                try:
                    program = QuasiMonomialVal(nu.steps, frame, weights)
                except ValueError:  # every element of the maximal ideal valued infinity
                    continue
                k = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                big = QuasiMonomialVal(nu.steps, frame, tuple(w if is_inf(w) else k * w for w in weights))
                out.append((program, big))
        return out

    def test_derived_equals_the_rescaled_construction(self):
        pairs = self.rescaled_programs()
        assert len(pairs) > 600
        assert sum(not p.frame.is_identity() for p, _ in pairs) > 300
        assert sum(None in p._lead[:2] for p, _ in pairs) > 100
        polys = sample_polys(DEFAULT_SEED + 701, 6, max_deg=3)
        for _, big in pairs:
            got = normalize(big)
            m = m_value(big)
            want = QuasiMonomialVal(big.steps, big.frame, tuple(scale(1 / m, w) for w in big.weights))
            assert (got.steps, got.frame, got.weights) == (want.steps, want.frame, want.weights)
            assert got == want and hash(got) == hash(want)
            assert record_values(got) == record_values(want) and m_value(got) == m_value(want) == 1
            assert got._lead[:4] == want._lead[:4]
            assert [evaluate(got, phi) for phi in polys] == [evaluate(want, phi) for phi in polys]

    def test_normalize_runs_no_level_recursion(self, monkeypatch):
        """Every program is rescaled from its record, curve programs (one
        level-0 value infinite) included."""
        scaled = [big for _, big in self.rescaled_programs() if not is_normalized(big)]
        assert len(scaled) > 600
        assert sum(None in nu._lead[:2] for nu in scaled) > 100
        calls = []
        levels_back = valuation._levels_back
        monkeypatch.setattr(valuation, "_levels_back", lambda *a: calls.append(1) or levels_back(*a))
        normalized = [normalize(nu) for nu in scaled]
        assert calls == []
        assert all(is_normalized(nu) for nu in normalized)


class TestDilate:
    def test_equal_weights_terminate(self):
        assert dilate(monomial(1, 1)) == Terminal(Fraction(1))

    def test_finite_center(self):
        step = dilate(monomial(1, Fraction(5, 2)))
        assert step.step == ProjPoint(0)
        assert step.tail == monomial(1, Fraction(3, 2))

    def test_infinite_center(self):
        step = dilate(monomial(2, 1))
        assert step.step == INF_POINT
        assert step.tail == monomial(1, 1)

    def test_rejects_pending_steps(self):
        with pytest.raises(ValueError):
            dilate(QuasiMonomialVal((ProjPoint(0),), weights=(1, 2)))


class TestCanonical:
    def test_m_adic(self):
        assert canonicalize(M_ADIC) == CanonicalForm((), Divisorial(Fraction(1)))

    def test_euclid_chain(self):
        form = canonicalize(monomial(1, Fraction(5, 2)))
        assert form.steps == (ProjPoint(0), ProjPoint(0), INF_POINT)
        assert form.terminal == Divisorial(Fraction(1, 2))

    def test_curve_folds_tail(self):
        assert canonicalize(monomial(1, INF)) == CanonicalForm(
            (), Curve(ProjPoint(0), Fraction(1))
        )

    def test_identity_criterion(self):
        # same valuation through a renaming frame: same canonical form
        rho = QuasiMonomialVal((), SWAP, (Fraction(2), Fraction(1)))
        assert canonicalize(rho) == canonicalize(monomial(1, 2))
        assert not equal_valuations(monomial(1, 2), monomial(1, 3))

    def test_round_trip(self):
        for s in range(30):
            nu = gen_qmv(DEFAULT_SEED + s)
            form = canonicalize(nu)
            assert canonicalize(from_canonical(form)) == form
            assert equal_valuations(from_canonical(form), nu)


    def test_curve_fold_invariant(self):
        """Every center folded into a curve's terminal re-states its direction.

        A curve terminal only ends a program that never dilated, so the folded
        centers are the program's own trailing ones.  Walking them back from
        the frame row of the infinite weight, each is 0 under direction 0 and
        inf under direction inf; legality guarantees it (a mismatched center
        would value both coordinates infinitely), so canonicalization does not
        check it.  Covers alternating 0/inf runs ending in an infinite weight
        under three frames, with and without a generic first center.
        """
        rng = random.Random(DEFAULT_SEED + 12)
        zero = ProjPoint(0)
        frames = (IDENTITY_FRAME, SWAP, LinearFrame(((1, 0), (1, 1))))
        folded = {0: 0, 1: 0}
        for n in range(1, 11):
            for _ in range(4):
                steps = alternating_chain(rng, n).steps
                if rng.random() < 0.5:
                    steps = (ProjPoint(Fraction(rng.randint(1, 5), rng.randint(1, 3))),) + steps
                gamma = Fraction(rng.randint(1, 9), rng.randint(1, 4))
                for frame in frames:
                    for weights in ((gamma, INF), (INF, gamma)):
                        try:
                            nu = QuasiMonomialVal(steps, frame, weights)
                        except ValueError:
                            continue
                        form = valuation._canonicalize_raw(nu)
                        kept = len(form.steps)
                        assert form.steps == steps[:kept]
                        p, q = frame.rows[0 if is_inf(weights[0]) else 1]
                        d = INF_POINT if q == 0 else ProjPoint(p / q)
                        for center in reversed(steps[kept:]):
                            assert d in (zero, INF_POINT) and center.is_inf == d.is_inf
                            folded[int(d.is_inf)] += 1
                            d = center.negate()
                        assert form.terminal == Curve(d, form.terminal.gamma)
                        rebuilt = from_canonical(form)
                        for phi in (X, Y, X + Y, poly_parse("y^2 - x^3 + x*y")):
                            assert evaluate(rebuilt, phi) == evaluate(nu, phi) == evaluate_naive(nu, phi)
        assert folded[0] > 10 and folded[1] > 10
        for steps, weights in (((INF_POINT,), (1, INF)), ((zero,), (INF, 1)), ((zero, INF_POINT), (1, INF))):
            with pytest.raises(ValueError, match="illegal program"):
                QuasiMonomialVal(steps, IDENTITY_FRAME, weights)


class TestMultiplicityStream:
    def test_euclid_fixture(self):
        rows = list(
            itertools.islice(multiplicity_stream(monomial(1, Fraction(5, 2))), 4)
        )
        assert rows == [
            (ProjPoint(0), Fraction(1)),
            (ProjPoint(0), Fraction(1)),
            (INF_POINT, Fraction(1, 2)),
            (TERMINAL, Fraction(1, 2)),
        ]
        assert dilatation_length(monomial(1, Fraction(5, 2))) == 4

    def test_m_adic_is_immediate(self):
        assert next(multiplicity_stream(M_ADIC)) == (TERMINAL, Fraction(1))
        assert dilatation_length(M_ADIC) == 1

    def test_curve_tail_repeats(self):
        rows = list(itertools.islice(multiplicity_stream(monomial(1, INF)), 5))
        assert rows == [(ProjPoint(0), Fraction(1))] * 5
        assert is_inf(dilatation_length(monomial(1, INF)))

    def test_multiplicities_never_increase(self):
        for s in range(25):
            nu = gen_qmv(DEFAULT_SEED + 100 + s)
            ms = [m for _, m in itertools.islice(multiplicity_stream(nu), 8)]
            assert all(a >= b for a, b in zip(ms, ms[1:]))
            assert ms[0] == 1


def fraction_polys(rng, n, max_deg=8):
    """n polynomials with Fraction coefficients and total degree at most max_deg."""
    out = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            r = rng.randint(0, max_deg)
            terms[(r, rng.randint(0, max_deg - r))] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        out.append(BivarPoly(terms))
    return out


def alternating_chain(rng, n):
    """A normalized program of n centers in alternating runs of 0 and inf."""
    steps, center = [], rng.choice((ProjPoint(0), INF_POINT))
    while len(steps) < n:
        steps += [center] * min(rng.randint(1, 3), n - len(steps))
        center = ProjPoint(0) if center.is_inf else INF_POINT
    return normalize(QuasiMonomialVal(tuple(steps), weights=(rng.randint(1, 5), rng.randint(1, 5))))


class TestLevelValues:
    """The per-level coordinate values of the chain layer against evaluation.

    Multiplicities, exceptional-form values and meets are read off the values
    ``(v(x_i), v(y_i))`` without substituting; here every one of them is
    checked against ``evaluate`` on the tail program rebuilt at that level.
    """

    def programs(self):
        rng = random.Random(DEFAULT_SEED)
        vals = [gen_qmv(DEFAULT_SEED + 400 + s) for s in range(80)]
        return vals + [alternating_chain(rng, n) for n in range(1, 13) for _ in range(3)]

    def check_level_zero(self, nu):
        assert level_values(nu)[0] == record_values(nu) == (evaluate(nu, X), evaluate(nu, Y))

    def check_walk(self, form):
        n = len(form.steps)
        for i, (center, m, e) in enumerate(itertools.islice(walk(form), n + 2)):
            if i <= n:
                tail = from_canonical(CanonicalForm(form.steps[i:], form.terminal))
            else:  # one level into a curve's eventually-constant tail
                curve = Curve(center.negate(), form.terminal.gamma)
                tail = from_canonical(CanonicalForm((), curve))
            self.check_level_zero(tail)
            assert m == m_value(tail) == min(evaluate(tail, X), evaluate(tail, Y))
            if center is TERMINAL:
                assert all(evaluate(tail, d.form()) == m
                           for d in itertools.islice(direction_enumeration(), 4))
                continue
            exc = center.negate()
            assert e == evaluate(tail, exc.form()) and e > m
            others = [d for d in itertools.islice(direction_enumeration(), 4) if d != exc]
            assert all(evaluate(tail, d.form()) == m for d in others)

    def test_programs_and_every_canonical_tail(self):
        for nu in self.programs():
            self.check_level_zero(nu)
            self.check_walk(canonicalize(nu))

    def test_head_exceptional_is_the_first_walk_direction(self):
        """The head's exceptional direction, read off the program, against the
        direction of the first center of its canonical walk, on normalized and
        rescaled programs, framed and curve ones included."""
        shear = LinearFrame(((1, 0), (1, 1)))
        programs = self.programs() + [gen_qmv(DEFAULT_SEED + 500 + s, max_depth=8) for s in range(40)]
        for nu in programs[:60]:
            for frame, k in ((SWAP, 3), (shear, Fraction(1, 2)), (LinearFrame(((2, -1), (1, 3))), 1)):
                try:
                    programs.append(QuasiMonomialVal(nu.steps, frame, tuple(scale(k, w) for w in nu.weights)))
                except ValueError:  # the new frame made a curve program illegal
                    pass
        programs += [
            QuasiMonomialVal((), frame, w)
            for frame in (IDENTITY_FRAME, SWAP, shear)
            for w in ((1, 1), (2, 2), (1, 2), (3, 1), (1, INF), (INF, Fraction(2, 5)))
        ]
        for nu in programs:
            _, levels = valuation._walk_numerators(valuation._canonicalize_raw(nu))
            assert valuation._head_exceptional(nu) == valuation._exceptional(next(levels)[0]), nu
            assert m_value(nu) == min(evaluate(nu, X), evaluate(nu, Y))

    def test_framed_programs_built_by_meet(self, monkeypatch):
        """meet's monomial case describes a framed program: the prefix, then
        the exceptional direction d on the row of the larger weight and a
        generic direction on the other.  It builds that program's canonical
        form from the weights alone (``_euclid_form``) and hands it to its
        result.  Each described program is built here: it is legal, its
        canonical form is the one meet built, and that form walks right;
        each result keeps the form ``canonicalize`` would build afresh."""
        calls = []
        euclid = valuation._euclid_form

        def recording(prefix, d, a, b, q):
            form = euclid(prefix, d, a, b, q)
            calls.append((tuple(prefix), d, a, b, q, form))
            return form

        monkeypatch.setattr(valuation, "_euclid_form", recording)
        vals = self.programs()
        rng = random.Random(DEFAULT_SEED + 1)
        pairs = list(zip(vals[:40], vals[40:80])) + list(zip(vals[80:], vals[81:]))
        pairs += [(nu, normalize(QuasiMonomialVal(nu.steps, weights=(1, rng.randint(2, 5)))))
                  for nu in vals[80:]]
        handed = []
        for nu, mu in pairs:
            w = meet.__wrapped__(nu, mu)
            assert m_value(w) == 1 == min(evaluate(w, X), evaluate(w, Y))
            if w is not nu and w is not mu and "_form" in vars(w):
                handed.append(w)
        monkeypatch.undo()
        forms = {id(w._form) for w in handed}
        calls = [call for call in calls if id(call[-1]) in forms]
        assert len(calls) == len(handed) >= 20
        for prefix, d, a, b, q, form in calls:
            x_dir = next(e for e in direction_enumeration() if e != d)
            rows = (x_dir.as_pair(), d.as_pair()) if a < b else (d.as_pair(), x_dir.as_pair())
            p = QuasiMonomialVal(prefix, LinearFrame(rows), (Fraction(a, q), Fraction(b, q)))
            self.check_level_zero(p)
            assert m_value(p) == 1
            assert valuation._build_canonical(p) == form
            self.check_walk(form)
        for w in handed:
            assert valuation._build_canonical(w) == w._form


class TestCachedHash:
    """Valuations and canonical forms hash their fields once."""

    def programs(self):
        return [gen_qmv(DEFAULT_SEED + 600 + s, max_depth=6) for s in range(30)] + [
            alternating_chain(random.Random(DEFAULT_SEED + 601), 12),
        ]

    def test_second_lookup_hashes_no_center(self, monkeypatch):
        calls = []
        original = ProjPoint.__hash__

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(ProjPoint, "__hash__", counting)
        nu = alternating_chain(random.Random(DEFAULT_SEED + 602), 9)
        mu = normalize(QuasiMonomialVal(nu.steps[:4], weights=(2, 7)))
        valuation._canonicalize_raw(nu)
        meet(nu, mu)
        assert calls  # the first lookups hash the steps
        del calls[:]
        valuation._canonicalize_raw(nu)
        meet(nu, mu)
        meet(nu, mu)
        assert calls == []

    def test_second_hash_of_a_point_or_frame_hashes_no_fraction(self, monkeypatch):
        calls = []
        original = Fraction.__hash__

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(Fraction, "__hash__", counting)
        point, frame = ProjPoint(Fraction(-3, 7)), LinearFrame(((2, -1), (1, 3)))
        first = (hash(point), hash(frame))
        assert calls  # the first hashes read the Fractions
        del calls[:]
        assert (hash(point), hash(frame)) == first
        assert calls == []
        assert first == (hash((point.value,)), hash((frame.rows,)))

    def test_equal_objects_built_apart_hash_equal(self):
        for nu in self.programs():
            twin = QuasiMonomialVal(tuple(ProjPoint(s.value) for s in nu.steps),
                                    LinearFrame(nu.frame.rows), tuple(nu.weights))
            assert twin is not nu and twin == nu
            assert hash(twin) == hash(nu) == hash((nu.steps, nu.frame, nu.weights))
            form = canonicalize(nu)
            form_twin = CanonicalForm(tuple(form.steps), form.terminal)
            assert hash(form) == hash(form_twin) == hash((form.steps, form.terminal))
            assert repr(twin) == repr(nu) and twin.__dict__.keys() >= {"_hash"}


class TestMemoPolicy:
    """What derives from one valuation is kept on it and freed with it; the
    pair cache of ``meet`` is the one module-level table."""

    @staticmethod
    def fresh_programs():
        """Programs built here, so that no table outside them holds them."""
        shear = LinearFrame(((1, 0), (1, 1)))
        for k in range(1, 301):
            steps = (ProjPoint(Fraction(k, 7)), INF_POINT, ProjPoint(0))[: k % 4]
            weights = (Fraction(k, 3), Fraction(k + 4, 5))
            if k % 5 == 0:  # a curve program
                steps, weights = (), (Fraction(k, 3), INF)
            yield normalize(QuasiMonomialVal(steps, shear if k % 2 else IDENTITY_FRAME, weights))

    def test_a_canonical_form_is_built_once_per_valuation(self, monkeypatch):
        calls = []
        build = valuation._build_canonical
        monkeypatch.setattr(valuation, "_build_canonical", lambda nu: calls.append(nu) or build(nu))
        nu = normalize(monomial(2, 7))
        form = canonicalize(nu)
        assert canonicalize(nu) is form and valuation._canonicalize_raw(nu) is form
        assert calls == [nu]
        twin = QuasiMonomialVal(nu.steps, nu.frame, nu.weights)
        assert canonicalize(twin) == form and len(calls) == 2
        assert repr(nu) == repr(twin) and hash(nu) == hash(twin)

    def test_canonical_forms_are_freed_with_their_valuations(self):
        refs = []
        for nu in self.fresh_programs():
            form = canonicalize(nu)
            refs.append((weakref.ref(nu), weakref.ref(form)))
        assert len(refs) == 300
        del nu, form
        gc.collect()
        assert [r for pair in refs for r in pair if r() is not None] == []

    def test_meet_holds_the_one_module_level_cache(self):
        """The scan valbench's ``cache_stats`` makes: every module attribute
        that has ``cache_info``, through ``__wrapped__``."""
        cached = set()
        for name, value in vars(valuation).items():
            while value is not None and not hasattr(value, "cache_info"):
                value = getattr(value, "__wrapped__", None)
            if value is not None:
                cached.add(name)
        assert cached == {"meet"}
