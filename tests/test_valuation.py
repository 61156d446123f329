"""Quasi-monomial valuations: evaluation, normalization, canonical forms."""

import gc
import importlib
import itertools
import math
import pkgutil
import random
import weakref
from fractions import Fraction

import pytest

from chain_helpers import level_values, record_values, walk
from valtree.poly import (
    MEMO_SIZE, BivarPoly, BothWeightsInfiniteError, IDENTITY_FRAME, LinearFrame, poly_parse,
)
from valtree.rationals import INF, format_rat, is_inf, scale
from valtree import valuation
from valtree.jsonio import valuation_from_json
from valtree.testkit import DEFAULT_SEED, gen_qmv, sample_polys
from valtree.valuation import (
    CanonicalForm,
    Curve,
    Divisorial,
    INF_POINT,
    M_ADIC,
    PreconditionViolatedError,
    ProjPoint,
    QuasiMonomialVal,
    TERMINAL,
    Terminal,
    ValueNumerators,
    ZERO_POINT,
    canonicalize,
    compare,
    dilatation_length,
    dilate,
    direction_enumeration,
    equal_valuations,
    evaluate,
    evaluate_naive,
    from_canonical,
    infimum,
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
        and ``str`` give what they gave when they read the value
        alone.  Points: parsed JSON centers, the centers, canonical chains,
        curve directions and frame-row centers of generated programs, the
        directions curvettes are drawn from, and random rationals."""
        rng = random.Random(DEFAULT_SEED + 31)
        spellings = ["0", "-0", "00", "0/5", "3", "-7/2", "6/4", " 5 ", "inf", "INF", str(10**40) + "/3"]
        points = list(valuation_from_json({"steps": [{"center": c} for c in spellings]}).steps)
        points += [ZERO_POINT, INF_POINT]
        programs = [gen_qmv(DEFAULT_SEED + 900 + s, max_depth=8) for s in range(60)]
        programs += [alternating_chain(rng, n) for n in range(1, 10)]
        for nu in programs:
            form = canonicalize(nu)
            points += nu.steps + form.steps + tuple(valuation._row_center(nu.frame, i) for i in (0, 1))
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
            assert str(p) == ("inf" if v is INF else format_rat(v))
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
            center = valuation._head_center(nu)
            if center is not None:
                d = center.negate()
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

    def test_record_holds_six_numbers_and_no_values(self):
        """``evaluate`` builds each value from the record's numerators and
        stores nothing, so the record is the same after any number of calls."""
        nu = QuasiMonomialVal(weights=(Fraction(3, 7), Fraction(5, 7)))
        record = (3, 5, 7, None, 3, 5)
        assert nu._lead == record
        for k in range(192):
            assert evaluate(nu, X**k * Y) == Fraction(3 * k + 5, 7)
        assert evaluate(nu, X**200 * Y) == Fraction(605, 7)
        assert nu._lead == record


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
            center = valuation._head_center(nu)
            if center is not None:
                d = center.negate()
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
        assert valuation._head_center(nu).negate().form() == ell
        sizes = self.count_charts(monkeypatch)
        assert evaluate(nu, ell) == evaluate_naive(nu, ell) > m_value(nu)
        assert sizes == [1]  # the chart at 2 takes y - 2x to the single term y
        for phi in (ell**2 + X**3, ell**3 + Y**4, ell**3 * X + Y**5 - X**6):
            del sizes[:]
            assert evaluate(nu, phi) > min(r + s for r, s in phi.terms) * m_value(nu)
            assert 1 <= len(sizes) <= len(nu.steps)
            assert max(sizes) <= 8

    def test_a_tie_reads_the_levels_once(self, monkeypatch):
        """A tie that reaches the strict transforms reads the program's levels
        with one call of ``_levels``; a unique least term reads none."""
        nu = QuasiMonomialVal(self.DEEP.steps, self.DEEP.frame, self.DEEP.weights)
        calls = []
        levels = valuation._levels
        monkeypatch.setattr(valuation, "_levels", lambda *a: calls.append(1) or levels(*a))
        ell = poly_parse("y - 2*x")  # the head's exceptional form
        assert evaluate(nu, ell) == evaluate_naive(nu, ell)
        assert calls == [1]
        for phi in (ell**2 + X**3, ell**3 + Y**4, ell**3 * X + Y**5 - X**6):
            del calls[:]
            assert evaluate(nu, phi) > min(r + s for r, s in phi.terms) * m_value(nu)
            assert calls == [1]
        del calls[:]
        assert evaluate(nu, X**3 * Y + Y**7) == 4 * m_value(nu)
        assert calls == []

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


class TestBinomialRow:
    """``_binomial_row`` builds the terms of ``(a*X + b*Y)^n`` by the
    recurrence on binomials; they equal those of ``math.comb``, and a zero
    entry gives a row of one term."""

    def test_rows_equal_those_of_math_comb(self):
        for a, b in itertools.product(range(-3, 4), repeat=2):
            if not (a or b):
                continue
            for n in range(41):
                terms = ((j, math.comb(n, j) * a ** (n - j) * b**j) for j in range(n + 1))
                assert valuation._binomial_row(a, b, n) == [(j, c) for j, c in terms if c], (a, b, n)

    def test_a_zero_entry_gives_one_term(self):
        row = valuation._binomial_row
        assert row(3, 0, 8000) == [(0, 3**8000)]
        assert row(0, -2, 8000) == [(8000, 2**8000)]
        assert row(-1, 0, 7) == [(0, -1)] and row(0, 1, 0) == [(0, 1)]


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
        levels = valuation._levels
        monkeypatch.setattr(valuation, "_levels", lambda *a: calls.append(1) or levels(*a))
        normalized = [normalize(nu) for nu in scaled]
        assert calls == []
        assert all(is_normalized(nu) for nu in normalized)


class TestPreconditionNames:
    """A valuation that is not normalized is refused by the function that was
    called, named in the message, whichever input it is: a memo's key cannot
    carry its caller, so each function checks its own inputs."""

    @pytest.mark.parametrize("name, call", [
        ("meet", lambda bad, good: meet(bad, good)),
        ("meet", lambda bad, good: meet(good, bad)),
        ("compare", lambda bad, good: compare(bad, good)),
        ("compare", lambda bad, good: compare(good, bad)),
        ("equal_valuations", lambda bad, good: equal_valuations(bad, good)),
        ("equal_valuations", lambda bad, good: equal_valuations(good, bad)),
        ("canonicalize", lambda bad, good: canonicalize(bad)),
        ("infimum", lambda bad, good: infimum([bad, good])),
        ("infimum", lambda bad, good: infimum([good, monomial(1, 3), bad])),
    ], ids=["meet-first", "meet-second", "compare-first", "compare-second", "equal-first",
            "equal-second", "canonicalize", "infimum-first", "infimum-later"])
    def test_the_message_names_the_function_called(self, name, call):
        bad, good = monomial(2, 3), monomial(1, 2)
        with pytest.raises(PreconditionViolatedError, match=f"^{name} requires a normalized valuation$"):
            call(bad, good)


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
        """The head's center, read off the program, against the first center
        of its canonical walk, whose ``negate()`` is the head's exceptional
        direction, on normalized and rescaled programs, framed and curve ones
        included."""
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
            center, _, _ = next(walk(valuation._canonicalize_raw(nu)))
            assert valuation._head_center(nu) == (None if center is TERMINAL else center), nu
            assert m_value(nu) == min(evaluate(nu, X), evaluate(nu, Y))

    def test_framed_programs_built_by_meet(self, monkeypatch):
        """meet's monomial case describes a framed program: the prefix, then
        the exceptional direction on the row of the larger weight and a
        generic direction on the other.  It builds that program's canonical
        form from the weights alone, handing ``_euclid_form`` the level's
        center, and hands the form to its result.  Each described program is
        built here, its exceptional direction the ``negate()`` of the
        recorded center: it is legal, its canonical form is the one meet
        built, and that form walks right; each result keeps the form
        ``canonicalize`` would build afresh.

        meet records only the centers 0 and infinity, which ``negate()``
        fixes: where two normalized chains' multiplicities first differ, the
        smaller side's center is never finite and nonzero.  At such a center
        ``v(x_k) = v(y_k) = m_k``, and every chart gives the level before
        the multiplicity ``v(x_k)`` (or ``v(y_k)``) on that side but at least
        the larger ``m'_k`` on the other, so the two would differ a level
        earlier.  The siblings that part at a finite nonzero center check
        that; and each described program is built again with finite nonzero
        centers in the recorded one's place, whose canonical form must read
        that center, not its direction, after the prefix."""
        calls = []
        euclid = valuation._euclid_form

        def recording(prefix, center, a, b, q):
            form = euclid(prefix, center, a, b, q)
            calls.append((tuple(prefix), center, a, b, q, form))
            return form

        monkeypatch.setattr(valuation, "_euclid_form", recording)
        built = []
        monomial_meet = valuation._monomial_meet
        monkeypatch.setattr(valuation, "_monomial_meet", lambda *a: built.append(monomial_meet(*a)) or built[-1])
        vals = self.programs()
        rng = random.Random(DEFAULT_SEED + 1)
        pairs = list(zip(vals[:40], vals[40:80])) + list(zip(vals[80:], vals[81:]))
        pairs += [(nu, normalize(QuasiMonomialVal(nu.steps, weights=(1, rng.randint(2, 5)))))
                  for nu in vals[80:]]
        # siblings that part from each program at a random level, where the
        # monomial case builds a valuation below both
        for nu in vals:
            steps = canonicalize(nu).steps
            for _ in range(3):
                sibling = steps[: rng.randint(0, len(steps))] + (ProjPoint(Fraction(rng.randint(1, 9), 7)),)
                gamma = Fraction(1, rng.randint(2, 5))
                pairs.append((nu, normalize(from_canonical(CanonicalForm(sibling, Divisorial(gamma))))))
        # siblings that part at a finite nonzero center and go on below it;
        # where the multiplicities first differ, the smaller side's center is
        # still 0 or infinity
        for nu in vals:
            steps = canonicalize(nu).steps
            for tail in ((), (ZERO_POINT,), (INF_POINT, ZERO_POINT), (ProjPoint(3),)):
                cut = rng.randint(0, len(steps))
                sibling = steps[:cut] + (ProjPoint(Fraction(-rng.randint(1, 9), 5)),) + tail
                gamma = Fraction(rng.randint(1, 3), rng.randint(2, 7))
                pairs.append((nu, normalize(from_canonical(CanonicalForm(sibling, Divisorial(gamma))))))
        handed = []
        for nu, mu in pairs:
            for first, second in ((nu, mu), (mu, nu)):
                w = valuation._walk.__wrapped__(first, second)[0]
                assert m_value(w) == 1 == min(evaluate(w, X), evaluate(w, Y))
                # a result the monomial case built, not an input it handed back
                if w is not first and w is not second and built and w is built[-1]:
                    assert "_form" in vars(w)
                    handed.append(w)
        monkeypatch.undo()
        assert {call[1] for call in calls} <= {ZERO_POINT, INF_POINT}
        forms = {id(w._form) for w in handed}
        calls = [call for call in calls if id(call[-1]) in forms]
        assert len(calls) == len(handed) >= 20
        free = (ProjPoint(Fraction(2, 7)), ProjPoint(-3))
        for prefix, center, a, b, q, form in calls:
            for c in (center,) + free:
                d = c.negate()
                x_dir = next(e for e in direction_enumeration() if e != d)
                rows = (x_dir.as_pair(), d.as_pair()) if a < b else (d.as_pair(), x_dir.as_pair())
                p = QuasiMonomialVal(prefix, LinearFrame(rows), (Fraction(a, q), Fraction(b, q)))
                self.check_level_zero(p)
                got = valuation._build_canonical(p)
                if c is center:
                    assert m_value(p) == 1
                    assert got == form
                assert got.steps[len(prefix)] == c and got == valuation._euclid_form(prefix, c, a, b, q)
                self.check_walk(got)
                rebuilt = from_canonical(got)
                assert all(evaluate(rebuilt, phi) == evaluate(p, phi) for phi in (X, Y, d.form(), x_dir.form()))
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
            _, _, q, _, n1, n2 = nu._lead
            assert hash(twin) == hash(nu) == hash((nu.steps, nu.frame, q, n1, n2))
            form = canonicalize(nu)
            form_twin = CanonicalForm(tuple(form.steps), form.terminal)
            assert hash(form) == hash(form_twin) == hash((form.steps, form.terminal))
            assert repr(twin) == repr(nu) and twin.__dict__.keys() >= {"_hash"}


class TestMemoPolicy:
    """What derives from one valuation is kept on it and freed with it; the
    pair cache of ``_walk``, which ``meet`` and ``compare`` read, is the one
    module-level table of ``valuation``."""

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
        """The scan valbench's ``cache_stats`` makes, over every ``valtree.*``
        module: every module attribute that has ``cache_info``, through
        ``__wrapped__``.  The package keeps three module-level memos: the
        walk that meet and compare read, which keeps only its last pair, and
        the two spelling memos of the document reader, bounded by
        ``MEMO_SIZE``."""
        import valtree

        cached = {}
        for info in pkgutil.iter_modules(valtree.__path__, "valtree."):
            for value in vars(importlib.import_module(info.name)).values():
                while value is not None and not hasattr(value, "cache_info"):
                    value = getattr(value, "__wrapped__", None)
                if value is not None:
                    cached[f"{value.__module__}.{value.__qualname__}"] = value
        assert cached.keys() == {
            "valtree.valuation._walk", "valtree.jsonio._center_from", "valtree.jsonio._weight_from",
        }
        assert {name: memo.cache_info().maxsize for name, memo in cached.items()} == {
            "valtree.valuation._walk": 1,
            "valtree.jsonio._center_from": MEMO_SIZE,
            "valtree.jsonio._weight_from": MEMO_SIZE,
        }

    @pytest.mark.parametrize("word", ["LT", "INCOMPARABLE"])
    def test_one_later_walk_frees_a_long_pair_and_its_meet(self, word):
        """The walk's memo holds one pair: after one walk of another pair, a
        pair of chains of about 10^5 steps, their meet and its canonical form
        are freed.  The weights (1, 10^5) and (1, 10^5 + 1/2) meet at the
        first; two chains that part after 10^5 centers 0 meet at a built
        divisorial of 10^5 steps."""
        if word == "LT":
            nu, mu = (normalize(monomial(1, 10**5 + h)) for h in (0, Fraction(1, 2)))
        else:
            nu, mu = (
                normalize(from_canonical(CanonicalForm((ZERO_POINT,) * 10**5 + (ProjPoint(c),), Divisorial(1))))
                for c in (1, 2)
            )
        w = meet(nu, mu)
        assert compare(nu, mu).value == word and len(canonicalize(w).steps) >= 10**5 - 1
        refs = [weakref.ref(v) for v in (nu, mu, w, canonicalize(w))]
        del nu, mu, w
        gc.collect()
        assert all(r() is not None for r in refs)  # the memo holds the last walk
        meet(normalize(monomial(1, Fraction(7, 3))), normalize(monomial(1, Fraction(5, 3))))
        gc.collect()
        assert [r for r in refs if r() is not None] == []

    def test_meet_cache_frees_pairs_past_its_bound(self):
        """Past ``MEMO_SIZE`` later meets, a pair's valuations and its meet
        are no longer held by the cache."""
        nu, mu = monomial(1, Fraction(7, 3)), monomial(1, Fraction(5, 3))
        refs = [weakref.ref(v) for v in (nu, mu, meet(nu, mu))]
        del nu, mu
        base = monomial(1, Fraction(5, 3))
        for i in range(MEMO_SIZE):
            meet(monomial(1, 3 + Fraction(i + 1, 1000)), base)
        gc.collect()
        assert [r for r in refs if r() is not None] == []
