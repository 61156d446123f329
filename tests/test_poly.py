"""Sparse bivariate polynomials, linear frames, and weighted orders."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from valtree.poly import (
    BivarPoly,
    BothWeightsInfiniteError,
    IDENTITY_FRAME,
    LinearFrame,
    PolyParseError,
    divide_out_linear,
    frame_apply,
    poly_parse,
    weighted_order,
)
from valtree.rationals import INF, ZERO
from valtree.testkit import gen_poly

X = BivarPoly.var_x()
Y = BivarPoly.var_y()


def fractions(max_num=30, max_den=8):
    return st.builds(
        Fraction,
        st.integers(-max_num, max_num),
        st.integers(1, max_den),
    )


def polys(max_deg=5, max_terms=5):
    exps = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg))
    return st.builds(
        BivarPoly,
        st.dictionaries(exps, fractions(), max_size=max_terms),
    )


class TestArithmetic:
    def test_zero_identity(self):
        assert X + BivarPoly.zero() == X
        assert (X * BivarPoly.zero()).is_zero()

    @given(polys(), polys())
    def test_addition_commutes(self, p, q):
        assert p + q == q + p

    @given(polys(), polys(), polys())
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys(), polys())
    def test_product_degree(self, p, q):
        if not p.is_zero() and not q.is_zero():
            assert (p * q).total_degree() == p.total_degree() + q.total_degree()

    def test_cancellation_drops_terms(self):
        p = X + Y
        q = X - Y
        assert (p + q).terms == {(1, 0): Fraction(2)}


class TestParse:
    def test_examples(self):
        assert poly_parse("y") == Y
        assert poly_parse("x*y^2") == X * Y * Y
        assert poly_parse("x^2 - 2*x*y + y^2") == (X - Y) * (X - Y)
        assert poly_parse("3/2*x + 1") == X * Fraction(3, 2) + BivarPoly.constant(1)
        assert poly_parse("-x - -y") == Y - X

    def test_a_long_sum_is_parsed_whole(self):
        """Each term is added into one table: 20,000 terms parse at once."""
        n = 20_000
        want = BivarPoly({(i, i % 3): Fraction(1 if i % 2 else -2) for i in range(1, n + 1)})
        assert poly_parse(str(want)) == want

    @given(polys())
    def test_round_trip(self, p):
        assert poly_parse(str(p)) == p

    @pytest.mark.parametrize("bad", ["", "x +", "z", "x^-1", "x^1/2", "2 3", "x y"])
    def test_rejects(self, bad):
        with pytest.raises(PolyParseError):
            poly_parse(bad)


class TestWeightedOrder:
    def test_monomial_formula(self):
        assert weighted_order(X * Y * Y, Fraction(1), Fraction(3, 2)) == Fraction(4)

    def test_min_over_support(self):
        p = poly_parse("x^3 + x*y")
        assert weighted_order(p, Fraction(1), Fraction(5, 2)) == Fraction(3)

    def test_zero_polynomial_is_infinite(self):
        assert weighted_order(BivarPoly.zero(), Fraction(1), Fraction(2)) is INF

    def test_zero_times_inf_is_zero(self):
        # the exponent-0 variable contributes nothing even at infinite weight
        assert weighted_order(X, Fraction(1), INF) == Fraction(1)
        assert weighted_order(Y, INF, Fraction(2)) == Fraction(2)
        assert weighted_order(BivarPoly.constant(5), INF, Fraction(1)) == ZERO

    def test_both_infinite_rejected(self):
        with pytest.raises(BothWeightsInfiniteError):
            weighted_order(X, INF, INF)

    @given(polys(), polys(), fractions(6, 4), fractions(6, 4))
    def test_product_rule(self, p, q, a, b):
        g1, g2 = abs(a) + 1, abs(b) + 1
        lhs = weighted_order(p * q, g1, g2)
        r1, r2 = weighted_order(p, g1, g2), weighted_order(q, g1, g2)
        assert lhs == (INF if r1 is INF or r2 is INF else r1 + r2)


class TestFrames:
    def test_identity(self):
        assert IDENTITY_FRAME.is_identity()
        assert frame_apply(X * Y, IDENTITY_FRAME) == X * Y

    def test_inverse_round_trip(self):
        f = LinearFrame(((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1))))
        p = poly_parse("x^2 + 3*y")
        assert frame_apply(frame_apply(p, f), f.inverse()) == p

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            LinearFrame(((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))))

    def test_row_form(self):
        f = LinearFrame(((Fraction(1), Fraction(0)), (Fraction(-2), Fraction(1))))
        assert f.row_form(1) == Y - X - X


def expand(p, ex, ey):
    """p(ex, ey) term by term through the ring operations, summed one term at a time."""
    total = BivarPoly.zero()
    for (r, s), c in sorted(p.terms.items()):
        total = total + ex**r * ey**s * c
    return total


class TestSubstitute:
    def test_seeded_polynomials(self):
        rng = random.Random(0xC0FFEE + 1)
        images = [
            (X, Y),
            (Y, X),
            (X, X * Y + X * Fraction(2, 3)),  # a finite chart step
            (X * Y, Y),  # the chart at infinity
            (BivarPoly.linear_form(1, Fraction(-1, 2)), BivarPoly.linear_form(3, 1)),
            (X, X),  # x - y goes to zero
            (BivarPoly.zero(), Y + BivarPoly.constant(2)),
        ]
        for _ in range(4):
            images.append((gen_poly(rng.randrange(10**6), max_deg=3, max_terms=3),
                           gen_poly(rng.randrange(10**6), max_deg=3, max_terms=3)))
        polys = [gen_poly(seed, max_deg=6, max_terms=6) for seed in range(40)]
        polys += [poly_parse("x - y"), BivarPoly.zero(), BivarPoly.constant(Fraction(-3, 7)),
                  poly_parse("x^5*y^2 - 1/3*x*y^6 + 7/2")]
        for p in polys:
            for ex, ey in images:
                assert p.substitute(ex, ey) == expand(p, ex, ey)
        assert poly_parse("x - y").substitute(X, X).is_zero()

    def test_framed_programs(self):
        """The composed images of framed dilatation programs, step by step."""
        from valtree import valuation
        from valtree.testkit import gen_qmv

        frames = (LinearFrame(((0, 1), (1, 0))), LinearFrame(((1, 0), (1, 1))),
                  LinearFrame(((2, -1), (Fraction(1, 3), 3))))
        for seed in range(30):
            nu = gen_qmv(0xC0FFEE + seed, max_depth=6)
            frame = frames[seed % 3]
            ex, ey = X, Y
            for step in nu.steps:
                sx, sy = valuation._step_images(step)
                ex, ey = expand(ex, sx, sy), expand(ey, sx, sy)
            inv = frame.inverse()
            fx, fy = inv.row_form(0), inv.row_form(1)
            want = (expand(ex, fx, fy), expand(ey, fx, fy))
            got = (X, Y)
            for step in nu.steps:
                got = tuple(p.substitute(*valuation._step_images(step)) for p in got)
            assert tuple(p.substitute(fx, fy) for p in got) == want
            phi = gen_poly(seed, max_deg=4)
            assert frame_apply(phi, frame) == expand(phi, fx, fy)


class TestDivideOutLinear:
    def test_splits_power(self):
        gen = poly_parse("y - 2*x")
        phi = gen * gen * poly_parse("x + y")
        r, psi = divide_out_linear(phi, gen)
        assert r == 2
        assert psi == poly_parse("x + y")

    def test_coprime_unchanged(self):
        r, psi = divide_out_linear(X + Y, Y)
        assert (r, psi) == (0, X + Y)

    def test_seeded_factorizations(self):
        """phi = ell^r * psi exactly, with ell not dividing psi."""
        rng = random.Random(0xC0FFEE)
        for _ in range(60):
            a, b = rng.randint(-3, 3), rng.choice((0, 1, 2, Fraction(1, 3), -1))
            ell = BivarPoly.linear_form(a or 1, b)
            base = gen_poly(rng.randrange(10**6), max_deg=3, max_terms=4)
            k = rng.randint(0, 3)
            phi = ell**k * base
            r, psi = divide_out_linear(phi, ell)
            assert ell**r * psi == phi
            assert r >= k
            assert divide_out_linear(psi, ell)[0] == 0
