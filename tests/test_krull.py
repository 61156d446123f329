"""Rank-2 refinements of curve valuations."""

from fractions import Fraction

import pytest

from valtree.krull import (
    KrullRank2,
    KrullSameRank1,
    Rank2Val,
    krull_lift,
    rank1_section,
    rank2_eval,
)
from valtree.poly import (
    BivarPoly,
    IDENTITY_FRAME,
    LinearFrame,
    divide_out_linear,
    frame_apply,
    poly_parse,
)
from valtree.rationals import INF, is_inf
from valtree.testkit import sample_polys
from valtree.valuation import (
    canonicalize,
    Curve,
    CanonicalForm,
    INF_POINT,
    ProjPoint,
    UnsupportedDeepCurveError,
    equal_valuations,
    evaluate,
    from_canonical,
    monomial,
    normalize,
)

X = BivarPoly.var_x()
Y = BivarPoly.var_y()


class TestLift:
    def test_support_free_valuation_is_unchanged(self):
        result = krull_lift(monomial(1, 1))
        assert isinstance(result, KrullSameRank1)
        assert equal_valuations(result.valuation, monomial(1, 1))

    def test_y_curve(self):
        result = krull_lift(monomial(1, INF))
        assert isinstance(result, KrullRank2)
        assert result.support_generator == Y
        rho = result.val
        assert rank2_eval(rho, X) == (0, Fraction(1))
        assert rank2_eval(rho, Y) == (1, Fraction(0))
        assert rank2_eval(rho, poly_parse("x*y^2")) == (2, Fraction(1))

    def test_x_curve(self):
        result = krull_lift(monomial(INF, 1))
        assert isinstance(result, KrullRank2)
        assert result.support_generator == X
        assert rank2_eval(result.val, X) == (1, Fraction(0))
        assert rank2_eval(result.val, Y) == (0, Fraction(1))

    def test_slanted_curve(self):
        curve = normalize(
            from_canonical(CanonicalForm((), Curve(ProjPoint(2), Fraction(1))))
        )
        result = krull_lift(curve)
        assert isinstance(result, KrullRank2)
        gen = result.support_generator
        assert rank2_eval(result.val, gen)[0] == 1
        # squaring the generator doubles the first component only
        assert rank2_eval(result.val, gen * gen) == (2, Fraction(0))

    def test_deep_curve_rejected(self):
        curve = normalize(
            from_canonical(
                CanonicalForm((ProjPoint(1),), Curve(ProjPoint(2), Fraction(1)))
            )
        )
        with pytest.raises(UnsupportedDeepCurveError):
            krull_lift(curve)

    def test_axis_tail_behind_a_step_is_level_zero(self):
        # a trailing axis direction folds into the step: the curve is linear
        folded = canonicalize(
            from_canonical(
                CanonicalForm((ProjPoint(1),), Curve(ProjPoint(0), Fraction(1)))
            )
        )
        assert folded.steps == ()
        result = krull_lift(normalize(from_canonical(folded)))
        assert isinstance(result, KrullRank2)
        assert result.support_generator == Y - X

    def test_lift_agrees_with_divide_then_evaluate(self):
        """rho(phi) = (r, nu(psi)) for phi = gen^r * psi, on x, y and samples."""
        curves = [monomial(1, INF), monomial(INF, 1)] + [
            normalize(from_canonical(CanonicalForm((), Curve(ProjPoint(d), Fraction(g)))))
            for d, g in ((2, 1), (Fraction(-1, 3), Fraction(5, 2)), (1, Fraction(2, 7)))
        ]
        polys = [X, Y] + [p for p in sample_polys(11, 30) if not p.is_zero()]
        for nu in curves:
            result = krull_lift(nu)
            assert isinstance(result, KrullRank2)
            for phi in polys:
                r, psi = divide_out_linear(phi, result.support_generator)
                assert rank2_eval(result.val, phi) == (r, evaluate(nu, psi))

    # (a normalized curve, its direction, the frame's second row, and which
    # coordinate is its generator: 0 for the first, 1 for the second)
    KINDS = [
        (monomial(INF, 1), INF_POINT, (0, 1), 0),
        (monomial(1, INF), ProjPoint(0), (0, 1), 1),
    ] + [
        (
            normalize(from_canonical(CanonicalForm((), Curve(ProjPoint(d), Fraction(5, 2))))),
            ProjPoint(d),
            (d.numerator, d.denominator),
            1,
        )
        for d in (Fraction(2), Fraction(-1, 3), Fraction(1, 3))
    ]

    @pytest.mark.parametrize("nu, direction, row, at", KINDS, ids=["inf", "0", "2", "-1over3", "1over3"])
    def test_lift_is_two_coordinate_values(self, nu, direction, row, at):
        """The generator's coordinate gets (1, 0), the other one (0, nu(x)),
        or (0, nu(y)) at infinity, where the generator is x."""
        result = krull_lift(nu)
        assert isinstance(result, KrullRank2)
        rho, gen = result.val, result.support_generator
        assert gen == direction.form()
        assert rho.frame.rows == ((1, 0), row) and rho.frame.row_form(at) == gen
        values = (rho.wx, rho.wy)
        assert values[at] == (1, Fraction(0))
        other = evaluate(nu, Y if direction.is_inf else X)
        assert values[1 - at] == (0, other) == (0, Fraction(1))
        assert rank2_eval(rho, gen) == (1, Fraction(0))

    def test_lift_substitutes_nothing(self, monkeypatch):
        calls = []
        substitute = BivarPoly.substitute

        def counting(self, ex, ey):
            calls.append(1)
            return substitute(self, ex, ey)

        monkeypatch.setattr(BivarPoly, "substitute", counting)
        for nu, *_ in self.KINDS:
            krull_lift(nu)
        assert len(calls) == 0

    def test_zero_goes_to_infinity(self):
        result = krull_lift(monomial(1, INF))
        assert is_inf(rank2_eval(result.val, BivarPoly.zero()))


class TestRank2Evaluation:
    def test_lex_minimum_over_support(self):
        rho = Rank2Val((1, Fraction(0)), (1, Fraction(1)))
        # both monomials hit first component 1; the second breaks the tie
        assert rank2_eval(rho, X + Y) == (1, Fraction(0))
        assert rank2_eval(rho, poly_parse("x*y + y^2")) == (2, Fraction(1))

    def test_matches_direct_recomputation(self):
        rho = Rank2Val((1, Fraction(0)), (1, Fraction(1)))
        for phi in sample_polys(99, 20):
            if phi.is_zero():
                continue
            expect = min((r + s, s * Fraction(1)) for r, s in phi.terms)
            assert rank2_eval(rho, phi) == expect

    def test_additive_on_products(self):
        result = krull_lift(monomial(1, INF))
        polys = [p for p in sample_polys(7, 12) if not p.is_zero()]
        for p, q in zip(polys, polys[1:]):
            a, b = rank2_eval(result.val, p), rank2_eval(result.val, q)
            assert rank2_eval(result.val, p * q) == (a[0] + b[0], a[1] + b[1])


class TestSection:
    def test_round_trip_through_the_lift(self):
        nu = monomial(1, INF)
        result = krull_lift(nu)
        back = rank1_section(result.val)
        assert back is not None
        assert equal_valuations(normalize(back), nu)

    def test_no_section_when_both_components_positive(self):
        rho = Rank2Val((1, Fraction(0)), (1, Fraction(1)))
        assert rank1_section(rho) is None

    def test_identity_frame_default(self):
        rho = Rank2Val((0, Fraction(1)), (1, Fraction(0)))
        assert rho.frame == IDENTITY_FRAME
        section = rank1_section(rho)
        assert section is not None
        assert equal_valuations(normalize(section), monomial(1, INF))


def _reference_rank2(rho, phi):
    """``rank2_eval`` the Fraction way: ``frame_apply``, then the lex-min."""
    psi = frame_apply(phi, rho.frame)
    if psi.is_zero():
        return INF
    (x0, x1), (y0, y1) = rho.wx, rho.wy
    return min((r * x0 + s * y0, r * x1 + s * y1) for r, s in psi.terms)


class TestIntegerSupport:
    """``rank2_eval`` reads the support through the integer frame change and
    takes the lex-min on numerators; these compare it with the reference."""

    POLYS = sample_polys(2024, 60) + [
        BivarPoly.zero(),
        BivarPoly({(1, 0): Fraction(1, 2), (0, 2): Fraction(-3, 4), (2, 1): Fraction(5, 6)}),
        BivarPoly({(0, 0): Fraction(2, 3), (3, 0): Fraction(1, 9)}),
    ]

    def _check(self, rho):
        for phi in self.POLYS:
            got, want = rank2_eval(rho, phi), _reference_rank2(rho, phi)
            assert got == want, (rho, phi)
            if not is_inf(want):
                assert type(got[0]) is int and type(got[1]) is Fraction

    def test_identity_frame(self):
        for wx, wy in (
            ((1, Fraction(0)), (1, Fraction(1))),
            ((0, Fraction(1, 3)), (1, Fraction(5, 2))),
            ((2, Fraction(-7, 4)), (0, Fraction(3, 10))),
        ):
            self._check(Rank2Val(wx, wy))

    def test_frames_of_lifted_curves(self):
        directions = [ProjPoint(d) for d in (0, 1, -2, Fraction(1, 3), Fraction(-5, 2))]
        curves = [monomial(1, INF), monomial(INF, 1)] + [
            normalize(from_canonical(CanonicalForm((), Curve(d, Fraction(3, 2)))))
            for d in directions
        ]
        frames = set()
        for nu in curves:
            result = krull_lift(nu)
            assert isinstance(result, KrullRank2)
            frames.add(result.val.frame)
            self._check(result.val)
        # direction 0 and the axis curves lift under the identity frame
        assert IDENTITY_FRAME in frames and len(frames - {IDENTITY_FRAME}) == 4

    def test_rational_frames(self):
        for rows in (
            ((1, 0), (1, 2)),
            ((0, 1), (1, 0)),
            ((Fraction(1, 2), Fraction(1, 3)), (1, Fraction(-2, 5))),
        ):
            rho = Rank2Val((1, Fraction(1, 2)), (0, Fraction(2, 3)), LinearFrame(rows))
            self._check(rho)
