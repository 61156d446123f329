"""Seeded generators and independent oracles."""

import itertools
from fractions import Fraction

import pytest

from valtree.poly import BivarPoly
from valtree.rationals import INF, is_inf
from valtree.testkit import (
    DEFAULT_SEED,
    ConsistentWithLeq,
    Counterexample,
    brute_meet_oracle,
    curvette,
    euclid_multiplicity_oracle,
    gen_poly,
    gen_qmv,
    gen_tree,
    gen_unit_pair,
    pair_form,
    sample_polys,
    sampling_leq_oracle,
)
from valtree.tree import t_leq, t_meet
from valtree.valuation import (
    Curve,
    CanonicalForm,
    INF_POINT,
    ProjPoint,
    canonicalize,
    dilatation_length,
    evaluate,
    from_canonical,
    is_normalized,
    m_value,
    monomial,
    multiplicity_stream,
    normalize,
)

X = BivarPoly.var_x()
Y = BivarPoly.var_y()


class TestGenerators:
    def test_deterministic(self):
        assert gen_poly(5) == gen_poly(5)
        assert gen_qmv(5) == gen_qmv(5)
        assert gen_tree(5).edges == gen_tree(5).edges
        assert gen_unit_pair(5) == gen_unit_pair(5)

    def test_sample_polys_stream(self):
        batch = sample_polys(DEFAULT_SEED, 10)
        assert len(batch) == 10
        assert batch[0] == gen_poly(DEFAULT_SEED) or len(set(map(str, batch))) > 1

    def test_qmv_outputs_are_normalized(self):
        for s in range(60):
            assert is_normalized(gen_qmv(s))

    def test_qmv_respects_depth_bound(self):
        for s in range(60):
            lam = dilatation_length(gen_qmv(s, max_depth=4))
            if not is_inf(lam):
                assert lam <= 4 + 4 + 1

    def test_tail_weights_match_the_fraction_formula(self, monkeypatch):
        """``_tail_weights`` draws integers, takes the Euclid length from
        unreduced numerators and makes Fractions of the accepted pair only;
        the reference below draws Fractions with the plain calls and reduces
        w1/w2 first, as the quotients allow."""
        from valtree import testkit

        def fraction_tail_weights(rng, denom_bound, cap):
            while True:
                den = rng.randint(1, denom_bound)
                w1 = Fraction(rng.randint(1, 6 * den), den)
                den = rng.randint(1, denom_bound)
                w2 = Fraction(rng.randint(1, 6 * den), den)
                p, q = (w1 / w2).as_integer_ratio()
                length = 0
                while q:
                    length += p // q
                    p, q = q, p % q
                if length <= cap:
                    return w1, w2

        bounds = ((4, 10), (2, 12))
        got = [[gen_qmv(s, d, b) for s in range(2000)] for d, b in bounds]
        monkeypatch.setattr(testkit, "_tail_weights", fraction_tail_weights)
        assert got == [[gen_qmv(s, d, b) for s in range(2000)] for d, b in bounds]

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            gen_poly(1, max_terms=0)
        with pytest.raises(ValueError):
            gen_qmv(1, max_depth=-1)


class TestEuclidOracle:
    def test_fixtures(self):
        assert euclid_multiplicity_oracle(1, 1) == []
        assert euclid_multiplicity_oracle(1, 2) == [Fraction(1)]
        assert euclid_multiplicity_oracle(2, 3) == [Fraction(2), Fraction(1)]
        assert euclid_multiplicity_oracle(1, Fraction(5, 2)) == [
            Fraction(1),
            Fraction(1),
            Fraction(1, 2),
        ]

    def test_matches_the_stream(self):
        import random

        rng = random.Random(DEFAULT_SEED)
        for _ in range(40):
            g1 = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            g2 = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            oracle = euclid_multiplicity_oracle(g1, g2)
            nu = monomial(g1, g2)
            rows = list(itertools.islice(multiplicity_stream(nu), len(oracle)))
            assert [m for _, m in rows] == oracle


class TestCurvette:
    def test_level_zero_is_the_linear_form(self):
        assert curvette((), ProjPoint(-2)) == Y - X - X
        assert curvette((), INF_POINT) == X
        assert curvette((), ProjPoint(0)) == Y

    def test_blown_down_fixture(self):
        phi = curvette((ProjPoint(0),), ProjPoint(1))
        nu = normalize(
            from_canonical(
                CanonicalForm((ProjPoint(0),), Curve(ProjPoint(1), Fraction(1)))
            )
        )
        assert is_inf(evaluate(nu, phi))

    def test_matching_curve_values_it_infinitely(self):
        for s in range(25):
            nu = gen_qmv(3000 + s)
            form = canonicalize(nu)
            if not isinstance(form.terminal, Curve):
                continue
            phi = curvette(form.steps, form.terminal.direction)
            assert is_inf(evaluate(nu, phi))

    def test_other_valuations_stay_finite(self):
        phi = curvette((ProjPoint(0),), ProjPoint(1))
        assert not is_inf(evaluate(monomial(1, 2), phi))

    def test_primitive_integer_coefficients(self):
        import math

        phi = curvette((ProjPoint(Fraction(2, 3)), ProjPoint(Fraction(-1, 2))), ProjPoint(5))
        nums = [c for c in phi.terms.values()]
        assert all(c == int(c) for c in nums)
        assert math.gcd(*(int(c) for c in nums)) == 1


class TestSamplingOracle:
    def test_finds_the_separating_probe(self):
        hit = sampling_leq_oracle(monomial(1, 3), monomial(1, 2))
        assert isinstance(hit, Counterexample)
        assert evaluate(monomial(1, 3), hit.phi) > evaluate(monomial(1, 2), hit.phi)

    def test_true_order_passes(self):
        hit = sampling_leq_oracle(monomial(1, 1), monomial(1, 2))
        assert isinstance(hit, ConsistentWithLeq)


class TestTreeOracle:
    def test_brute_meet_matches(self):
        t = gen_tree(7, max_nodes=10)
        pts = t.grid_points(2)
        for p in pts[:6]:
            for q in pts[:6]:
                assert brute_meet_oracle(t, p, q) == t_meet(p, q)

    def test_root_lies_below_every_point(self):
        """The oracle's search starts at the root, a lower bound of any pair."""
        for s in range(20):
            t = gen_tree(s, max_nodes=12)
            root = t.root_point()
            assert all(t_leq(root, p) for p in t.grid_points(3))


class TestUnitPairs:
    def test_not_both_zero(self):
        for s in range(30):
            a, b = gen_unit_pair(s)
            assert not (a.is_zero() and b.is_zero())
            for p in (a, b):
                if not p.is_zero():
                    assert p.constant_term() != 0

    def test_pair_form(self):
        one = BivarPoly.constant(1)
        assert pair_form((one, one)) == X + Y


def _reference_poly(rng, max_deg, max_terms, coeff_bound):
    """The generator as written with the plain ``random.Random`` calls."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        r = rng.randint(0, max_deg)
        s = rng.randint(0, max_deg - r)
        c = rng.randint(1, coeff_bound) * rng.choice((1, -1))
        terms[(r, s)] = Fraction(c)
    return BivarPoly(terms)


# n = 1 (max_deg 0, max_terms 1, coeff_bound 1), powers of two (4, 8, 64)
# and other widths, with coefficients inside and beyond the shared table
BOUNDS = [
    (0, 1, 1), (1, 1, 2), (3, 3, 5), (3, 4, 8), (4, 5, 9), (4, 5, 10),
    (7, 8, 64), (8, 16, 65), (2, 2, 200), (5, 7, 3), (15, 2, 1),
]


class TestDrawStreams:
    """testkit draws through ``getrandbits``; its streams must be exactly
    those of ``randint`` and ``choice``."""

    def test_randint_matches_random(self):
        import random

        from valtree.testkit import _randint

        for seed in range(200):
            a, b = random.Random(seed), random.Random(seed)
            for lo, hi in ((0, 0), (1, 1), (0, 1), (1, 2), (0, 3), (1, 4), (-3, 3),
                           (1, 8), (1, 10), (0, 63), (5, 69), (1, 1000)):
                assert _randint(b.getrandbits, lo, hi) == a.randint(lo, hi)
            assert a.getstate() == b.getstate()
        with pytest.raises(ValueError):
            _randint(random.Random(0).getrandbits, 2, 1)

    def test_polynomials_match_the_plain_calls(self):
        import random

        from valtree.testkit import _poly_from_rng

        for seed in range(200):
            for bounds in BOUNDS:
                a, b = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    want = _reference_poly(a, *bounds)
                    got = _poly_from_rng(b, *bounds)
                    assert got == want
                    assert list(got.terms.items()) == list(want.terms.items())
                assert a.getstate() == b.getstate()

    def test_rationals_match_the_plain_calls(self):
        import random

        from valtree.testkit import _rat_from_rng

        for seed in range(200):
            a, b = random.Random(seed), random.Random(seed)
            for denom_bound, lo, hi in ((1, 1, 6), (4, 1, 3), (10, 1, 6), (16, 2, 9)):
                den = a.randint(1, denom_bound)
                want = Fraction(a.randint(lo, hi * den), den)
                assert _rat_from_rng(b, denom_bound, lo, hi) == want
            assert a.getstate() == b.getstate()

    def test_generated_polynomials_are_valid(self):
        """Trusted construction skips validation: every polynomial must equal
        the validated one, term for term and in order."""
        polys = [gen_poly(s, *bounds) for s in range(40) for bounds in BOUNDS]
        polys += sample_polys(DEFAULT_SEED, 300, max_deg=3, max_terms=3, coeff_bound=5)
        for p in polys:
            checked = BivarPoly(dict(p.terms))
            assert p == checked and hash(p) == hash(checked)
            assert list(p.terms.items()) == list(checked.terms.items())
            assert all(type(c) is Fraction and c for c in p.terms.values())
            assert all(type(r) is int and type(s) is int for r, s in p.terms)

    def test_bad_bounds_rejected_by_every_generator(self):
        for bounds in ((-1, 1, 1), (1, 0, 1), (1, 1, 0)):
            with pytest.raises(ValueError):
                gen_poly(1, *bounds)
            with pytest.raises(ValueError):
                sample_polys(1, 1, *bounds)
