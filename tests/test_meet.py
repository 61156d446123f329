"""The infimum construction and the order it decides."""

from fractions import Fraction

import pytest

from valtree.poly import BivarPoly, poly_parse
from valtree.rationals import INF
from valtree.testkit import (
    DEFAULT_SEED,
    Counterexample,
    gen_qmv,
    gen_unit_pair,
    pair_form,
    sample_polys,
    sampling_leq_oracle,
)
from valtree.valuation import (
    Comparison,
    Divisorial,
    EmptySetError,
    INF_POINT,
    M_ADIC,
    ProjPoint,
    QuasiMonomialVal,
    canonicalize,
    common_minimizer,
    compare,
    equal_valuations,
    evaluate,
    from_canonical,
    homogeneous_witness,
    infimum,
    m_value,
    meet,
    monomial,
    normalize,
    residue_direction,
    sim_pairs,
    zariski_member,
    patch_member,
    weak_member,
    CanonicalForm,
)

X = BivarPoly.var_x()
Y = BivarPoly.var_y()


def chain_val(*centers):
    """Divisorial valuation with the given dilatation centers, weight 1."""
    steps = tuple(INF_POINT if c == "inf" else ProjPoint(Fraction(c)) for c in centers)
    return normalize(from_canonical(CanonicalForm(steps, Divisorial(Fraction(1)))))


class TestMeetFixtures:
    def test_transverse_monomials_drop_to_m_adic(self):
        assert equal_valuations(meet(monomial(1, 2), monomial(2, 1)), M_ADIC)

    def test_comparable_monomials_keep_the_smaller(self):
        assert equal_valuations(meet(monomial(1, 2), monomial(1, 3)), monomial(1, 2))

    def test_sibling_centers_meet_at_the_parent(self):
        assert equal_valuations(meet(chain_val(0, 1), chain_val(0, 2)), monomial(1, 2))

    def test_curve_against_divisorial(self):
        assert equal_valuations(meet(monomial(1, INF), monomial(1, 3)), monomial(1, 3))

    def test_deep_euclid_chains(self):
        got = meet(monomial(1, Fraction(5, 2)), monomial(1, Fraction(7, 3)))
        assert equal_valuations(got, monomial(1, Fraction(7, 3)))

    def test_meet_with_itself(self):
        nu = chain_val(1, "inf", 2)
        assert equal_valuations(meet(nu, nu), nu)


class TestMeetLaws:
    def seeded(self, n, base=0):
        return [gen_qmv(DEFAULT_SEED + base + s) for s in range(n)]

    def test_commutative(self):
        vs = self.seeded(12)
        for nu, mu in zip(vs, vs[1:]):
            assert equal_valuations(meet(nu, mu), meet(mu, nu))

    def test_associative(self):
        vs = self.seeded(12, base=50)
        for nu, mu, rho in zip(vs, vs[1:], vs[2:]):
            assert equal_valuations(
                meet(meet(nu, mu), rho), meet(nu, meet(mu, rho))
            )

    def test_idempotent(self):
        for nu in self.seeded(12, base=100):
            assert equal_valuations(meet(nu, nu), nu)

    def test_is_a_lower_bound_on_samples(self):
        polys = sample_polys(DEFAULT_SEED + 1, 30)
        for s in range(15):
            nu, mu = gen_qmv(2 * s + 1), gen_qmv(2 * s + 2)
            w = meet(nu, mu)
            for phi in polys:
                assert evaluate(w, phi) <= min(evaluate(nu, phi), evaluate(mu, phi))

    def test_m_adic_is_the_bottom(self):
        for nu in self.seeded(8, base=200):
            assert equal_valuations(meet(nu, M_ADIC), M_ADIC)


class TestCompare:
    def test_fixtures(self):
        assert compare(monomial(1, 2), monomial(1, 3)) is Comparison.LT
        assert compare(monomial(1, 3), monomial(1, 2)) is Comparison.GT
        assert compare(monomial(1, 2), monomial(1, 2)) is Comparison.EQ
        assert compare(monomial(1, 2), monomial(2, 1)) is Comparison.INCOMPARABLE

    def test_sampling_oracle_agrees(self):
        for s in range(20):
            nu, mu = gen_qmv(DEFAULT_SEED + 2 * s), gen_qmv(DEFAULT_SEED + 2 * s + 1)
            if compare(nu, mu) in (Comparison.LT, Comparison.EQ):
                hit = sampling_leq_oracle(nu, mu, seed=s)
                assert not isinstance(hit, Counterexample)

    def test_curve_dominates_its_stages(self):
        assert compare(monomial(1, 3), monomial(1, INF)) is Comparison.LT


class TestInfimum:
    def test_fold_matches_pairwise(self):
        vs = [gen_qmv(DEFAULT_SEED + 300 + s) for s in range(5)]
        folded = infimum(vs)
        assert equal_valuations(folded, meet(meet(meet(meet(vs[0], vs[1]), vs[2]), vs[3]), vs[4]))

    def test_empty_rejected(self):
        with pytest.raises(EmptySetError):
            infimum([])

    def test_singleton(self):
        nu = monomial(1, 7)
        assert equal_valuations(infimum([nu]), nu)


class TestCommonMinimizer:
    def test_avoids_both_exceptional_lines(self):
        nu = monomial(1, 2)
        mu = QuasiMonomialVal((ProjPoint(1),), weights=(Fraction(1), Fraction(1)))
        a, b = common_minimizer(nu, mu)
        form = X * a + Y * b
        assert evaluate(nu, form) == m_value(nu) == 1
        assert evaluate(mu, form) == m_value(mu) == 1

    def test_seeded_pairs(self):
        for s in range(30):
            nu, mu = gen_qmv(500 + 2 * s), gen_qmv(500 + 2 * s + 1)
            a, b = common_minimizer(nu, mu)
            form = X * a + Y * b
            assert evaluate(nu, form) == m_value(nu)
            assert evaluate(mu, form) == m_value(mu)


class TestResidueClasses:
    def test_homogeneous_witness(self):
        assert homogeneous_witness(M_ADIC) is None
        assert homogeneous_witness(monomial(1, 2)) == Y
        nu = QuasiMonomialVal((ProjPoint(1),), weights=(Fraction(1), Fraction(1)))
        assert evaluate(nu, homogeneous_witness(nu)) > 1

    def test_sim_is_an_equivalence_on_samples(self):
        pairs = [gen_unit_pair(s) for s in range(12)]
        for p in pairs:
            assert sim_pairs(p, p)
        for p in pairs:
            for q in pairs:
                assert sim_pairs(p, q) == sim_pairs(q, p)
                assert sim_pairs(p, q) == (
                    residue_direction(p) == residue_direction(q)
                )

    def test_class_governs_strict_value(self):
        # a unit pair is valued above 1 exactly when it restates the witness line
        nu = monomial(1, 2)
        one = BivarPoly.constant(1)
        assert evaluate(nu, pair_form((one, BivarPoly.zero()))) == 1
        assert evaluate(nu, pair_form((BivarPoly.zero(), one))) == 2
        two_lines = (one, one)
        assert evaluate(nu, pair_form(two_lines)) == 1


class TestMembership:
    def test_zariski_and_patch(self):
        nu = monomial(1, 2)
        assert zariski_member(nu, Y, X)
        assert patch_member(nu, Y, X)
        assert zariski_member(nu, X, X)
        assert not patch_member(nu, X, X)
        assert not zariski_member(nu, X, Y)

    def test_division_by_support_rejected(self):
        with pytest.raises(ValueError):
            zariski_member(monomial(1, INF), X, Y)

    def test_weak_membership(self):
        nu = monomial(1, 2)
        assert weak_member(nu, Y, 1, "gt")
        assert not weak_member(nu, Y, 2, "gt")
        assert weak_member(nu, X, 2, "lt")
        with pytest.raises(ValueError):
            weak_member(nu, X, 1, "between")


class TestMeetWork:
    def test_meet_and_compare_substitute_nothing(self, monkeypatch):
        """meet and compare read per-level values; they never expand images.

        Counted on inputs no other test uses, so no cache answers for them:
        the deep Euclid pairs (1, (k^2+1)/k) and (1, (k^2+1)/(k+1)), with
        chains of up to 69 steps, and a 12-level chain of alternating 0/inf
        runs against a sibling, a child and a reweighting of itself.
        """
        pairs = [
            (monomial(1, Fraction(k * k + 1, k)), monomial(1, Fraction(k * k + 1, k + 1)))
            for k in (2, 5, 13, 21, 35)
        ]
        runs = (0, 0, "inf", "inf", "inf", 0, "inf", 0, 0, "inf", "inf")
        alt = chain_val(*runs, 0)
        pairs += [
            (alt, chain_val(*runs, "inf")),
            (alt, chain_val(*runs, 0, 0)),
            (alt, normalize(QuasiMonomialVal(alt.steps, weights=(2, 3)))),
        ]
        calls = []
        substitute = BivarPoly.substitute

        def counting(self, ex, ey):
            calls.append(1)
            return substitute(self, ex, ey)

        monkeypatch.setattr(BivarPoly, "substitute", counting)
        for nu, mu in pairs:
            meet(nu, mu)
            compare(nu, mu)
        assert len(calls) == 0
