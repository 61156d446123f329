"""Rooted trees, tangent classes, the parametrization metric, and infima."""

import itertools
import random
from fractions import Fraction

import pytest

import axiom_reference
from valtree import tree as tree_module
from valtree.rationals import INF, ONE, is_inf
from valtree.testkit import DEFAULT_SEED, brute_meet_oracle, gen_tree
from valtree.tree import (
    AxiomReport,
    BallReport,
    BasePointEqualsRepError,
    EmptySetError,
    FI_X,
    FI_Y,
    ForeignPointError,
    ForkedIntervalPoset,
    MemberMissingError,
    PathParam,
    RootedTree,
    TangentRef,
    TooFewBranchesError,
    TreePoint,
    ball_in_subbasic_check,
    build_star,
    chain_infimum,
    class_member,
    fi_axiom_report,
    fi_infimum,
    fi_no_infimum_schedule,
    fi_seg,
    monomial_segment_psi,
    star_witness,
    t_dpsi,
    t_inf_set,
    t_leq,
    t_meet,
    t_segment_member,
    t_tangent_equiv,
    t_tangent_equiv_definitional,
    tree_axiom_report,
)
from valtree.valuation import M_ADIC, Comparison, compare, equal_valuations, meet, monomial


@pytest.fixture
def tree():
    return RootedTree(
        {(0,): Fraction(3, 2), (0, 0): ONE, (0, 1): INF, (1,): Fraction(1, 2)}
    )


@pytest.fixture
def psi(tree):
    return PathParam(tree)


class TestRootedTree:
    def test_child_indices_must_be_contiguous(self):
        with pytest.raises(ValueError):
            RootedTree({(1,): ONE})

    def test_dangling_parent_rejected(self):
        with pytest.raises(ValueError):
            RootedTree({(0, 0): ONE})
        # the missing parent (1,) sorts after a node of its depth that is there
        with pytest.raises(ValueError, match=r"dangling node \(1, 0\): parent missing"):
            RootedTree({(0,): ONE, (1, 0): ONE})

    def test_infinite_edges_are_leaves(self):
        with pytest.raises(ValueError):
            RootedTree({(0,): INF, (0, 0): ONE})

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            RootedTree({(0,): Fraction(0)})

    def test_negative_child_indices_rejected(self):
        """A child's index is its parent's next free index, so -1 is never one."""
        for edges in ({(-1,): ONE}, {(0,): ONE, (-1,): ONE}):
            with pytest.raises(ValueError, match=r"child indices of \(\) must be contiguous"):
                RootedTree(edges)

    def test_child_indices_are_integers(self):
        for edges in ({(0.0,): ONE}, {(0,): ONE, (0, "1"): ONE}):
            with pytest.raises(TypeError):
                RootedTree(edges)

    def test_node_paths_is_a_new_list_each_call(self, tree):
        first = tree.node_paths()
        first.clear()
        assert tree.node_paths() == [(), (0,), (0, 0), (0, 1), (1,)]
        assert tree.node_paths() is not tree.node_paths()

    def test_insertion_order_changes_nothing(self):
        """The node table is built from the sorted paths, so the order of the
        caller's edge dict changes no order, count or Psi-value."""
        for s in range(25):
            tree = gen_tree(DEFAULT_SEED + 3000 + s, max_nodes=14)
            items = list(tree.edges.items())
            random.Random(s).shuffle(items)
            twin = RootedTree(dict(items))
            paths = twin.node_paths()
            assert paths == tree.node_paths() == [()] + sorted(tree.edges)
            kids = [sum(q[:-1] == p for q in tree.edges) for p in paths]
            assert [twin.n_children(p) for p in paths] == [tree.n_children(p) for p in paths] == kids
            psi, twin_psi = PathParam(tree), PathParam(twin)
            for k in (1, 2, 3):
                pts, twin_pts = tree.grid_points(k), twin.grid_points(k)
                assert [(p.path, p.t) for p in twin_pts] == [(p.path, p.t) for p in pts]
                assert [twin_psi.psi(p) for p in twin_pts] == [psi.psi(p) for p in pts]

    def test_point_canonical_form(self, tree):
        assert tree.point((0,), 0) == tree.root_point()
        assert tree.point((0,), Fraction(3, 2)) == tree.node_point((0,))
        with pytest.raises(ValueError):
            tree.point((0,), 2)

    def test_grid_contains_nodes(self, tree):
        grid = tree.grid_points(2)
        for p in tree.node_points():
            assert p in grid


class TestOrder:
    def test_root_below_everything(self, tree):
        r = tree.root_point()
        for p in tree.grid_points(2):
            assert t_leq(r, p)

    def test_meet_of_siblings(self, tree):
        p = tree.point((0, 0), Fraction(1, 2))
        q = tree.point((0, 1), 2)
        assert t_meet(p, q) == tree.node_point((0,))

    def test_meet_on_shared_edge(self, tree):
        p = tree.point((0,), Fraction(1, 2))
        q = tree.point((0,), 1)
        assert t_meet(p, q) == p
        assert t_leq(p, q)

    def test_different_trees_rejected(self, tree):
        other = RootedTree({(0,): ONE})
        with pytest.raises(ForeignPointError):
            t_meet(tree.root_point(), other.root_point())

    def test_meet_against_brute_oracle(self):
        for s in range(12):
            t = gen_tree(DEFAULT_SEED + s, max_nodes=12)
            pts = t.grid_points(2)
            rng = random.Random(s)
            for _ in range(15):
                p, q = rng.choice(pts), rng.choice(pts)
                assert t_meet(p, q) == brute_meet_oracle(t, p, q)


class TestTangent:
    def test_segment_rule(self, tree):
        tau = tree.point((0,), 1)
        sigma = tree.node_point((0, 0))
        alpha_same = tree.point((0, 1), 3)
        alpha_other = tree.root_point()
        assert t_tangent_equiv(tau, sigma, alpha_same)
        assert not t_tangent_equiv(tau, sigma, alpha_other)
        assert t_segment_member(tau, alpha_other, sigma)

    def test_dual_implementations_agree(self):
        for s in range(10):
            t = gen_tree(1000 + s, max_nodes=10)
            pts = t.grid_points(2)
            rng = random.Random(s)
            for _ in range(25):
                tau, sigma, alpha = (rng.choice(pts) for _ in range(3))
                if sigma == tau or alpha == tau:
                    continue
                assert t_tangent_equiv(tau, sigma, alpha) == (
                    t_tangent_equiv_definitional(tau, sigma, alpha)
                )

    def test_metric_additivity_through_the_segment(self, tree, psi):
        tau = tree.point((0,), 1)
        sigma = tree.node_point((0, 0))
        alpha = tree.root_point()
        assert t_segment_member(tau, alpha, sigma)
        assert t_dpsi(psi, alpha, sigma) == t_dpsi(psi, alpha, tau) + t_dpsi(
            psi, tau, sigma
        )

    def test_class_membership(self, tree):
        tau = tree.point((0,), 1)
        ref = TangentRef(tau, tree.node_point((0, 0)))
        assert class_member(ref, tree.point((0, 1), 1))
        assert not class_member(ref, tree.root_point())
        assert not class_member(ref, tau)  # the base is in none of its classes

    def test_a_copy_of_the_base_is_the_base(self, tree):
        """An equal point that is another object is still the base point."""
        alpha = tree.root_point()
        tau, node = tree.point((0,), 1), tree.node_point((0,))
        for base, copy in ((tau, tree.point((0,), 1)), (node, tree.point((0,), Fraction(3, 2)))):
            assert copy is not base and copy == base
            for check in (t_tangent_equiv, t_tangent_equiv_definitional):
                with pytest.raises(BasePointEqualsRepError):
                    check(base, copy, alpha)
                with pytest.raises(BasePointEqualsRepError):
                    check(base, alpha, copy)

    def test_base_equals_rep_rejected(self, tree):
        tau = tree.point((0,), 1)
        with pytest.raises(BasePointEqualsRepError):
            TangentRef(tau, tau)


class TestMetric:
    def test_psi_values(self, tree, psi):
        assert psi.psi(tree.root_point()) == 1
        assert psi.psi(tree.node_point((0,))) == Fraction(5, 2)
        assert psi.psi(tree.node_point((0, 0))) == Fraction(7, 2)
        assert psi.psi(tree.point((0, 1), 10)) == Fraction(25, 2)

    def test_distance_fixture(self, tree, psi):
        assert t_dpsi(psi, tree.root_point(), tree.node_point((0,))) == Fraction(3, 5)

    def test_infinite_ends_are_finite_distance(self, tree, psi):
        p = tree.point((0, 1), INF)
        assert is_inf(psi.psi(p))
        assert t_dpsi(psi, tree.node_point((0,)), p) == Fraction(2, 5)

    def test_metric_laws_on_grid(self, tree, psi):
        pts = tree.grid_points(2)
        for p in pts:
            assert t_dpsi(psi, p, p) == 0
            for q in pts:
                d = t_dpsi(psi, p, q)
                assert d == t_dpsi(psi, q, p)
                assert d >= 0
                for r in pts:
                    assert d <= t_dpsi(psi, p, r) + t_dpsi(psi, r, q)

    def test_point_at_psi_inverts(self, tree, psi):
        tau = tree.node_point((0, 0))
        for value in (1, Fraction(3, 2), Fraction(5, 2), 3):
            assert psi.psi(psi.point_at_psi(tau, value)) == value

    def test_psi_is_one_plus_arclength_and_point_at_psi_inverts_it(self):
        for s in range(15):
            t = gen_tree(DEFAULT_SEED + 3100 + s, max_nodes=14)
            psi = PathParam(t)
            pts = t.grid_points(2)
            for tau in pts:
                above = sum((t.edge_length(tau.path[:k]) for k in range(1, len(tau.path))), ONE)
                assert psi.psi(tau) == above + tau.t
                for r in pts:
                    if t_leq(r, tau):
                        assert psi.point_at_psi(tau, psi.psi(r)) == r

    def test_psi_and_distance_at_depth_5000(self):
        """Depths are filled in one pass, not by one call per level, so a path
        deeper than the interpreter's recursion limit is measured."""
        n = 5000
        tree = RootedTree({(0,) * k: 1 for k in range(1, n + 1)})
        deep, mid = tree.node_point((0,) * n), tree.node_point((0,) * (n // 2))
        psi = PathParam(tree)
        assert psi.psi(deep) == n + 1
        assert t_dpsi(psi, mid, deep) == Fraction(1, n // 2 + 1) - Fraction(1, n + 1)
        assert psi.point_at_psi(deep, n // 2 + 1) == mid


class TestInfimum:
    def test_matches_folded_meets(self):
        for s in range(10):
            t = gen_tree(2000 + s, max_nodes=14)
            psi = PathParam(t)
            rng = random.Random(s)
            pts = t.grid_points(2)
            S = [rng.choice(pts) for _ in range(4)]
            folded = S[0]
            for p in S[1:]:
                folded = t_meet(folded, p)
            for tau in S:
                assert t_inf_set(S, tau, psi) == folded

    def test_membership_required(self, tree, psi):
        with pytest.raises(MemberMissingError):
            t_inf_set([tree.root_point()], tree.node_point((0,)), psi)
        with pytest.raises(EmptySetError):
            t_inf_set([], tree.root_point(), psi)

    def test_chain_limit_is_exact(self):
        spine = RootedTree({(0,): Fraction(5, 2)})
        psi = PathParam(spine)
        tau = spine.node_point((0,))
        limit = chain_infimum(spine, psi, tau, Fraction(2), ONE, probe=64)
        assert psi.psi(limit) == 2

    def test_chain_must_descend(self):
        spine = RootedTree({(0,): Fraction(5, 2)})
        psi = PathParam(spine)
        with pytest.raises(ValueError):
            chain_infimum(spine, psi, spine.node_point((0,)), Fraction(2), Fraction(-1))


class TestAxioms:
    def test_tree_axioms_pass(self, tree):
        report = tree_axiom_report(tree)
        assert report.all_pass()

    def test_forked_interval_fails_t4_only(self):
        report = fi_axiom_report()
        assert (report.t1, report.t2, report.t3, report.t4) == (True, True, True, False)
        assert report.witness == (FI_X, FI_Y)

    def test_forked_interval_report_checks_every_pair(self, monkeypatch):
        """A leq broken on one pair of sample points only, the two largest,
        fails T2 when the pair is made incomparable, and T3 alone when its
        order is reversed: the report's table reaches every pair below every
        point, the last ones too."""
        rng = random.Random(0)  # the report's default seed and draws
        ticks = sorted({rng.randrange(0, 64) for _ in range(40)})
        a, b = fi_seg(Fraction(ticks[-2], 64)), fi_seg(Fraction(ticks[-1], 64))
        leq = ForkedIntervalPoset.leq

        def incomparable(self, p, q):
            return False if {p, q} == {a, b} else leq(self, p, q)

        def reversed_pair(self, p, q):
            return p == b if {p, q} == {a, b} else leq(self, p, q)

        monkeypatch.setattr(ForkedIntervalPoset, "leq", incomparable)
        report = fi_axiom_report()
        assert (report.t1, report.t2, report.t3, report.t4) == (True, False, False, False)
        monkeypatch.setattr(ForkedIntervalPoset, "leq", reversed_pair)
        report = fi_axiom_report()
        assert (report.t1, report.t2, report.t3, report.t4) == (True, True, False, False)

    def test_no_infimum_for_the_fork(self):
        assert fi_infimum([FI_X, FI_Y]) is None
        assert fi_infimum([FI_X]) == FI_X
        assert fi_infimum([FI_X, FI_Y, fi_seg(Fraction(1, 3))]) == fi_seg(
            Fraction(1, 3)
        )

    def test_schedule_ascends_below_both_tops(self):
        poset = ForkedIntervalPoset()
        sched = fi_no_infimum_schedule(10)
        assert len(sched) == 11
        assert all(a < b for a, b in zip(sched, sched[1:]))
        for t in sched:
            assert poset.leq(fi_seg(t), FI_X) and poset.leq(fi_seg(t), FI_Y)

    def test_only_the_two_tops_lack_an_infimum(self):
        """``fi_infimum`` answers None exactly for {X, Y}, whatever repeats."""
        pool = (FI_X, FI_Y, fi_seg(0), fi_seg(Fraction(1, 3)))
        for n in range(1, 5):
            for pts in itertools.product(pool, repeat=n):
                kinds = {p.kind for p in pts}
                got = fi_infimum(list(pts))
                assert (got is None) == (kinds == {"X", "Y"})
                if "seg" in kinds:
                    assert got == fi_seg(min(p.t for p in pts if p.kind == "seg"))

    def test_default_schedule_ascends_below_both_tops(self):
        poset = ForkedIntervalPoset()
        for sched in (fi_no_infimum_schedule(), fi_no_infimum_schedule(0)):
            assert all(a < b for a, b in zip(sched, sched[1:]))
            assert all(poset.leq(fi_seg(t), FI_X) and poset.leq(fi_seg(t), FI_Y) for t in sched)
        assert len(fi_no_infimum_schedule()) == 51 and fi_no_infimum_schedule(0) == [0]

    def test_fork_tops_incomparable(self):
        poset = ForkedIntervalPoset()
        assert not poset.leq(FI_X, FI_Y)
        assert not poset.leq(FI_Y, FI_X)


def forty_node_trees():
    """The 40-node star and chain, unit edges."""
    return [build_star(39), RootedTree({(0,) * k: ONE for k in range(1, 40)})]


class TestOneAxiomChecker:
    """The reports of the one checker, ``tree._axiom_report``, against the
    two reports it replaced (``tests/axiom_reference.py``)."""

    def test_trees_agree_with_the_reference(self):
        for tree in [gen_tree(seed, max_nodes=20) for seed in range(200)] + forty_node_trees():
            assert tree_axiom_report(tree) == axiom_reference.tree_axiom_report(tree)

    @pytest.mark.parametrize("samples", [1, 2, 63, 64, 65, 100, 400])
    def test_forked_interval_agrees_with_the_reference(self, samples):
        for seed in range(10):
            assert fi_axiom_report(samples, seed) == axiom_reference.fi_axiom_report(samples, seed)

    @pytest.mark.parametrize("samples", [800, 10_000])
    def test_forked_interval_past_its_ticks(self, samples):
        assert fi_axiom_report(samples) == AxiomReport(True, True, True, False, (FI_X, FI_Y))

    def test_the_order_is_asked_quadratically_often(self, monkeypatch):
        """On the 40-node star and chain (118 grid points, 40 nodes), the
        checker asks the order n^2 times for the down-sets, 2n times for T1
        and at most twice per set of T4."""
        for tree in forty_node_trees():
            calls = []
            monkeypatch.setattr(tree_module, "t_leq", lambda p, q: calls.append(1) or t_leq(p, q))
            assert tree_axiom_report(tree).all_pass()
            n, pool = len(tree.grid_points(2)), len(tree.node_paths())
            assert (n, pool) == (118, 40)
            assert len(calls) <= n * n + 2 * n + pool * (pool + 1)

    def test_mutations_fail_as_the_reference_does(self, monkeypatch):
        """Patched into both checkers, a ``t_leq`` that drops one ancestor
        (a pair of grid points) and a ``t_meet`` that answers the true meet's
        parent give the reference's T4 and witness, and fail each of T1-T3
        wherever the reference does; between them they fail all four."""
        rng = random.Random(DEFAULT_SEED)
        fails = dict.fromkeys(("t1", "t2", "t3", "t4"), 0)
        for seed in range(200):
            tree = gen_tree(seed, max_nodes=20)
            pts = tree.grid_points(2)
            below, above = rng.choice([(p, q) for p in pts for q in pts if p != q and t_leq(p, q)])

            def dropped(p, q):
                return False if (p, q) == (below, above) else t_leq(p, q)

            def parent_meet(p, q):
                m = t_meet(p, q)
                return m if m.is_root() else tree.node_point(m.path[:-1])

            for name, mutant in (("t_leq", dropped), ("t_meet", parent_meet)):
                with monkeypatch.context() as patch:
                    for module in (tree_module, axiom_reference):
                        patch.setattr(module, name, mutant)
                    got, want = tree_axiom_report(tree), axiom_reference.tree_axiom_report(tree)
                assert (got.t4, got.witness) == (want.t4, want.witness)
                for axiom in fails:
                    assert getattr(want, axiom) or not getattr(got, axiom)
                    fails[axiom] += not getattr(got, axiom)
        assert all(fails.values()), fails


class TestBallsAndStars:
    def test_ball_inside_tangent_class(self, tree, psi):
        sigma = tree.node_point((0, 0))
        tau = tree.point((0,), 1)
        gamma = tree.point((0, 0), Fraction(1, 2))
        report = ball_in_subbasic_check(psi, sigma, tau, gamma)
        assert report.ok()
        assert report.epsilon == t_dpsi(psi, gamma, tau)

    def test_gamma_must_share_the_direction(self, tree, psi):
        sigma = tree.node_point((0, 0))
        tau = tree.point((0,), 1)
        with pytest.raises(ValueError):
            ball_in_subbasic_check(psi, sigma, tau, tree.root_point())

    def test_star_witness_avoids_listed_branches(self):
        star = build_star(6)
        center = star.root_point()
        refs = [
            TangentRef(star.point((b,), Fraction(1, 2)), center) for b in (0, 2)
        ]
        alpha = star_witness(star, refs)
        assert alpha.path[0] not in (0, 2)
        for ref in refs:
            assert class_member(ref, alpha)

    def test_too_few_branches(self):
        star = build_star(3)
        center = star.root_point()
        refs = [
            TangentRef(star.point((b,), Fraction(1, 2)), center) for b in (0, 1)
        ]
        with pytest.raises(TooFewBranchesError):
            star_witness(star, refs)

    def test_refs_must_be_classes_of_the_center(self):
        star = build_star(6)
        stray = TangentRef(star.point((0,), Fraction(1, 2)), star.node_point((1,)))
        with pytest.raises(ValueError):
            star_witness(star, [stray])


class TestValuativeAdapter:
    """The normalized valuations as an order/meet structure: root ``M_ADIC``,
    meet ``meet``, and the order read off ``compare``."""

    @staticmethod
    def leq(nu, mu) -> bool:
        return compare(nu, mu) in (Comparison.LT, Comparison.EQ)

    def test_root_is_m_adic(self):
        for nu in (M_ADIC, monomial(1, 2), monomial(1, 3)):
            assert equal_valuations(meet(M_ADIC, nu), M_ADIC)
            assert self.leq(M_ADIC, nu)

    def test_meet_and_order(self):
        nu, mu = monomial(1, 2), monomial(1, 3)
        assert self.leq(nu, mu)
        assert not self.leq(mu, nu)
        assert equal_valuations(meet(nu, mu), nu)

    def test_segment_parametrization(self):
        assert equal_valuations(monomial_segment_psi(Fraction(3, 2)), monomial(1, Fraction(3, 2)))
        with pytest.raises(ValueError):
            monomial_segment_psi(Fraction(1, 2))


class TestMemos:
    """``grid_points`` and ``PathParam.recip`` keep what they built; callers
    must not see the memo."""

    def test_grid_points_are_equal_independent_lists(self, tree):
        first = tree.grid_points(2)
        second = tree.grid_points(2)
        assert first == second and first is not second
        fresh = RootedTree(dict(tree.edges)).grid_points(2)
        assert [(p.path, p.t) for p in first] == [(p.path, p.t) for p in fresh]
        first.clear()
        assert tree.grid_points(2) == second
        assert len(tree.grid_points(3)) == len(tree.node_points()) + 3 * len(tree.edges)

    def test_recip_is_one_over_psi(self, tree, psi):
        for _ in range(2):  # cold, then from the memo
            for p in tree.grid_points(3):
                want = 0 if is_inf(psi.psi(p)) else 1 / psi.psi(p)
                assert psi.recip(p) == want

    def test_warm_memo_still_rejects_foreign_points(self, tree, psi):
        p, q = tree.point((0, 0), Fraction(1, 2)), tree.node_point((1,))
        t_dpsi(psi, p, q)
        twin = RootedTree(dict(tree.edges))
        p2, q2 = twin.point((0, 0), Fraction(1, 2)), twin.node_point((1,))
        with pytest.raises(ForeignPointError):
            psi.recip(p2)
        with pytest.raises(ForeignPointError):
            t_dpsi(psi, p2, q2)

    def test_memos_stop_at_their_bound(self, tree, monkeypatch):
        import valtree.tree as tree_module

        monkeypatch.setattr(tree_module, "MEMO_SIZE", 3)
        psi = PathParam(tree)
        pts = tree.grid_points(5)
        for p in pts:
            psi.recip(p)
        assert len(psi._recips) == 3
        assert [psi.recip(p) for p in pts] == [PathParam(tree).recip(p) for p in pts]
        for k in range(1, 6):
            assert len(tree.grid_points(k)) == len(tree.node_points()) + k * len(tree.edges)
        assert len(tree._grids) == 3

    def test_ball_radius_is_positive(self):
        """d(gamma, tau) > 0 whenever gamma != tau; ball_in_subbasic_check relies on it."""
        rng = random.Random(DEFAULT_SEED)
        checked = 0
        for s in range(30):
            t = gen_tree(s)
            psi = PathParam(t)
            pts = t.grid_points(2)
            for _ in range(20):
                tau, sigma = rng.choice(pts), rng.choice(pts)
                if sigma == tau:
                    continue
                report = ball_in_subbasic_check(psi, sigma, tau, sigma)
                assert report.epsilon > 0
                checked += 1
        assert checked > 400

    def test_star_witness_is_in_every_neighborhood_but_not_its_own(self):
        """What star_witness promises, over seeded neighborhoods on finite and
        infinite stars."""
        from valtree.tree import star_neighborhoods

        for length in (ONE, Fraction(7, 3), INF):
            star = build_star(12, length)
            center = star.root_point()
            for s in range(20):
                branches, refs = star_neighborhoods(star, 1 + s % 10, random.Random(s))
                alpha = star_witness(star, refs)
                assert alpha.path[0] not in branches
                assert all(class_member(ref, alpha) for ref in refs)
                assert not class_member(TangentRef(alpha, center), alpha)


def _ref_recip(psi, p):
    v = psi.psi(p)
    return Fraction(0) if is_inf(v) else 1 / v


def _ref_dpsi(psi, p, q):
    """The metric in Fraction arithmetic, from ``psi.psi`` at the meet."""
    rw = _ref_recip(psi, t_meet(p, q))
    return (rw - _ref_recip(psi, p)) + (rw - _ref_recip(psi, q))


class TestIntegerMetric:
    """``t_dpsi`` and ``ball_in_subbasic_check`` compute on integer pairs;
    these check them against Fraction references built from ``psi.psi``."""

    def test_dpsi_matches_the_fraction_reference(self):
        saw_inf = saw_root = False
        for s in range(30):
            t = gen_tree(s, inf_prob=0.3)
            psi = PathParam(t)
            pts = t.grid_points(2)
            saw_inf |= any(is_inf(psi.psi(p)) for p in pts)
            saw_root |= any(p.is_root() for p in pts)
            for p in pts:
                for q in pts:
                    got = t_dpsi(psi, p, q)
                    assert type(got) is Fraction
                    assert got == _ref_dpsi(psi, p, q), (s, p, q)
        assert saw_inf and saw_root

    def test_ball_report_matches_a_reference_loop(self):
        rng = random.Random(DEFAULT_SEED)
        configs = 0
        for s in range(30):
            t = gen_tree(s)
            psi = PathParam(t)
            pts = t.grid_points(2)
            for _ in range(10):
                tau, sigma = rng.choice(pts), rng.choice(pts)
                if sigma == tau:
                    continue
                gammas = [g for g in pts if g != tau and t_tangent_equiv(tau, sigma, g)]
                gamma = rng.choice(gammas)
                eps = _ref_dpsi(psi, gamma, tau)
                checked, violations = 0, []
                for alpha in t.grid_points(3) + [sigma, gamma]:
                    if _ref_dpsi(psi, gamma, alpha) >= eps:
                        continue
                    checked += 1
                    if not t_tangent_equiv(tau, sigma, alpha):
                        violations.append(alpha)
                want = BallReport(eps, checked, tuple(violations))
                assert ball_in_subbasic_check(psi, sigma, tau, gamma, samples=3) == want
                configs += 1
        assert configs > 200

    def test_equal_points_hash_equal(self):
        for s in range(10):
            t = gen_tree(s, inf_prob=0.3)
            for p in t.grid_points(2):
                twins = [t.point(p.path, p.t), TreePoint(t, p.path, p.t)]
                if p.path and p.t == t.edge_length(p.path):
                    twins.append(t.node_point(p.path))
                for q in twins:
                    assert q == p and hash(q) == hash(p)
                    assert {p: 1}.get(q) == 1
            # every meet of grid points is a grid point, found by its hash
            pts = t.grid_points(1)
            table = {p: p for p in pts}
            for p, q in itertools.product(pts, repeat=2):
                m = t_meet(p, q)
                assert table[m] == m and hash(table[m]) == hash(m)
