"""Seeded acceptance suites: one callable per numbered criterion.

Each suite runs an exact check at full published counts when scale=1 and
returns a SuiteResult; `run_all` executes the fifteen suites in order.
Counts shrink proportionally for quick smoke runs but never below one.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .krull import KrullRank2, KrullSameRank1, Rank2Val, krull_lift, rank1_section, rank2_eval
from .poly import BivarPoly, IDENTITY_FRAME
from .rationals import INF, ONE, is_inf
from .testkit import (
    DEFAULT_SEED,
    brute_meet_oracle,
    curvette,
    euclid_multiplicity_oracle,
    gen_qmv,
    gen_tree,
    gen_unit_pair,
    pair_form,
    sample_polys,
)
from .tree import (
    FI_X,
    FI_Y,
    ForkedIntervalPoset,
    PathParam,
    RootedTree,
    ball_in_subbasic_check,
    build_star,
    chain_infimum,
    class_member,
    fi_axiom_report,
    fi_infimum,
    fi_no_infimum_schedule,
    fi_seg,
    star_neighborhoods,
    star_witness,
    t_dpsi,
    t_inf_set,
    t_meet,
    t_segment_member,
    t_tangent_equiv,
    t_tangent_equiv_definitional,
)
from .valuation import (
    CanonicalForm,
    Comparison,
    Curve,
    Divisorial,
    INF_POINT,
    M_ADIC,
    ProjPoint,
    QuasiMonomialVal,
    TERMINAL,
    ValueNumerators,
    canonicalize,
    common_minimizer,
    compare,
    dilatation_length,
    equal_valuations,
    evaluate,
    from_canonical,
    m_value,
    meet,
    monomial,
    multiplicity_stream,
    normalize,
    sim_pairs,
)

_X, _Y = BivarPoly.var_x(), BivarPoly.var_y()


@dataclass(frozen=True)
class SuiteResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    witness: Optional[object] = None


def _count(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def _ok(criterion: int, name: str, detail: str) -> SuiteResult:
    return SuiteResult(criterion, name, True, detail)


def _fail(criterion: int, name: str, detail: str, witness: object = None) -> SuiteResult:
    return SuiteResult(criterion, name, False, detail, witness)


# ---------------------------------------------------------------------------
# 1-3: the krull map on the three reference valuations
# ---------------------------------------------------------------------------


def criterion_1(seed: int = DEFAULT_SEED, scale: float = 1.0) -> SuiteResult:
    name = "krull keeps a support-free valuation unchanged"
    nu = monomial(ONE, ONE)
    k = krull_lift(nu)
    if not isinstance(k, KrullSameRank1):
        return _fail(1, name, f"expected a same-rank result, got {k!r}", k)
    if k.valuation != nu or not equal_valuations(k.valuation, nu):
        return _fail(1, name, "returned valuation differs from the input", k)
    return _ok(1, name, "monomial (1,1) maps to itself")


def criterion_2(seed: int = DEFAULT_SEED, scale: float = 1.0) -> SuiteResult:
    name = "krull on the y-curve valuation"
    k = krull_lift(monomial(ONE, INF))
    if not isinstance(k, KrullRank2):
        return _fail(2, name, f"expected a rank-2 result, got {k!r}", k)
    rho = k.val
    want = {
        "x": (0, Fraction(1)),
        "y": (1, Fraction(0)),
        "x*y^2": (2, Fraction(1)),
    }
    got = {
        "x": rank2_eval(rho, _X),
        "y": rank2_eval(rho, _Y),
        "x*y^2": rank2_eval(rho, _X * _Y * _Y),
    }
    if (rho.wx, rho.wy) != (want["x"], want["y"]) or got != want:
        return _fail(2, name, f"values {got} != {want}", rho)
    return _ok(2, name, "x->(0,1), y->(1,0), x*y^2->(2,1)")


def criterion_3(seed: int = DEFAULT_SEED, scale: float = 1.0) -> SuiteResult:
    name = "rank-2 lex evaluation against direct recomputation"
    rho = Rank2Val((1, Fraction(0)), (1, Fraction(1)))
    for phi in sample_polys(seed, _count(20, scale)):
        direct = min((r + s, Fraction(s)) for r, s in phi.terms)
        got = rank2_eval(rho, phi)
        if got != direct:
            return _fail(3, name, f"{phi}: {got} != {direct}", phi)
    if rank1_section(rho) is not None:
        return _fail(3, name, "rank-1 section should not exist for these weights")
    return _ok(3, name, "20 seeded polynomials agree; no rank-1 section")


# ---------------------------------------------------------------------------
# 4: the forked interval is not a tree
# ---------------------------------------------------------------------------


def criterion_4(seed: int = DEFAULT_SEED, scale: float = 1.0) -> SuiteResult:
    name = "forked interval: {X,Y} has no infimum"
    if fi_infimum([FI_X, FI_Y]) is not None:
        return _fail(4, name, "an infimum was produced for the fork ends")
    steps = _count(50, scale)
    sched = fi_no_infimum_schedule(steps)
    poset = ForkedIntervalPoset()
    if len(sched) < steps + 1:
        return _fail(4, name, f"schedule too short: {len(sched)}")
    for i, t in enumerate(sched):
        if not (poset.leq(fi_seg(t), FI_X) and poset.leq(fi_seg(t), FI_Y)):
            return _fail(4, name, f"schedule entry {t} is not a common lower bound", t)
        if i and not sched[i - 1] < t:
            return _fail(4, name, f"schedule not strictly increasing at {i}", t)
    rep = fi_axiom_report()
    if not (rep.t1 and rep.t2 and rep.t3) or rep.t4 or rep.witness is None:
        return _fail(4, name, f"axiom report off: {rep}", rep)
    return _ok(4, name, f"{steps} ascending lower bounds; T1-T3 pass, T4 fails")


# ---------------------------------------------------------------------------
# 5-6: the meet construction
# ---------------------------------------------------------------------------


def _divisorial_truncations(nu: QuasiMonomialVal) -> List[QuasiMonomialVal]:
    """The valuation's dilatation prefixes, each closed off divisorially."""
    form = canonicalize(nu)
    chains = [form.steps[:k] for k in range(len(form.steps) + 1)]
    if isinstance(form.terminal, Curve):
        d = form.terminal.direction
        extra = INF_POINT if d.is_inf else d.negate()
        chains.append(form.steps + (extra,))
    return [
        normalize(QuasiMonomialVal(chain, IDENTITY_FRAME, (ONE, ONE)))
        for chain in chains
    ]


_PROBE_DIRECTIONS = (
    ProjPoint(Fraction(0)),
    INF_POINT,
    ProjPoint(Fraction(1)),
    ProjPoint(Fraction(-1)),
    ProjPoint(Fraction(2)),
)


_REFUTATION_PROBES = (_X, _Y, _X + _Y, _X - _Y, _X * _Y)


def _refutation_pool(
    cand: QuasiMonomialVal,
    nu: QuasiMonomialVal,
    mu: QuasiMonomialVal,
    fallback: Sequence[BivarPoly],
) -> Iterator[BivarPoly]:
    """Polynomials likely to separate a too-deep candidate from an input,
    the fixed probes first.  Drawn lazily: the probes refute most candidates,
    and then no curvette is built."""
    yield from _REFUTATION_PROBES
    chain = canonicalize(cand).steps
    dirs = list(_PROBE_DIRECTIONS)
    for side in (nu, mu):
        form = canonicalize(side)
        if len(form.steps) > len(chain):
            dirs.append(ProjPoint(form.steps[len(chain)].value))
        elif isinstance(form.terminal, Curve) and len(form.steps) == len(chain):
            dirs.append(form.terminal.direction)
    seen = set()
    for d in dirs:
        if d in seen:
            continue
        seen.add(d)
        yield curvette(chain, d)
    yield from fallback


_MEET_NAME = "meet is the greatest common lower bound"


def criterion_5(seed: int = DEFAULT_SEED, scale: float = 1.0) -> SuiteResult:
    n_pairs = _count(200, scale)
    n_polys = _count(500, scale)
    # every pair below the index passed, so from there on this loop returns,
    # or raises, what a loop over all the pairs would
    for i in range(_first_failing_pair(seed, n_pairs, n_polys), n_pairs):
        failure = _criterion_5_pair(seed, i, n_polys)
        if failure is not None:
            return failure
    return _ok(5, _MEET_NAME, f"{n_pairs} pairs: bound x{n_polys}, laws, maximality")


def _criterion_5_pair(seed: int, i: int, n_polys: int) -> Optional[SuiteResult]:
    """Criterion 5 on its pair i: the failure, or None when the pair passes."""
    nu = gen_qmv(seed + 2 * i + 1, max_depth=4, denom_bound=10)
    mu = gen_qmv(seed + 2 * i + 2, max_depth=4, denom_bound=10)
    w = meet(nu, mu)
    phis = sample_polys(seed + 31 * i, n_polys, max_deg=3, max_terms=3, coeff_bound=5)
    values = ValueNumerators((w, nu, mu))
    for phi in phis:
        n_w, n_nu, n_mu = values(phi)
        if n_w > n_nu or n_w > n_mu:
            return _fail(5, _MEET_NAME, f"pair {i}: not a lower bound at {phi}", (nu, mu, phi))
    if not equal_valuations(meet(nu, nu), nu):
        return _fail(5, _MEET_NAME, f"pair {i}: meet not idempotent", nu)
    if not equal_valuations(meet(mu, nu), w):
        return _fail(5, _MEET_NAME, f"pair {i}: meet not commutative", (nu, mu))
    rho = gen_qmv(seed + 7919 * i + 3, max_depth=4, denom_bound=10)
    if not equal_valuations(meet(meet(nu, mu), rho), meet(nu, meet(mu, rho))):
        return _fail(5, _MEET_NAME, f"pair {i}: meet not associative", (nu, mu, rho))
    for cand in _divisorial_truncations(nu) + _divisorial_truncations(mu):
        if compare(w, cand) is not Comparison.LT:
            continue
        pool = _refutation_pool(cand, nu, mu, phis)
        if not any(
            (v := evaluate(cand, phi)) > evaluate(nu, phi) or v > evaluate(mu, phi)
            for phi in pool
        ):
            return _fail(
                5, _MEET_NAME, f"pair {i}: candidate above the meet never refuted", (nu, mu, cand)
            )
    return None


def _criterion_5_share(seed: int, j: int, k: int, n_pairs: int, n_polys: int) -> Optional[int]:
    """The first of the pairs j, j + k, j + 2k, ... that fails or raises, or None."""
    for i in range(j, n_pairs, k):
        try:
            if _criterion_5_pair(seed, i, n_polys) is not None:
                return i
        except Exception:
            return i
    return None


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _first_failing_pair(seed: int, n_pairs: int, n_polys: int) -> int:
    """A pair index below which every pair of criterion 5 passes: the lowest
    that fails or raises, else n_pairs.

    The pairs are independent, so with k CPUs, k shares of them run at once:
    share j holds pairs j, j + k, j + 2k, ..., share 0 runs in this process
    and the others in forked workers.  A forked worker starts with the
    library imported, where a spawned one would import it again.  Only ints
    cross to a worker and back.  With one CPU, without fork, while other
    threads run (a fork copies a lock one of them may hold, but not the
    thread), or when a worker cannot start or dies, the answer is 0 and the
    caller checks every pair itself."""
    k = min(_cpu_count(), n_pairs)
    if k == 1:
        return 0
    import multiprocessing  # here, so that importing the suites stays cheap
    import threading

    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return 0
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(k - 1, mp_context=multiprocessing.get_context("fork")) as pool:
            workers = [
                pool.submit(_criterion_5_share, seed, j, k, n_pairs, n_polys) for j in range(1, k)
            ]
            firsts = [_criterion_5_share(seed, 0, k, n_pairs, n_polys)]
            firsts += [w.result() for w in workers]
    except (OSError, BrokenProcessPool):
        return 0
    return min((i for i in firsts if i is not None), default=n_pairs)


def criterion_6(seed: int = DEFAULT_SEED, scale: float = 1.0) -> SuiteResult:
    name = "derived meet fixtures"
    two, three = Fraction(2), Fraction(3)
    fixtures = [
        (meet(monomial(ONE, two), normalize(monomial(two, ONE))), M_ADIC, "crossed monomials"),
        (meet(monomial(ONE, two), monomial(ONE, three)), monomial(ONE, two), "nested monomials"),
        (
            meet(
                from_canonical(
                    CanonicalForm((ProjPoint(Fraction(0)), ProjPoint(Fraction(1))), Divisorial(ONE))
                ),
                from_canonical(
                    CanonicalForm((ProjPoint(Fraction(0)), ProjPoint(Fraction(2))), Divisorial(ONE))
                ),
            ),
            monomial(ONE, two),
            "sibling centers",
        ),
    ]
    for got, want, label in fixtures:
        if not equal_valuations(got, want):
            return _fail(6, name, f"{label}: {canonicalize(got)} != {canonicalize(want)}", got)
    return _ok(6, name, "three fixtures match canonically")


# ---------------------------------------------------------------------------
# 7-8: degree-one forms and their residue classes
# ---------------------------------------------------------------------------


def criterion_7(seed: int = DEFAULT_SEED, scale: float = 1.0) -> SuiteResult:
    name = "a shared m-value minimizer exists for every pair"
    n = _count(200, scale)
    for i in range(n):
        nu = gen_qmv(seed + 11 * i + 4)
        mu = gen_qmv(seed + 11 * i + 5)
        a, b = common_minimizer(nu, mu)
        form = BivarPoly.linear_form(a, b)
        if evaluate(nu, form) != m_value(nu) or evaluate(mu, form) != m_value(mu):
            return _fail(7, name, f"pair {i}: {a}x+{b}y is not minimal for both", (nu, mu))
    return _ok(7, name, f"{n} pairs minimized exactly")


def criterion_8(seed: int = DEFAULT_SEED, scale: float = 1.0) -> SuiteResult:
    name = "residue classes of unit pairs govern strict values"
    n_quads = _count(100, scale)
    n_vals = _count(20, scale)
    vals = [gen_qmv(seed + 13 * j + 6) for j in range(n_vals)]
    for q in range(n_quads):
        pairs = [gen_unit_pair(seed + 4507 * q + j) for j in range(4)]
        forms = [pair_form(p) for p in pairs]
        # the relation and the strictness of every form, each computed once
        sim = [[sim_pairs(p1, p2) for p2 in pairs] for p1 in pairs]
        strict = [[evaluate(nu, form) > 1 for nu in vals] for form in forms]
        for a in range(4):
            if not sim[a][a]:
                return _fail(8, name, f"quad {q}: relation not reflexive", pairs[a])
            for b in range(4):
                r = sim[a][b]
                if r != sim[b][a]:
                    return _fail(8, name, f"quad {q}: relation not symmetric", (a, b))
                for c in range(4):
                    if r and sim[b][c] and not sim[a][c]:
                        return _fail(8, name, f"quad {q}: relation not transitive", (a, b, c))
                for sa, sb in zip(strict[a], strict[b]):
                    if r and sa != sb:
                        return _fail(8, name, f"quad {q}: similar pairs split strictness", (a, b))
                    if sa and sb and not r:
                        return _fail(8, name, f"quad {q}: two strict pairs not similar", (a, b))
    return _ok(8, name, f"{n_quads} quadruples x {n_vals} valuations")


# ---------------------------------------------------------------------------
# 9-10: dilatation streams and the value axioms
# ---------------------------------------------------------------------------


_STREAM_CAP = 64


def _stream_multiplicities(nu: QuasiMonomialVal, limit: int = _STREAM_CAP) -> List[Fraction]:
    out: List[Fraction] = []
    for center, m in multiplicity_stream(nu):
        if center is TERMINAL or len(out) >= limit:
            break
        out.append(m)
    return out


def criterion_9(seed: int = DEFAULT_SEED, scale: float = 1.0) -> SuiteResult:
    name = "multiplicity streams match the subtractive oracle"
    fixture = normalize(monomial(ONE, Fraction(5, 2)))
    if _stream_multiplicities(fixture) != [ONE, ONE, Fraction(1, 2)]:
        return _fail(9, name, "fixture (1,5/2) stream is off", fixture)
    if dilatation_length(fixture) != 4:
        return _fail(9, name, "fixture (1,5/2) length is off", fixture)
    rng = random.Random(seed)
    n = _count(100, scale)
    for i in range(n):
        g1 = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        g2 = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        lo = min(g1, g2)
        # pairs like (10/11, 11/12) run a 120-level chain; cap both sides alike
        want = euclid_multiplicity_oracle(g1 / lo, g2 / lo)[:_STREAM_CAP]
        got = _stream_multiplicities(normalize(monomial(g1, g2)))
        if got != want:
            return _fail(9, name, f"weights ({g1},{g2}): {got} != {want}", (g1, g2))
    return _ok(9, name, f"{n} weight pairs plus the (1,5/2) fixture")


def criterion_10(seed: int = DEFAULT_SEED, scale: float = 1.0) -> SuiteResult:
    name = "value axioms hold exactly"
    n = _count(1000, scale)
    one, zero = BivarPoly.constant(1), BivarPoly.zero()
    for i in range(n):
        nu = gen_qmv(seed + 17 * i + 7)
        phi, psi = sample_polys(seed + 17 * i + 8, 2, max_deg=3, max_terms=3, coeff_bound=5)
        vp, vq = evaluate(nu, phi), evaluate(nu, psi)
        if evaluate(nu, phi * psi) != vp + vq:
            return _fail(10, name, f"triple {i}: product rule fails", (nu, phi, psi))
        if evaluate(nu, phi + psi) < min(vp, vq):
            return _fail(10, name, f"triple {i}: sum bound fails", (nu, phi, psi))
        if evaluate(nu, one) != 0 or not is_inf(evaluate(nu, zero)):
            return _fail(10, name, f"triple {i}: unit/zero values off", nu)
    return _ok(10, name, f"{n} triples, zero violations")


# ---------------------------------------------------------------------------
# 11-14: tree topology checks
# ---------------------------------------------------------------------------


def criterion_11(seed: int = DEFAULT_SEED, scale: float = 1.0) -> SuiteResult:
    name = "tangent classes: segment test and metric additivity"
    target = _count(1000, scale)
    done = 0
    tree_seed = seed
    while done < target:
        tree = gen_tree(tree_seed)
        tree_seed += 1
        psi = PathParam(tree)
        pts = tree.grid_points(2)
        rng = random.Random(tree_seed * 31)
        for _ in range(min(50, target - done)):
            tau, sigma, alpha = (rng.choice(pts) for _ in range(3))
            if sigma == tau or alpha == tau:
                continue
            done += 1
            prim = t_tangent_equiv(tau, sigma, alpha)
            if prim != t_tangent_equiv_definitional(tau, sigma, alpha):
                return _fail(11, name, "tangent implementations disagree", (tau, sigma, alpha))
            if prim == t_segment_member(tau, alpha, sigma):
                return _fail(11, name, "segment biconditional fails", (tau, sigma, alpha))
            if t_segment_member(tau, alpha, sigma):
                lhs = t_dpsi(psi, alpha, sigma)
                rhs = t_dpsi(psi, alpha, tau) + t_dpsi(psi, tau, sigma)
                if lhs != rhs:
                    return _fail(11, name, "distance not additive through the midpoint", (tau, sigma, alpha))
            mid = t_meet(alpha, sigma)
            if t_dpsi(psi, alpha, sigma) != t_dpsi(psi, alpha, mid) + t_dpsi(psi, mid, sigma):
                return _fail(11, name, "distance not additive through the join", (alpha, sigma))
    return _ok(11, name, f"{done} triples, dual implementations agree")


def criterion_12(seed: int = DEFAULT_SEED, scale: float = 1.0) -> SuiteResult:
    name = "metric balls sit inside tangent classes"
    target = _count(1000, scale)
    done = 0
    tree_seed = seed + 101
    while done < target:
        tree = gen_tree(tree_seed)
        tree_seed += 1
        psi = PathParam(tree)
        pts = tree.grid_points(2)
        rng = random.Random(tree_seed * 37)
        for _ in range(min(40, target - done)):
            tau, sigma = rng.choice(pts), rng.choice(pts)
            if sigma == tau:
                continue
            gammas = [sigma]
            extra = next(
                (g for g in pts if g != tau and g != sigma and t_tangent_equiv(tau, sigma, g)),
                None,
            )
            if extra is not None and rng.random() < 0.5:
                gammas.append(extra)
            for gamma in gammas:
                rep = ball_in_subbasic_check(psi, sigma, tau, gamma, samples=3)
                done += 1
                if not rep.ok():
                    return _fail(12, name, f"violations at config {done}", (tau, sigma, gamma, rep))
    return _ok(12, name, f"{done} configurations, zero violations")


def criterion_13(seed: int = DEFAULT_SEED, scale: float = 1.0) -> SuiteResult:
    name = "star witnesses escape every listed neighborhood"
    n_seeds = _count(50, scale)
    n_branches, k = 1000, 20
    star = build_star(n_branches)
    for s in range(n_seeds):
        branches, refs = star_neighborhoods(star, k, random.Random(seed + 257 * s))
        alpha = star_witness(star, refs)
        if alpha.path[0] in set(branches):
            return _fail(13, name, f"seed {s}: witness reuses a listed branch", alpha)
        for ref in refs:
            if not class_member(ref, alpha):
                return _fail(13, name, f"seed {s}: witness misses a neighborhood", (ref, alpha))
    return _ok(13, name, f"{n_seeds} seeds x {k} neighborhoods on {n_branches} branches")


def criterion_14(seed: int = DEFAULT_SEED, scale: float = 1.0) -> SuiteResult:
    name = "set infima agree with folded binary meets"
    n_trees = _count(100, scale)
    for i in range(n_trees):
        tree = gen_tree(seed + 23 * i + 9, max_nodes=30)
        psi = PathParam(tree)
        pts = tree.grid_points(1)
        rng = random.Random(seed + 23 * i + 10)
        size = rng.randint(2, min(6, len(pts)))
        S = rng.sample(pts, size)
        want = reduce(lambda p, q: brute_meet_oracle(tree, p, q), S)
        back = reduce(lambda p, q: brute_meet_oracle(tree, p, q), list(reversed(S)))
        if want != back:
            return _fail(14, name, f"tree {i}: fold order matters", S)
        for tau in S:
            got = t_inf_set(S, tau, psi)
            if got != want:
                return _fail(14, name, f"tree {i}: mismatch for tau={tau}", (S, tau))
    spine = RootedTree({(0,): Fraction(5, 2)})
    psi = PathParam(spine)
    tip = spine.node_point((0,))
    limit = chain_infimum(spine, psi, tip, Fraction(2), ONE, probe=64)
    if psi.psi(limit) != 2:
        return _fail(14, name, f"chain limit off: psi={psi.psi(limit)}", limit)
    return _ok(14, name, f"{n_trees} trees, every member choice; chain limit exact")


# ---------------------------------------------------------------------------
# 15: krull round trip and multiplicativity
# ---------------------------------------------------------------------------


def _seeded_curve(seed: int) -> QuasiMonomialVal:
    rng = random.Random(seed)
    if rng.random() < 0.2:
        d = INF_POINT
    else:
        d = ProjPoint(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    return from_canonical(CanonicalForm((), Curve(d, ONE)))


def criterion_15(seed: int = DEFAULT_SEED, scale: float = 1.0) -> SuiteResult:
    name = "krull round trip and product rule"
    n_curves = _count(50, scale)
    lifts = []
    for i in range(n_curves):
        nu = _seeded_curve(seed + 29 * i + 11)
        k = krull_lift(nu)
        if not isinstance(k, KrullRank2):
            return _fail(15, name, f"curve {i}: lift is not rank 2", nu)
        back = rank1_section(k.val)
        if back is None or not equal_valuations(back, nu):
            return _fail(15, name, f"curve {i}: section does not invert the lift", nu)
        lifts.append(k.val)
    n_products = _count(500, scale)
    for i in range(n_products):
        rho = lifts[i % len(lifts)]
        phi, psi = sample_polys(seed + 37 * i + 12, 2, max_deg=3, max_terms=3, coeff_bound=5)
        vp, vq = rank2_eval(rho, phi), rank2_eval(rho, psi)
        got = rank2_eval(rho, phi * psi)
        if got != (vp[0] + vq[0], vp[1] + vq[1]):
            return _fail(15, name, f"product {i}: {got} != {vp}+{vq}", (phi, psi))
    return _ok(15, name, f"{n_curves} curves inverted; {n_products} products additive")


ALL_CRITERIA: Tuple[Callable[..., SuiteResult], ...] = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
    criterion_13,
    criterion_14,
    criterion_15,
)


def run_all(seed: int = DEFAULT_SEED, scale: float = 1.0) -> List[SuiteResult]:
    return [c(seed, scale) for c in ALL_CRITERIA]
