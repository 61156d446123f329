"""Seeded acceptance suites: one callable per numbered criterion.

Each suite runs an exact check at full published counts when scale=1 and
returns a SuiteResult; `run_all` executes the fifteen suites in order.
Counts shrink proportionally for quick smoke runs but never below one.
A check fails in one way: it raises `_Failed`.  The criteria that loop over
independent items hand them to `_run_items`, which checks them in one
process per CPU and raises what the loop would.
"""

from __future__ import annotations

import gc
import os
import random
import threading
from fractions import Fraction
from functools import reduce
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .krull import KrullRank2, KrullSameRank1, Rank2Val, krull_lift, rank1_section, rank2_eval
from .poly import BivarPoly, IDENTITY_FRAME, Record
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
    TreePoint,
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
    _closing,
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


class SuiteResult(Record):
    criterion: int
    name: str
    passed: bool
    detail: str
    witness: Optional[object] = None


def _count(base: int, scale: float) -> int:
    return max(1, round(base * scale))


class _Failed(Exception):
    """A check's failure: what went wrong, and the object that shows it."""

    def __init__(self, detail: str, witness: object = None):
        super().__init__(detail)
        self.detail, self.witness = detail, witness


_CRITERIA: List[Callable[..., SuiteResult]] = []


def _criterion(number: int, name: str) -> Callable[[Callable[[int, float], str]], Callable]:
    """Register a check as criterion ``number``: the detail it returns is a
    pass, and the `_Failed` it raises a failure, each as a SuiteResult."""

    def register(check: Callable[[int, float], str]) -> Callable[..., SuiteResult]:
        def criterion(seed: int = DEFAULT_SEED, scale: float = 1.0) -> SuiteResult:
            try:
                return SuiteResult(number, name, True, check(seed, scale))
            except _Failed as failure:
                return SuiteResult(number, name, False, failure.detail, failure.witness)
        criterion.__name__ = criterion.__qualname__ = check.__name__
        _CRITERIA.append(criterion)
        return criterion

    return register


# ---------------------------------------------------------------------------
# independent checks, split over the CPUs
# ---------------------------------------------------------------------------

# A check item(i) raises when item i fails.
Item = Callable[[int], None]

# The items are handed out as one-byte tickets, each a run of consecutive
# items, so that taking one is a single read that cannot come back short.
_TICKETS = 256


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _take_first(item: Item, tickets: int, per: int, n: int) -> int:
    """Check the ``per`` items of every ticket taken from the pipe
    ``tickets`` until none is left or one raises: that item, else n."""
    while ticket := os.read(tickets, 1):
        start = ticket[0] * per
        for i in range(start, min(start + per, n)):
            try:
                item(i)
            except Exception:
                return i
    return n


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 64):
        chunks.append(chunk)
    return b"".join(chunks)


def _first_failing(item: Item, n: int) -> int:
    """An index below which every one of the n items passes: the lowest that
    raises, else n.

    With k CPUs, k processes check the items at once: this one and k - 1
    forked children, which start with everything this process has built,
    frozen (``gc.freeze``) so that no collection copies a page they share.
    Each takes the next ticket from one pipe whenever it is free, so a
    process whose CPU the host takes away holds the others up by one ticket
    at most.  The tickets leave the pipe in order, and a process stops
    taking them at its first failure, so every item below the lowest failure
    found was checked and passed.  A child writes one decimal int to its
    own pipe and leaves by ``os._exit``, so it runs no exit handler and
    flushes no stdio buffer.  Every child is reaped before this returns, and
    killed first unless all of them answered.  With one CPU, without fork,
    while other threads run (a fork copies a lock one of them may hold, but
    not the thread), when a pipe or child cannot be made, or when a child
    dies without answering, the answer is 0 and the caller checks every
    item itself."""
    k = min(_cpu_count(), n)
    if k <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 0
    children: List[Tuple[int, int]] = []  # (pid, read end of its pipe)
    tickets = None
    answered = False
    gc.freeze()
    try:
        per = -(-n // _TICKETS)  # items per ticket
        tickets, w = os.pipe()
        try:
            os.write(w, bytes(range(-(-n // per))))
        finally:
            os.close(w)  # so that a reader meets the end once every ticket is taken
        for _ in range(1, k):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                try:
                    os.write(w, b"%d" % _take_first(item, tickets, per, n))
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, r))
        firsts = [_take_first(item, tickets, per, n)]
        for _, r in children:
            text = _read_all(r)
            if not text:
                return 0
            firsts.append(int(text))
        answered = True
        return min(firsts)
    except OSError:
        return 0
    finally:
        if tickets is not None:
            os.close(tickets)
        if not answered:
            import signal  # here, so that importing the suites stays cheap

            for pid, _ in children:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        for pid, r in children:
            os.close(r)
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already, as under SIGCHLD = SIG_IGN
                pass
        gc.unfreeze()


def _run_items(item: Item, n: int, raised: Optional[Exception] = None) -> None:
    """Check the n items in order; when none fails, raise ``raised`` (an
    exception met while drawing items past the n-th), if there is one.  The
    items below ``_first_failing`` passed, so from there on this raises what
    a loop over all of them would."""
    for i in range(_first_failing(item, n), n):
        item(i)
    if raised is not None:
        raise raised


# ---------------------------------------------------------------------------
# 1-3: the krull map on the three reference valuations
# ---------------------------------------------------------------------------


@_criterion(1, "krull keeps a support-free valuation unchanged")
def criterion_1(seed: int, scale: float) -> str:
    nu = monomial(ONE, ONE)
    k = krull_lift(nu)
    if not isinstance(k, KrullSameRank1):
        raise _Failed(f"expected a same-rank result, got {k!r}", k)
    if k.valuation != nu or not equal_valuations(k.valuation, nu):
        raise _Failed("returned valuation differs from the input", k)
    return "monomial (1,1) maps to itself"


@_criterion(2, "krull on the y-curve valuation")
def criterion_2(seed: int, scale: float) -> str:
    k = krull_lift(monomial(ONE, INF))
    if not isinstance(k, KrullRank2):
        raise _Failed(f"expected a rank-2 result, got {k!r}", k)
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
        raise _Failed(f"values {got} != {want}", rho)
    return "x->(0,1), y->(1,0), x*y^2->(2,1)"


@_criterion(3, "rank-2 lex evaluation against direct recomputation")
def criterion_3(seed: int, scale: float) -> str:
    rho = Rank2Val((1, Fraction(0)), (1, Fraction(1)))
    n = _count(20, scale)
    for phi in sample_polys(seed, n):
        direct = min((r + s, Fraction(s)) for r, s in phi.terms)
        got = rank2_eval(rho, phi)
        if got != direct:
            raise _Failed(f"{phi}: {got} != {direct}", phi)
    if rank1_section(rho) is not None:
        raise _Failed("rank-1 section should not exist for these weights")
    return f"{n} seeded polynomials agree; no rank-1 section"


# ---------------------------------------------------------------------------
# 4: the forked interval is not a tree
# ---------------------------------------------------------------------------


@_criterion(4, "forked interval: {X,Y} has no infimum")
def criterion_4(seed: int, scale: float) -> str:
    if fi_infimum([FI_X, FI_Y]) is not None:
        raise _Failed("an infimum was produced for the fork ends")
    steps = _count(50, scale)
    sched = fi_no_infimum_schedule(steps)
    poset = ForkedIntervalPoset()
    if len(sched) < steps + 1:
        raise _Failed(f"schedule too short: {len(sched)}")
    for i, t in enumerate(sched):
        if not (poset.leq(fi_seg(t), FI_X) and poset.leq(fi_seg(t), FI_Y)):
            raise _Failed(f"schedule entry {t} is not a common lower bound", t)
        if i and not sched[i - 1] < t:
            raise _Failed(f"schedule not strictly increasing at {i}", t)
    rep = fi_axiom_report()
    if not (rep.t1 and rep.t2 and rep.t3) or rep.t4 or rep.witness is None:
        raise _Failed(f"axiom report off: {rep}", rep)
    return f"{steps} ascending lower bounds; T1-T3 pass, T4 fails"


# ---------------------------------------------------------------------------
# 5-6: the meet construction
# ---------------------------------------------------------------------------


def _divisorial_truncations(nu: QuasiMonomialVal) -> List[QuasiMonomialVal]:
    """The valuation's dilatation prefixes, each closed off divisorially."""
    steps, _ = _closing(canonicalize(nu))
    return [
        normalize(QuasiMonomialVal(steps[:k], IDENTITY_FRAME, (ONE, ONE)))
        for k in range(len(steps) + 1)
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
            # the deeper side's next center c leaves along the direction [-c:1]
            dirs.append(form.steps[len(chain)].negate())
        elif isinstance(form.terminal, Curve) and len(form.steps) == len(chain):
            dirs.append(form.terminal.direction)
    seen = set()
    for d in dirs:
        if d in seen:
            continue
        seen.add(d)
        yield curvette(chain, d)
    yield from fallback


@_criterion(5, "meet is the greatest common lower bound")
def criterion_5(seed: int, scale: float) -> str:
    n_pairs = _count(200, scale)
    n_polys = _count(500, scale)
    _run_items(lambda i: _criterion_5_pair(seed, i, n_polys), n_pairs)
    return f"{n_pairs} pairs: bound x{n_polys}, laws, maximality"


def _criterion_5_pair(seed: int, i: int, n_polys: int) -> None:
    """Criterion 5 on its pair i; raises `_Failed` when the pair fails."""
    nu = gen_qmv(seed + 2 * i + 1, max_depth=4, denom_bound=10)
    mu = gen_qmv(seed + 2 * i + 2, max_depth=4, denom_bound=10)
    w = meet(nu, mu)
    phis = sample_polys(seed + 31 * i, n_polys, max_deg=3, max_terms=3, coeff_bound=5)
    values = ValueNumerators((w, nu, mu))
    for phi in phis:
        n_w, n_nu, n_mu = values(phi)
        if n_w > n_nu or n_w > n_mu:
            raise _Failed(f"pair {i}: not a lower bound at {phi}", (nu, mu, phi))
    if not equal_valuations(meet(nu, nu), nu):
        raise _Failed(f"pair {i}: meet not idempotent", nu)
    if not equal_valuations(meet(mu, nu), w):
        raise _Failed(f"pair {i}: meet not commutative", (nu, mu))
    rho = gen_qmv(seed + 7919 * i + 3, max_depth=4, denom_bound=10)
    if not equal_valuations(meet(meet(nu, mu), rho), meet(nu, meet(mu, rho))):
        raise _Failed(f"pair {i}: meet not associative", (nu, mu, rho))
    for cand in _divisorial_truncations(nu) + _divisorial_truncations(mu):
        if compare(w, cand) is not Comparison.LT:
            continue
        pool = _refutation_pool(cand, nu, mu, phis)
        if not any(
            (v := evaluate(cand, phi)) > evaluate(nu, phi) or v > evaluate(mu, phi)
            for phi in pool
        ):
            raise _Failed(f"pair {i}: candidate above the meet never refuted", (nu, mu, cand))


@_criterion(6, "derived meet fixtures")
def criterion_6(seed: int, scale: float) -> str:
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
            raise _Failed(f"{label}: {canonicalize(got)} != {canonicalize(want)}", got)
    return "three fixtures match canonically"


# ---------------------------------------------------------------------------
# 7-8: degree-one forms and their residue classes
# ---------------------------------------------------------------------------


@_criterion(7, "a shared m-value minimizer exists for every pair")
def criterion_7(seed: int, scale: float) -> str:
    n = _count(200, scale)

    def pair(i: int) -> None:
        nu = gen_qmv(seed + 11 * i + 4)
        mu = gen_qmv(seed + 11 * i + 5)
        a, b = common_minimizer(nu, mu)
        form = BivarPoly.linear_form(a, b)
        if evaluate(nu, form) != m_value(nu) or evaluate(mu, form) != m_value(mu):
            raise _Failed(f"pair {i}: {a}x+{b}y is not minimal for both", (nu, mu))

    _run_items(pair, n)
    return f"{n} pairs minimized exactly"


@_criterion(8, "residue classes of unit pairs govern strict values")
def criterion_8(seed: int, scale: float) -> str:
    n_quads = _count(100, scale)
    n_vals = _count(20, scale)
    vals = [gen_qmv(seed + 13 * j + 6) for j in range(n_vals)]

    def quad(q: int) -> None:
        pairs = [gen_unit_pair(seed + 4507 * q + j) for j in range(4)]
        forms = [pair_form(p) for p in pairs]
        # the relation and the strictness of every form, each computed once
        sim = [[sim_pairs(p1, p2) for p2 in pairs] for p1 in pairs]
        strict = [[evaluate(nu, form) > 1 for nu in vals] for form in forms]
        for a in range(4):
            if not sim[a][a]:
                raise _Failed(f"quad {q}: relation not reflexive", pairs[a])
            for b in range(4):
                r = sim[a][b]
                if r != sim[b][a]:
                    raise _Failed(f"quad {q}: relation not symmetric", (a, b))
                for c in range(4):
                    if r and sim[b][c] and not sim[a][c]:
                        raise _Failed(f"quad {q}: relation not transitive", (a, b, c))
                for sa, sb in zip(strict[a], strict[b]):
                    if r and sa != sb:
                        raise _Failed(f"quad {q}: similar pairs split strictness", (a, b))
                    if sa and sb and not r:
                        raise _Failed(f"quad {q}: two strict pairs not similar", (a, b))

    _run_items(quad, n_quads)
    return f"{n_quads} quadruples x {n_vals} valuations"


# ---------------------------------------------------------------------------
# 9-10: dilatation streams and the value axioms
# ---------------------------------------------------------------------------


_STREAM_CAP = 64


def _stream_multiplicities(nu: QuasiMonomialVal) -> List[Fraction]:
    out: List[Fraction] = []
    for center, m in multiplicity_stream(nu):
        if center is TERMINAL or len(out) >= _STREAM_CAP:
            break
        out.append(m)
    return out


@_criterion(9, "multiplicity streams match the subtractive oracle")
def criterion_9(seed: int, scale: float) -> str:
    fixture = normalize(monomial(ONE, Fraction(5, 2)))
    if _stream_multiplicities(fixture) != [ONE, ONE, Fraction(1, 2)]:
        raise _Failed("fixture (1,5/2) stream is off", fixture)
    if dilatation_length(fixture) != 4:
        raise _Failed("fixture (1,5/2) length is off", fixture)
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
            raise _Failed(f"weights ({g1},{g2}): {got} != {want}", (g1, g2))
    return f"{n} weight pairs plus the (1,5/2) fixture"


@_criterion(10, "value axioms hold exactly")
def criterion_10(seed: int, scale: float) -> str:
    n = _count(1000, scale)
    one, zero = BivarPoly.constant(1), BivarPoly.zero()

    def triple(i: int) -> None:
        nu = gen_qmv(seed + 17 * i + 7)
        phi, psi = sample_polys(seed + 17 * i + 8, 2, max_deg=3, max_terms=3, coeff_bound=5)
        vp, vq = evaluate(nu, phi), evaluate(nu, psi)
        if evaluate(nu, phi * psi) != vp + vq:
            raise _Failed(f"triple {i}: product rule fails", (nu, phi, psi))
        if evaluate(nu, phi + psi) < min(vp, vq):
            raise _Failed(f"triple {i}: sum bound fails", (nu, phi, psi))
        if evaluate(nu, one) != 0 or not is_inf(evaluate(nu, zero)):
            raise _Failed(f"triple {i}: unit/zero values off", nu)

    _run_items(triple, n)
    return f"{n} triples, zero violations"


# ---------------------------------------------------------------------------
# 11-14: tree topology checks
# ---------------------------------------------------------------------------


def _tree_draws(
    tree_seed: int, target: int, salt: int, per_tree: int, draw: Callable[..., list]
) -> Tuple[list, Optional[Exception]]:
    """Items drawn one seeded tree after another, ``draw(psi, points, rng)``
    at most ``per_tree`` times a tree, until there are ``target``; and the
    exception met while drawing, if any, to raise if no item before it fails."""
    items: list = []
    try:
        while len(items) < target:
            tree = gen_tree(tree_seed)
            tree_seed += 1
            psi, pts, rng = PathParam(tree), tree.grid_points(2), random.Random(tree_seed * salt)
            for _ in range(min(per_tree, target - len(items))):
                items += draw(psi, pts, rng)
    except Exception as exc:
        return items, exc
    return items, None


@_criterion(11, "tangent classes: segment test and metric additivity")
def criterion_11(seed: int, scale: float) -> str:
    def draw(psi: PathParam, pts: List[TreePoint], rng: random.Random) -> list:
        tau, sigma, alpha = (rng.choice(pts) for _ in range(3))
        return [] if sigma == tau or alpha == tau else [(psi, tau, sigma, alpha)]

    triples, raised = _tree_draws(seed, _count(1000, scale), 31, 50, draw)

    def triple(i: int) -> None:
        psi, tau, sigma, alpha = triples[i]
        prim = t_tangent_equiv(tau, sigma, alpha)
        if prim != t_tangent_equiv_definitional(tau, sigma, alpha):
            raise _Failed("tangent implementations disagree", (tau, sigma, alpha))
        if prim == t_segment_member(tau, alpha, sigma):
            raise _Failed("segment biconditional fails", (tau, sigma, alpha))
        if t_segment_member(tau, alpha, sigma):
            lhs = t_dpsi(psi, alpha, sigma)
            rhs = t_dpsi(psi, alpha, tau) + t_dpsi(psi, tau, sigma)
            if lhs != rhs:
                raise _Failed("distance not additive through the midpoint", (tau, sigma, alpha))
        mid = t_meet(alpha, sigma)
        if t_dpsi(psi, alpha, sigma) != t_dpsi(psi, alpha, mid) + t_dpsi(psi, mid, sigma):
            raise _Failed("distance not additive through the join", (alpha, sigma))

    _run_items(triple, len(triples), raised)
    return f"{len(triples)} triples, dual implementations agree"


@_criterion(12, "metric balls sit inside tangent classes")
def criterion_12(seed: int, scale: float) -> str:
    def draw(psi: PathParam, pts: List[TreePoint], rng: random.Random) -> list:
        tau, sigma = rng.choice(pts), rng.choice(pts)
        if sigma == tau:
            return []
        others = (g for g in pts if g != tau and g != sigma and t_tangent_equiv(tau, sigma, g))
        extra = next(others, None)
        if extra is not None and rng.random() < 0.5:
            return [(psi, tau, sigma, sigma), (psi, tau, sigma, extra)]
        return [(psi, tau, sigma, sigma)]

    configs, raised = _tree_draws(seed + 101, _count(1000, scale), 37, 40, draw)

    def config(i: int) -> None:
        psi, tau, sigma, gamma = configs[i]
        rep = ball_in_subbasic_check(psi, sigma, tau, gamma, samples=3)
        if not rep.ok():
            raise _Failed(f"violations at config {i + 1}", (tau, sigma, gamma, rep))

    _run_items(config, len(configs), raised)
    return f"{len(configs)} configurations, zero violations"


@_criterion(13, "star witnesses escape every listed neighborhood")
def criterion_13(seed: int, scale: float) -> str:
    n_seeds = _count(50, scale)
    n_branches, k = 1000, 20
    star = build_star(n_branches)
    for s in range(n_seeds):
        branches, refs = star_neighborhoods(star, k, random.Random(seed + 257 * s))
        alpha = star_witness(star, refs)
        if alpha.path[0] in set(branches):
            raise _Failed(f"seed {s}: witness reuses a listed branch", alpha)
        for ref in refs:
            if not class_member(ref, alpha):
                raise _Failed(f"seed {s}: witness misses a neighborhood", (ref, alpha))
    return f"{n_seeds} seeds x {k} neighborhoods on {n_branches} branches"


@_criterion(14, "set infima agree with folded binary meets")
def criterion_14(seed: int, scale: float) -> str:
    n_trees = _count(100, scale)

    def tree_check(i: int) -> None:
        tree = gen_tree(seed + 23 * i + 9, max_nodes=30)
        psi = PathParam(tree)
        pts = tree.grid_points(1)
        rng = random.Random(seed + 23 * i + 10)
        size = rng.randint(2, min(6, len(pts)))
        S = rng.sample(pts, size)
        want = reduce(lambda p, q: brute_meet_oracle(tree, p, q), S)
        back = reduce(lambda p, q: brute_meet_oracle(tree, p, q), list(reversed(S)))
        if want != back:
            raise _Failed(f"tree {i}: fold order matters", S)
        for tau in S:
            got = t_inf_set(S, tau, psi)
            if got != want:
                raise _Failed(f"tree {i}: mismatch for tau={tau}", (S, tau))

    _run_items(tree_check, n_trees)
    spine = RootedTree({(0,): Fraction(5, 2)})
    psi = PathParam(spine)
    tip = spine.node_point((0,))
    limit = chain_infimum(spine, psi, tip, Fraction(2), ONE, probe=64)
    if psi.psi(limit) != 2:
        raise _Failed(f"chain limit off: psi={psi.psi(limit)}", limit)
    return f"{n_trees} trees, every member choice; chain limit exact"


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


@_criterion(15, "krull round trip and product rule")
def criterion_15(seed: int, scale: float) -> str:
    n_curves = _count(50, scale)
    lifts = []
    for i in range(n_curves):
        nu = _seeded_curve(seed + 29 * i + 11)
        k = krull_lift(nu)
        if not isinstance(k, KrullRank2):
            raise _Failed(f"curve {i}: lift is not rank 2", nu)
        back = rank1_section(k.val)
        if back is None or not equal_valuations(back, nu):
            raise _Failed(f"curve {i}: section does not invert the lift", nu)
        lifts.append(k.val)
    n_products = _count(500, scale)

    def product(i: int) -> None:
        rho = lifts[i % len(lifts)]
        phi, psi = sample_polys(seed + 37 * i + 12, 2, max_deg=3, max_terms=3, coeff_bound=5)
        vp, vq = rank2_eval(rho, phi), rank2_eval(rho, psi)
        got = rank2_eval(rho, phi * psi)
        if got != (vp[0] + vq[0], vp[1] + vq[1]):
            raise _Failed(f"product {i}: {got} != {vp}+{vq}", (phi, psi))

    _run_items(product, n_products)
    return f"{n_curves} curves inverted; {n_products} products additive"


ALL_CRITERIA: Tuple[Callable[..., SuiteResult], ...] = tuple(_CRITERIA)


def run_all(seed: int = DEFAULT_SEED, scale: float = 1.0) -> List[SuiteResult]:
    return [c(seed, scale) for c in ALL_CRITERIA]
