"""Seeded generators and independent brute-force oracles for the test suites.

All generators are pure functions of their integer seed; identical seeds
reproduce identical objects.  Oracles re-derive results along a different
route than the code under test (subtractive walks, exhaustive enumeration,
plain sampling) and never share its internals.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, List, Tuple

from .poly import BivarPoly, Record
from .rationals import INF, ONE
from .tree import RootedTree, TreePoint, t_leq
from .valuation import (
    CanonicalForm,
    Curve,
    INF_POINT,
    M_ADIC,
    ProjPoint,
    QuasiMonomialVal,
    evaluate,
    from_canonical,
    monomial,
    normalize,
)

DEFAULT_SEED = 0xC0FFEE

_X = BivarPoly.var_x()
_Y = BivarPoly.var_y()


# The generators draw through ``getrandbits`` exactly as ``random.Random``
# draws ``randint(a, b)`` and ``choice(seq)``: a uniform index below
# n = b - a + 1 (or len(seq)) is ``getrandbits(n.bit_length())``, drawn again
# while it is n or more.  The streams, and so every generated object, are
# those of the plain calls; tests/test_testkit.py compares them.


def _randint(getrandbits, a: int, b: int) -> int:
    """``rng.randint(a, b)`` drawn from ``rng.getrandbits``."""
    n = b - a + 1
    if n <= 0:
        raise ValueError(f"empty range for randint({a}, {b})")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return a + r


# _SIGNED[sign][c - 1] is the coefficient c (sign 0) or -c (sign 1)
_SIGNED = tuple(tuple(Fraction(u * c) for c in range(1, 65)) for u in (1, -1))


def _poly_from_rng(
    rng: random.Random, max_deg: int, max_terms: int, coeff_bound: int
) -> BivarPoly:
    """Draws as ``randint(1, max_terms)`` terms of ``r = randint(0, max_deg)``,
    ``s = randint(0, max_deg - r)`` and ``randint(1, coeff_bound) *
    choice((1, -1))``, a later term overwriting an earlier one at (r, s)."""
    if max_deg < 0 or max_terms < 1 or coeff_bound < 1:
        raise ValueError("bounds must be positive")
    bits = rng.getrandbits
    n_r = max_deg + 1
    k_r = n_r.bit_length()
    k_c = coeff_bound.bit_length()
    terms = {}
    for _ in range(_randint(bits, 1, max_terms)):
        r = bits(k_r)
        while r >= n_r:
            r = bits(k_r)
        n_s = n_r - r
        k = n_s.bit_length()
        s = bits(k)
        while s >= n_s:
            s = bits(k)
        c = bits(k_c)
        while c >= coeff_bound:
            c = bits(k_c)
        sign = bits(2)
        while sign >= 2:
            sign = bits(2)
        row = _SIGNED[sign]
        terms[(r, s)] = row[c] if c < len(row) else Fraction((1 - 2 * sign) * (c + 1))
    return BivarPoly._trusted(terms)


def gen_poly(
    seed: int, max_deg: int = 4, max_terms: int = 5, coeff_bound: int = 10
) -> BivarPoly:
    """A sparse integer-coefficient polynomial, deterministic per seed."""
    return _poly_from_rng(random.Random(seed), max_deg, max_terms, coeff_bound)


def sample_polys(
    seed: int, n: int, max_deg: int = 4, max_terms: int = 5, coeff_bound: int = 10
) -> List[BivarPoly]:
    """n seeded polynomials from one generator stream."""
    rng = random.Random(seed)
    return [_poly_from_rng(rng, max_deg, max_terms, coeff_bound) for _ in range(n)]


def _rat_from_rng(rng: random.Random, denom_bound: int, lo: int = 1, hi: int = 6) -> Fraction:
    bits = rng.getrandbits
    den = _randint(bits, 1, denom_bound)
    return Fraction(_randint(bits, lo, hi * den), den)


def _tail_weights(
    rng: random.Random, denom_bound: int, cap: int
) -> Tuple[Fraction, Fraction]:
    """A weight pair whose subtractive program has at most cap levels.

    Each weight is drawn as ``_rat_from_rng`` draws it, denominator first,
    but as integers: only the accepted pair is made into Fractions."""
    bits = rng.getrandbits
    while True:
        d1 = _randint(bits, 1, denom_bound)
        n1 = _randint(bits, 1, 6 * d1)
        d2 = _randint(bits, 1, denom_bound)
        n2 = _randint(bits, 1, 6 * d2)
        # the Euclid quotients of w1/w2, unreduced: a common factor leaves them alone
        p, q = n1 * d2, d1 * n2
        length = 0
        while q:
            length += p // q
            p, q = q, p % q
        if length <= cap:
            return Fraction(n1, d1), Fraction(n2, d2)


def gen_qmv(seed: int, max_depth: int = 4, denom_bound: int = 10) -> QuasiMonomialVal:
    """A random normalized valuation.

    Mix: 20% the m-adic valuation, 30% pure monomial weights, 40% translated
    dilatation programs with finite weights, 10% level-0 curve types.  The
    weight pair is re-drawn until its subtractive program fits the depth
    bound, so canonical chains stay short.
    """
    if max_depth < 0 or denom_bound < 1:
        raise ValueError("bounds must be positive")
    rng = random.Random(seed)
    roll = rng.random()
    cap = max(2, max_depth)
    if roll < 0.2:
        return M_ADIC
    if roll < 0.5 or max_depth == 0:
        w1, w2 = _tail_weights(rng, denom_bound, cap)
        return normalize(monomial(w1, w2))
    if roll < 0.9:
        depth = rng.randint(1, max_depth)
        steps = tuple(
            INF_POINT
            if rng.random() < 0.15
            else ProjPoint(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            for _ in range(depth)
        )
        w1, w2 = _tail_weights(rng, denom_bound, cap)
        return normalize(QuasiMonomialVal(steps, weights=(w1, w2)))
    direction = (
        INF_POINT
        if rng.random() < 0.2
        else ProjPoint(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    )
    gamma = _rat_from_rng(rng, denom_bound)
    return normalize(from_canonical(CanonicalForm((), Curve(direction, gamma))))


def gen_unit_pair(
    seed: int, coeff_bound: int = 5, zero_prob: float = 0.15
) -> Tuple[BivarPoly, BivarPoly]:
    """A pair of unit-or-zero polynomials, not both zero."""
    rng = random.Random(seed)

    def entry() -> BivarPoly:
        c = Fraction(rng.randint(1, coeff_bound) * rng.choice((1, -1)))
        unit = BivarPoly.constant(c)
        for _ in range(rng.randint(0, 2)):
            r = rng.randint(0, 2)
            s = rng.randint(0, 2 - r) if r < 2 else 0
            if (r, s) != (0, 0):
                unit = unit + BivarPoly.monomial(r, s, rng.randint(-3, 3))
        return unit

    a = BivarPoly.zero() if rng.random() < zero_prob else entry()
    b = BivarPoly.zero() if (not a.is_zero() and rng.random() < zero_prob) else entry()
    return (a, b)


def pair_form(pair: Tuple[BivarPoly, BivarPoly]) -> BivarPoly:
    """The combination a*x + b*y of a coefficient pair."""
    a, b = pair
    return a * _X + b * _Y


def euclid_multiplicity_oracle(g1, g2) -> List[Fraction]:
    """Multiplicities of a monomial valuation by plain subtractive Euclid."""
    a, b = Fraction(g1), Fraction(g2)
    if a <= 0 or b <= 0:
        raise ValueError("weights must be positive")
    out = []
    while a != b:
        out.append(min(a, b))
        if a > b:
            a = a - b
        else:
            b = b - a
    return out


def curvette(steps: Tuple[ProjPoint, ...], direction: ProjPoint) -> BivarPoly:
    """An equation whose branch follows the given centers, then the direction.

    Built by blowing the deepest linear form back down; each finite center c
    undoes y <- x*(y+c), the infinite center undoes x <- x*y.  The equation is
    only defined up to a scalar, so coefficients stay content-free integers.
    The resulting valuation value is infinite exactly for the matching curve.
    """
    a, b = direction.as_pair()
    terms = {e: c for e, c in (((1, 0), a), ((0, 1), b)) if c}
    for step in reversed(tuple(steps)):
        if step.is_inf:
            d = max(r for r, _ in terms)
            terms = {(r, s + d - r): c for (r, s), c in terms.items()}
            continue
        p, q = step.value.numerator, step.value.denominator
        d = max(s for _, s in terms)
        # powers of q*y - p*x; the q^s is offset below so the whole
        # polynomial is the blow-down times the single scalar q^d
        powers: List[Dict[Tuple[int, int], int]] = [{(0, 0): 1}]
        while len(powers) <= d:
            nxt: Dict[Tuple[int, int], int] = {}
            for (u, v), k in powers[-1].items():
                for e, m in (((u + 1, v), -k * p), ((u, v + 1), k * q)):
                    w = nxt.get(e, 0) + m
                    if w:
                        nxt[e] = w
                    elif e in nxt:
                        del nxt[e]
            powers.append(nxt)
        acc: Dict[Tuple[int, int], int] = {}
        for (r, s), coeff in terms.items():
            lifted = coeff * q ** (d - s)
            shift = r + d - s
            for (u, v), k in powers[s].items():
                e = (u + shift, v)
                w = acc.get(e, 0) + lifted * k
                if w:
                    acc[e] = w
                elif e in acc:
                    del acc[e]
        content = math.gcd(*acc.values())
        terms = {e: c // content for e, c in acc.items()}
    return BivarPoly(terms)


def brute_meet_oracle(tree: RootedTree, p: TreePoint, q: TreePoint) -> TreePoint:
    """Greatest common lower bound by full enumeration of node points.

    The root lies below every point, so the search starts there."""
    best = tree.root_point()
    for r in tree.node_points() + [p, q]:
        if t_leq(r, p) and t_leq(r, q) and t_leq(best, r):
            best = r
    return best


class ConsistentWithLeq(Record):
    """No sampled counterexample; proves nothing, corroborates compare()."""


class Counterexample(Record):
    phi: BivarPoly


_PROBES = (_X, _Y, _X + _Y, _X - _Y, _X * _Y)


def sampling_leq_oracle(
    nu: QuasiMonomialVal,
    mu: QuasiMonomialVal,
    seed: int = DEFAULT_SEED,
    n: int = 50,
):
    """Search for phi with nu(phi) > mu(phi), refuting nu <= mu."""
    if n <= 0:
        raise ValueError("sample count must be positive")
    rng = random.Random(seed)
    for phi in _PROBES:
        if evaluate(nu, phi) > evaluate(mu, phi):
            return Counterexample(phi)
    for _ in range(n):
        phi = _poly_from_rng(rng, 4, 5, 9)
        if evaluate(nu, phi) > evaluate(mu, phi):
            return Counterexample(phi)
    return ConsistentWithLeq()


def gen_tree(
    seed: int, max_nodes: int = 12, denom_bound: int = 4, inf_prob: float = 0.12
) -> RootedTree:
    """A random rooted tree with rational edge lengths, infinite on some leaves."""
    if max_nodes < 2:
        raise ValueError("need room for at least one edge")
    rng = random.Random(seed)
    edges = {}
    frontier = [()]
    budget = rng.randint(1, max_nodes - 1)
    while frontier and budget > 0:
        parent = frontier.pop(rng.randrange(len(frontier)))
        n_kids = min(budget, rng.randint(0 if parent else 1, 3))
        for i in range(n_kids):
            path = parent + (i,)
            if rng.random() < inf_prob:
                edges[path] = INF  # leaf edge; never extended
            else:
                edges[path] = _rat_from_rng(rng, denom_bound, 1, 3)
                frontier.append(path)
            budget -= 1
    if not edges:
        edges[(0,)] = ONE
    return RootedTree(edges)
