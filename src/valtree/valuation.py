"""Finite descriptions of valuations centered at the origin, and their algebra.

A valuation is described by a *dilatation program*: a list of blow-up centers,
an optional linear coordinate frame, and a final pair of monomial weights.
Every question reads the values ``(v(x_i), v(y_i))`` of the coordinates at
each level first.  Chain questions (legality, m-values, multiplicities,
meets) need nothing else, and they run on integers: the level values are
integer numerators over one denominator, canonicalization takes each run of
Euclid's algorithm on the weights with one ``divmod``-style quotient, and
``meet`` compares multiplicities by cross-multiplication, so no valuation is
built per dilatation step.  A chain longer than ``MAX_CHAIN_STEPS`` steps is
refused with ``ChainTooLongError`` before it is built.  Evaluation takes the
least ``r*v(x) + s*v(y)`` over the terms of a polynomial, which is its value
unless the least terms can cancel.  Only then does it push the polynomial
through the centers one chart at a time, on integer coefficients: each chart
divides out the new exceptional coordinate and adds that power times the
coordinate's level value, and the first strict transform with a unique least
term gives the value.  Past the last center the remainder is rewritten in
the frame coordinates and its weighted order taken.

Each valuation on the path parse -> normalize -> meet is built once: a
construction runs the level recursion once and keeps the level-0 numerators,
``normalize`` derives the rescaled program from them without running it
again when both are finite, and centers, frames and valuations keep their
hashes.

Conventions, fixed once and used everywhere:

* a finite center ``c`` performs the chart substitution ``y <- x*(y + c)``;
  the center at infinity performs ``x <- x*y``;
* the center ``c`` corresponds to the direction ``[-c : 1]`` of the projective
  line of linear forms ``a*x + b*y``, and the infinite center to ``[1 : 0]``;
  ``ProjPoint.negate`` converts either way, being its own inverse;
* weights are strictly positive and at most one of them is infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .poly import (
    BivarPoly,
    BothWeightsInfiniteError,
    IDENTITY_FRAME,
    LinearFrame,
    _cached_hash,
    frame_apply,
    weighted_order,
)
from .rationals import INF, ExtRat, Infinity, ONE, ZERO, is_inf, scale


class EmptySetError(ValueError):
    """Raised when an infimum of no elements is requested."""


class PreconditionViolatedError(ValueError):
    """Raised when an operation's documented precondition does not hold."""


class InvalidPairError(ValueError):
    """Raised for residue-class pairs that are not unit-or-zero, or both zero."""


class DivisionUndefinedError(ValueError):
    """Raised when a membership test divides by an element of the support."""


class UnsupportedDeepCurveError(ValueError):
    """Raised for curve valuations whose support generator is not linear."""


class ChainTooLongError(ValueError):
    """Raised when a canonical chain would exceed ``MAX_CHAIN_STEPS`` steps."""


@dataclass(frozen=True)
class ProjPoint:
    """A point of P^1(Q): a finite rational, or the point at infinity."""

    value: ExtRat

    def __post_init__(self):
        if not isinstance(self.value, (Fraction, Infinity)):
            object.__setattr__(self, "value", Fraction(self.value))

    def __hash__(self) -> int:
        return _cached_hash(self, (self.value,))

    @property
    def is_inf(self) -> bool:
        return is_inf(self.value)

    def negate(self) -> "ProjPoint":
        """The direction of a center, or the center of a direction: the
        finite part negated, infinity kept.  The conversion is its own inverse."""
        return self if self.is_inf else ProjPoint(-self.value)

    def as_pair(self) -> Tuple[int, int]:
        """Primitive integer representative [a:b], with b >= 0."""
        if self.is_inf:
            return (1, 0)
        return (self.value.numerator, self.value.denominator)

    def form(self) -> BivarPoly:
        a, b = self.as_pair()
        return BivarPoly.linear_form(a, b)

    def __str__(self) -> str:
        return "inf" if self.is_inf else str(self.value)


INF_POINT = ProjPoint(INF)
ZERO_POINT = ProjPoint(0)


def direction_enumeration() -> Iterator[ProjPoint]:
    """[1:0], [0:1], [1:1], [1:-1], [1:2], [1:-2], ... every class eventually."""
    yield INF_POINT
    yield ZERO_POINT
    n = 1
    while True:
        yield ProjPoint(Fraction(1, n))
        yield ProjPoint(Fraction(-1, n))
        n += 1


def _coerce_weight(w) -> ExtRat:
    return w if isinstance(w, (Fraction, Infinity)) else Fraction(w)


@dataclass(frozen=True)
class QuasiMonomialVal:
    """A dilatation program: centers, a coordinate frame, and monomial weights.

    The default instance is the order of vanishing at the origin (the m-adic
    valuation): no steps, identity frame, weights (1, 1).
    """

    steps: Tuple[ProjPoint, ...] = ()
    frame: LinearFrame = field(default=IDENTITY_FRAME)
    weights: Tuple[ExtRat, ExtRat] = (ONE, ONE)

    def __post_init__(self):
        steps = tuple(
            s if isinstance(s, ProjPoint) else ProjPoint(s) for s in self.steps
        )
        object.__setattr__(self, "steps", steps)
        w1, w2 = (_coerce_weight(w) for w in self.weights)
        if is_inf(w1) and is_inf(w2):
            raise BothWeightsInfiniteError("at most one weight may be infinite")
        if w1 <= 0 or w2 <= 0:
            raise ValueError("weights must be strictly positive")
        object.__setattr__(self, "weights", (w1, w2))
        if not isinstance(self.frame, LinearFrame):
            object.__setattr__(self, "frame", LinearFrame(self.frame))
        q, levels = _level_numerators(self)
        nx, ny = levels[0]
        if nx is None and ny is None:
            raise ValueError(
                "illegal program: every element of the maximal ideal "
                "would get value infinity"
            )
        self._set_level0(q, nx, ny, _head_root(self) if nx == ny else None)

    @classmethod
    def _derived(
        cls, steps: Tuple[ProjPoint, ...], frame: LinearFrame, weights: Tuple[ExtRat, ExtRat],
        q: int, nx: _Num, ny: _Num, root: Optional[Tuple[int, int]],
    ) -> "QuasiMonomialVal":
        """A program whose level-0 numerators are already known, built without
        the checks and the level recursion of ``__post_init__``.

        Precondition: the fields are as ``__post_init__`` leaves them and
        describe a legal program; q is the lcm of the finite weights'
        denominators, ``nx/q`` and ``ny/q`` are its level-0 values, and root
        is ``_head_root`` of the program when they are equal."""
        nu = object.__new__(cls)
        object.__setattr__(nu, "steps", steps)
        object.__setattr__(nu, "frame", frame)
        object.__setattr__(nu, "weights", weights)
        nu._set_level0(q, nx, ny, root)
        return nu

    def _set_level0(self, q: int, nx: _Num, ny: _Num, root: Optional[Tuple[int, int]]) -> None:
        """Keep the level-0 values, and ``_lead = (nx, ny, q, root, values)``
        when both are finite, else None; values maps a numerator n to
        ``Fraction(n, q)`` for the values ``evaluate`` has returned, at most
        ``_VALUE_TABLE_SIZE`` of them.  Kept beside the fields like the
        engine: equality, hash and repr read only steps, frame and weights."""
        object.__setattr__(self, "_level0", (_value(nx, q), _value(ny, q)))
        lead = None if nx is None or ny is None else (nx, ny, q, root, {})
        object.__setattr__(self, "_lead", lead)

    def __hash__(self) -> int:
        return _cached_hash(self, (self.steps, self.frame, self.weights))

    def __call__(self, phi: BivarPoly) -> ExtRat:
        return evaluate(self, phi)


_X = BivarPoly.var_x()
_Y = BivarPoly.var_y()


# ---------------------------------------------------------------------------
# evaluation
#
# The valuation is ultrametric, so v(phi) is the least term value
# ``r*v(x) + s*v(y)`` unless the least terms cancel.  ``evaluate`` decides
# from the level-0 values in tiers, each exact:
#
# 1. one value infinite: the terms containing that coordinate are infinite
#    and the others are powers of one variable, which never tie;
# 2. both finite: a unique least term is the value;
# 3. a tie with v(x) = v(y) = m: the tied terms form a homogeneous form f of
#    degree d.  At most one linear form l (the head's exceptional form) is
#    valued above m; unless l divides f, f = c*l'^d + l*g with c != 0, so
#    v(f) = d*m.  l divides f exactly when f vanishes at the root of l, one
#    integer evaluation.  Without an exceptional form no tie cancels;
# 4. anything else (a tie with v(x) != v(y), or f divisible by l) goes to the
#    strict-transform path.
#
# Tiers 2 and 3 share one pass over phi's exponents that keeps the least
# numerator and whether it ties.  A value they settle is ``least / q``; it
# comes from a table on the valuation keyed by the numerator, filled up to
# ``_VALUE_TABLE_SIZE`` entries, so repeated values build no Fraction.
#
# The strict-transform path pushes phi through the program one chart at a
# time, as the blow-up proofs do, on integer coefficients: phi's
# denominators are cleared once, and a positive constant factor never
# changes a value.  At each center the chart substitutes into phi, the
# largest power e of the new exceptional coordinate is divided out, and
# ``e`` times that coordinate's level value is added to the result; what is
# left is the strict transform, valued with the next level's values.  A
# unique least term there is the answer.  Charts at 0 and infinity only map
# exponents, so they keep every term's value and every tie; only a chart at
# a center c != 0 can settle one.  After the last center the valuation is
# monomial in the frame's coordinates: the remainder, usually a few terms,
# is rewritten in them and its weighted order taken.
# ---------------------------------------------------------------------------


def _step_images(step: ProjPoint) -> Tuple[BivarPoly, BivarPoly]:
    if step.is_inf:
        return BivarPoly.monomial(1, 1), _Y
    return _X, BivarPoly({(1, 1): ONE, (1, 0): step.value})


_IntPoly = Dict[Tuple[int, int], int]


def _binomial_row(a: int, b: int, n: int) -> List[int]:
    """The coefficients of ``(a*X + b*Y)^n``, the j-th being that of ``X^(n-j) * Y^j``."""
    return [math.comb(n, j) * a ** (n - j) * b**j for j in range(n + 1)]


def _chart(f: _IntPoly, step: ProjPoint) -> Tuple[int, _IntPoly]:
    """``(e, g)``: the chart of one center applied to f, with g its strict
    transform and e the power of the exceptional coordinate divided out
    (y at infinity, else x), up to a positive constant factor.

    e is the least total degree of f: the chart maps a form of degree d to
    the exceptional coordinate to the d-th times a nonzero polynomial.  At
    infinity ``x <- x*y`` sends ``x^r y^s`` to ``x^r y^(r+s)``; at 0,
    ``y <- x*y`` sends it to ``x^(r+s) y^s``; at ``c = a/b``, ``y <- x*(y + c)``
    sends ``b^s x^r y^s`` to ``x^(r+s) (b*y + a)^s``, so every term is scaled
    by ``b^(top - s)`` for the largest y exponent ``top``."""
    e = min(r + s for r, s in f)
    if step.is_inf:
        return e, {(r, r + s - e): k for (r, s), k in f.items()}
    a, b = step.as_pair()
    if not a:
        return e, {(r + s - e, s): k for (r, s), k in f.items()}
    top = max(s for _, s in f)
    rows: Dict[int, List[int]] = {}
    out: _IntPoly = {}
    get = out.get
    for (r, s), k in f.items():
        row = rows.get(s)
        if row is None:
            row = rows[s] = _binomial_row(a, b, s)
        if b != 1:
            k *= b ** (top - s)
        d = r + s - e
        for j, m in enumerate(row):
            out[d, j] = get((d, j), 0) + k * m
    return e, {t: k for t, k in out.items() if k}


def _in_frame(f: _IntPoly, frame: LinearFrame) -> _IntPoly:
    """f rewritten in the coordinates ``(u, v) = frame * (x, y)``, up to a
    constant factor on each homogeneous part.

    With the rows scaled to integers ``(a, b), (c, d)``, which changes no
    value of u or v, the inverse is ``x = (d*u - b*v)/det`` and
    ``y = (-c*u + a*v)/det``.  The factor ``det^-(r+s)`` of the term
    ``x^r y^s`` is constant on each homogeneous part of f, and a linear
    change of coordinates keeps those parts apart, so it is left out."""
    lcm = math.lcm(*(p.denominator for row in frame.rows for p in row))
    (a, b), (c, d) = ([p.numerator * (lcm // p.denominator) for p in row] for row in frame.rows)
    out: _IntPoly = {}
    get = out.get
    for (r, s), k in f.items():
        us, vs = _binomial_row(d, -b, r), _binomial_row(-c, a, s)
        for i, m in enumerate(us):
            for j, n in enumerate(vs):
                t = (r - i + s - j, i + j)
                out[t] = get(t, 0) + k * m * n
    return {t: k for t, k in out.items() if k}


def _least(f: Iterable[Tuple[int, int]], vx: _Num, vy: _Num) -> Tuple[_Num, bool]:
    """The least value ``r*vx + s*vy`` over the exponents of f, terms that
    contain an infinite coordinate left out (None when every term does), and
    whether two terms reach it."""
    least, tie = None, False
    for r, s in f:
        if (r and vx is None) or (s and vy is None):
            continue
        v = (r * vx if r else 0) + (s * vy if s else 0)
        if least is None or v < least:
            least, tie = v, False
        elif v == least:
            tie = True
    return least, tie


def _strict_transform(nu: QuasiMonomialVal, phi: BivarPoly) -> ExtRat:
    """v(phi) by strict transforms, level by level; phi is nonzero."""
    q, levels = _level_numerators(nu)
    den = math.lcm(*(c.denominator for c in phi.terms.values()))
    f = {t: c.numerator * (den // c.denominator) for t, c in phi.terms.items()}
    acc = 0
    for step, (vx, vy) in zip(nu.steps, islice(levels, 1, None)):
        e, f = _chart(f, step)
        # the exceptional coordinate's value is finite on a legal program:
        # an infinite one would make both values at the level above infinite
        acc += e * (vy if step.is_inf else vx)
        if step.is_inf or not step.value:
            continue  # an exponent map keeps every term's value, so the tie stands
        least, tie = _least(f, vx, vy)
        if not tie:
            return _value(None if least is None else acc + least, q)
    if not nu.frame.is_identity():
        f = _in_frame(f, nu.frame)
    _, n1, n2 = _weight_numerators(nu)
    least, _ = _least(f, n1, n2)
    return _value(None if least is None else acc + least, q)


def _row_direction(frame: LinearFrame, row: int) -> ProjPoint:
    """The direction ``[p : q]`` of one row of a frame."""
    p, q = frame.rows[row]
    return INF_POINT if q == 0 else ProjPoint(p / q)


def _head_exceptional(nu: QuasiMonomialVal) -> Optional[ProjPoint]:
    """The unique direction valued above the m-value, if any.

    It is the direction of the first center of the canonical chain, read off
    the program without canonicalizing: the program's own first center when
    it has one, else the center ``dilate`` would pick, the frame row of the
    larger weight (an infinite weight included).  Equal finite weights make
    the head terminal."""
    if nu.steps:
        return nu.steps[0].negate()
    w1, w2 = nu.weights
    if w1 == w2:
        return None
    return _row_direction(nu.frame, 0 if w1 > w2 else 1)


_VALUE_TABLE_SIZE = 64


def _head_root(nu: QuasiMonomialVal) -> Optional[Tuple[int, int]]:
    """A zero ``(b, -a)`` of the head's exceptional form ``a*x + b*y``, None if
    the head is terminal; ``evaluate`` reads it when ``v(x) = v(y)``."""
    d = _head_exceptional(nu)
    if d is None:
        return None
    a, b = d.as_pair()
    return b, -a


def _vanishes_at(root: Tuple[int, int], terms: List[Tuple[Tuple[int, int], Fraction]]) -> bool:
    """Whether the polynomial with these (exponents, coefficient) pairs is zero at root."""
    rx, ry = root
    den = math.lcm(*(c.denominator for _, c in terms))
    return not sum(c.numerator * (den // c.denominator) * rx**r * ry**s for (r, s), c in terms)


def evaluate(nu: QuasiMonomialVal, phi: BivarPoly) -> ExtRat:
    """The value of nu on phi: read off the level-0 values when the least
    terms cannot cancel, else computed by strict transforms."""
    terms = phi.terms
    if not terms:
        return INF
    lead = nu._lead
    if lead is None:
        # tier 1: only the pure powers of the finite coordinate are finite
        vx, vy = nu._level0
        finite, axis = (vx, 1) if vy is INF else (vy, 0)
        least = min((e[1 - axis] for e in terms if not e[axis]), default=None)
        return INF if least is None else least * finite
    p1, p2, q, root, table = lead
    least = None
    for r, s in terms:
        v = r * p1 + s * p2
        if least is None or v < least:
            least, tie = v, False
        elif v == least:
            tie = True
    if tie and p1 == p2:  # tier 3: the tie cancels only if l divides the tied form
        tie = root is not None and _vanishes_at(
            root, [t for t in terms.items() if (t[0][0] + t[0][1]) * p1 == least]
        )
    if not tie:  # tier 2, or a tier-3 tie that cannot cancel
        value = table.get(least)
        if value is None:
            value = Fraction(least, q)
            if len(table) < _VALUE_TABLE_SIZE:
                table[least] = value
        return value
    return _strict_transform(nu, phi)


def evaluate_naive(nu: QuasiMonomialVal, phi: BivarPoly) -> ExtRat:
    """Reference evaluation by literal substitution; used as a cross-check."""
    work = phi
    for step in nu.steps:
        work = work.substitute(*_step_images(step))
    work = frame_apply(work, nu.frame)
    return weighted_order(work, *nu.weights)


# A level value is an integer numerator over the program's one denominator q,
# or None standing for infinity.
_Num = Optional[int]


def _value(n: _Num, q: int) -> ExtRat:
    return INF if n is None else Fraction(n, q)


def _min_num(u: _Num, v: _Num) -> _Num:
    return v if u is None else u if v is None else min(u, v)


def _levels_back(steps: Sequence[ProjPoint], vx: _Num, vy: _Num) -> List[Tuple[_Num, _Num]]:
    """The values at every level, level 0 first, from those ``(vx, vy)`` after
    the last center.  Each center is undone by its chart: at infinity
    ``x_i = x_{i+1} * y_{i+1}``, else ``y_i = x_{i+1} * (y_{i+1} + c)``, where
    the second factor is a unit unless c = 0."""
    levels = [(vx, vy)]
    for step in reversed(steps):
        c = step.value
        if c is INF:
            vx = None if vx is None or vy is None else vx + vy
        elif c:
            vy = vx
        else:
            vy = None if vx is None or vy is None else vx + vy
        levels.append((vx, vy))
    levels.reverse()
    return levels


def _weight_numerators(nu: QuasiMonomialVal) -> Tuple[int, _Num, _Num]:
    """``(q, n1, n2)``: the weights as integer numerators over q, the lcm of
    the finite weights' denominators."""
    w1, w2 = nu.weights
    q = math.lcm(*(w.denominator for w in (w1, w2) if w is not INF))
    n1 = None if w1 is INF else w1.numerator * (q // w1.denominator)
    n2 = None if w2 is INF else w2.numerator * (q // w2.denominator)
    return q, n1, n2


def _level_numerators(nu: QuasiMonomialVal) -> Tuple[int, List[Tuple[_Num, _Num]]]:
    """``(q, levels)``: ``(v(x_i), v(y_i))`` at every level i, level 0 being the
    original x, y, as integer numerators over q, the lcm of the finite
    weights' denominators.

    The last level gets the weighted orders of the inverse frame's rows,
    ``(d, -b)`` and ``(-c, a)`` up to scale; the recursion back to level 0 adds
    integers only."""
    (a, b), (c, d) = nu.frame.rows
    q, n1, n2 = _weight_numerators(nu)
    vx = _min_num(n1 if d else None, n2 if b else None)
    vy = _min_num(n1 if c else None, n2 if a else None)
    return q, _levels_back(nu.steps, vx, vy)


def _level_values(nu: QuasiMonomialVal) -> List[Tuple[ExtRat, ExtRat]]:
    """The level values of ``_level_numerators`` as exact rationals."""
    q, levels = _level_numerators(nu)
    return [(_value(vx, q), _value(vy, q)) for vx, vy in levels]


def m_value(nu: QuasiMonomialVal) -> Fraction:
    """The value of the maximal ideal: min of the values of x and y."""
    return min(nu._level0)


def monomial(g1, g2) -> QuasiMonomialVal:
    """The monomial valuation with values g1 on x and g2 on y."""
    return QuasiMonomialVal((), IDENTITY_FRAME, (g1, g2))


M_ADIC = QuasiMonomialVal()


def is_normalized(nu: QuasiMonomialVal) -> bool:
    return m_value(nu) == 1


def normalize(nu: QuasiMonomialVal) -> QuasiMonomialVal:
    """Scale the weights so the maximal ideal gets value exactly 1.

    Scaling by ``1/m`` scales every level value by it, keeps the program
    legal and keeps its head, so when both level-0 values are finite the
    result is built from nu's level-0 numerators: with ``m = min(nx, ny)/q``,
    the weights become ``n_i/m`` for the weights' numerators ``n_i`` over q,
    and the level-0 values ``nx/m``, ``ny/m``."""
    lead = nu._lead
    if lead is None:  # a curve program: its level recursion is one number
        m = m_value(nu)
        if m == 1:
            return nu
        inv = 1 / m
        w1, w2 = nu.weights
        return QuasiMonomialVal(nu.steps, nu.frame, (scale(inv, w1), scale(inv, w2)))
    nx, ny, q, root, _ = lead
    m = min(nx, ny)
    if m == q:
        return nu
    weights = tuple(
        w if w is INF else Fraction(w.numerator * (q // w.denominator), m) for w in nu.weights
    )
    q = math.lcm(*(w.denominator for w in weights if w is not INF))
    return QuasiMonomialVal._derived(nu.steps, nu.frame, weights, q, nx * q // m, ny * q // m, root)


def _require_normalized(nu: QuasiMonomialVal, op: str) -> None:
    if m_value(nu) != 1:
        raise PreconditionViolatedError(f"{op} requires a normalized valuation")


# ---------------------------------------------------------------------------
# dilatation, canonical forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Continue:
    step: ProjPoint
    tail: QuasiMonomialVal


@dataclass(frozen=True)
class Terminal:
    gamma: Fraction


@dataclass(frozen=True)
class Divisorial:
    gamma: Fraction


@dataclass(frozen=True)
class Curve:
    direction: ProjPoint
    gamma: Fraction


@dataclass(frozen=True)
class CanonicalForm:
    steps: Tuple[ProjPoint, ...]
    terminal: Union[Divisorial, Curve]

    def __hash__(self) -> int:
        return _cached_hash(self, (self.steps, self.terminal))


def dilate(nu: QuasiMonomialVal) -> Union[Continue, Terminal]:
    """One blow-up of a step-free program.

    Equal finite weights terminate (the valuation is that multiple of the
    m-adic one).  Otherwise the row of larger weight singles out the next
    center and the weights shrink by Euclidean subtraction; an infinite
    weight yields the eventually-constant curve tail.  Weights are exact
    rationals by construction, so this always terminates for finite pairs.
    """
    if nu.steps:
        raise PreconditionViolatedError("dilate expects the reduced head form")
    w1, w2 = nu.weights
    if not is_inf(w1) and not is_inf(w2) and w1 == w2:
        return Terminal(w1)
    big = 0 if w1 > w2 else 1
    large, small = nu.weights[big], nu.weights[1 - big]
    p, q = nu.frame.rows[big]
    if q != 0:
        return Continue(ProjPoint(-p / q), monomial(small, large - small))
    return Continue(INF_POINT, monomial(large - small, small))


# Chains are stored one step per Euclidean subtraction, so weights that are
# short to write can need billions of steps: (1, 10^8) needs 10^8 - 1.  The
# limit admits (1, 10^6), whose chain has 999,999 steps, and is checked
# before each run is added, so a longer chain allocates nothing.
MAX_CHAIN_STEPS = 10**6


@lru_cache(maxsize=None)
def _canonicalize_raw(nu: QuasiMonomialVal) -> CanonicalForm:
    """The canonical form, built without a valuation per dilatation step.

    The head is settled once: a curve if a weight is infinite, a terminal if
    the weights are equal, else the one blow-up ``dilate`` would make, which
    reads the frame row of the larger weight.  After it the frame is the
    identity and the chain is Euclid's algorithm on the two weights' integer
    numerators: each run of the center 0 (or infinity) is one quotient."""
    steps = list(nu.steps)
    w1, w2 = nu.weights
    if w1 is INF or w2 is INF:
        big = 0 if w1 is INF else 1
        # fold trailing steps that merely re-state the curve's own direction;
        # a curve only ends a program that never dilated, and legality makes
        # each folded center match d (0 under 0, inf under inf), see
        # tests/test_valuation.py::TestCanonical::test_curve_fold_invariant
        d = _row_direction(nu.frame, big)
        while steps and d in (ZERO_POINT, INF_POINT):
            d = steps.pop().negate()
        return CanonicalForm(tuple(steps), Curve(d, nu.weights[1 - big]))
    if w1 == w2:
        return CanonicalForm(tuple(steps), Divisorial(w1))
    q = math.lcm(w1.denominator, w2.denominator)
    a, b = w1.numerator * (q // w1.denominator), w2.numerator * (q // w2.denominator)
    center = _row_direction(nu.frame, 0 if a > b else 1).negate()
    steps.append(center)
    small, large = min(a, b), max(a, b)
    a, b = (large - small, small) if center.is_inf else (small, large - small)
    while a != b:
        if a < b:  # n centers 0 take b down to the first value <= a
            n, run = (b - 1) // a, ZERO_POINT
            b -= n * a
        else:
            n, run = (a - 1) // b, INF_POINT
            a -= n * b
        if len(steps) + n > MAX_CHAIN_STEPS:
            raise ChainTooLongError(
                f"the canonical chain needs more than the limit of {MAX_CHAIN_STEPS} steps"
            )
        steps += [run] * n
    return CanonicalForm(tuple(steps), Divisorial(Fraction(a, q)))


def canonicalize(nu: QuasiMonomialVal) -> CanonicalForm:
    """The identity-deciding normal form: reduced steps plus a terminal."""
    _require_normalized(nu, "canonicalize")
    return _canonicalize_raw(nu)


@lru_cache(maxsize=None)
def from_canonical(form: CanonicalForm) -> QuasiMonomialVal:
    """Rebuild a concrete program from a canonical form."""
    t = form.terminal
    if isinstance(t, Divisorial):
        return QuasiMonomialVal(form.steps, IDENTITY_FRAME, (t.gamma, t.gamma))
    if t.direction.is_inf:
        return QuasiMonomialVal(form.steps + (INF_POINT,), IDENTITY_FRAME, (INF, t.gamma))
    return QuasiMonomialVal(
        form.steps + (t.direction.negate(),),
        IDENTITY_FRAME,
        (t.gamma, INF),
    )


def equal_valuations(nu: QuasiMonomialVal, mu: QuasiMonomialVal) -> bool:
    """Equality of normalized valuations, decided on canonical forms."""
    _require_normalized(nu, "equal_valuations")
    _require_normalized(mu, "equal_valuations")
    return _canonicalize_raw(nu) == _canonicalize_raw(mu)


class _TerminalMarker:
    def __repr__(self) -> str:
        return "TERMINAL"


TERMINAL = _TerminalMarker()


_Level = Tuple[object, Fraction, Optional[ExtRat]]
_NumLevel = Tuple[object, int, _Num]


def _curve_tail_center(direction: ProjPoint) -> ProjPoint:
    return INF_POINT if direction.is_inf else ZERO_POINT


def _walk_numerators(form: CanonicalForm) -> Tuple[int, Iterator[_NumLevel]]:
    """``(q, levels)``: per level of a canonical chain, the center (TERMINAL at
    a divisorial end), the multiplicity ``min(v(x_i), v(y_i))`` and the value
    ``v(x_{i+1}) + v(y_{i+1})`` of the level's exceptional linear form, as
    integer numerators over q, the terminal weight's denominator (None for an
    infinite value).

    The values come from the program ``from_canonical`` rebuilds, without
    building it: a divisorial ends on the weights ``(g, g)``, a curve on one
    more center with g and infinity."""
    t = form.terminal
    g, q = t.gamma.numerator, t.gamma.denominator
    if isinstance(t, Divisorial):
        steps, last = form.steps, (g, g)
    elif t.direction.is_inf:
        steps, last = form.steps + (INF_POINT,), (None, g)
    else:
        steps, last = form.steps + (t.direction.negate(),), (g, None)
    return q, _walk_levels(steps, _levels_back(steps, *last), t)


def _walk_levels(
    steps: Sequence[ProjPoint], levels: List[Tuple[_Num, _Num]], t: Union[Divisorial, Curve]
) -> Iterator[_NumLevel]:
    for center, (vx, vy), (nx, ny) in zip(steps, levels, islice(levels, 1, None)):
        yield center, _min_num(vx, vy), None if nx is None or ny is None else nx + ny
    g = t.gamma.numerator
    if isinstance(t, Divisorial):
        yield TERMINAL, g, None
        return
    constant = _curve_tail_center(t.direction)
    while True:
        yield constant, g, None


def _fraction_level(level: _NumLevel, q: int) -> _Level:
    center, m, e = level
    if e is None:
        return center, Fraction(m, q), None if center is TERMINAL else INF
    return center, Fraction(m, q), Fraction(e, q)


def _walk(form: CanonicalForm) -> Iterator[_Level]:
    """Yield (center, m, e) per level of a canonical chain: the levels of
    ``_walk_numerators`` as exact rationals, e being None at a divisorial end."""
    q, levels = _walk_numerators(form)
    for level in levels:
        yield _fraction_level(level, q)


def multiplicity_stream(nu: QuasiMonomialVal):
    """Yield (center, m) along the dilatation sequence.

    Divisorial programs end with a (TERMINAL, gamma) entry; curve programs
    yield their eventually-constant tail forever.
    """
    q, levels = _walk_numerators(_canonicalize_raw(nu))
    for center, m, _ in levels:
        yield center, Fraction(m, q)


def dilatation_length(nu: QuasiMonomialVal) -> Union[int, Infinity]:
    """Number of dilatations, counting the terminal ring; infinite for curves."""
    form = _canonicalize_raw(nu)
    if isinstance(form.terminal, Curve):
        return INF
    return len(form.steps) + 1


# ---------------------------------------------------------------------------
# the infimum construction
# ---------------------------------------------------------------------------


def _exceptional(center) -> Optional[ProjPoint]:
    """The one direction valued above the multiplicity at a level with this center."""
    return None if center is TERMINAL else center.negate()


def exceptional_direction(nu: QuasiMonomialVal) -> Optional[ProjPoint]:
    """The class [a:b] with nu(a*x + b*y) > 1, or None for the m-adic valuation."""
    _require_normalized(nu, "exceptional_direction")
    return _head_exceptional(nu)


def _monomial_meet(
    prefix: Sequence[ProjPoint], level_a: _Level, level_b: _Level,
    side_a: QuasiMonomialVal, side_b: QuasiMonomialVal,
) -> QuasiMonomialVal:
    """Meet when the level multiplicities first differ.

    The shared coordinate gets the smaller multiplicity; the complementary
    coordinate must be the exceptional direction of the smaller side (a
    generic choice would drop strictly below the true infimum).  Both are
    read off the two walks' entries at the level: a linear form has value
    ``m`` there unless it is the level's exceptional form, valued ``e``.
    """
    (c_a, m_a, e_a), (c_b, m_b, e_b) = level_a, level_b
    exc_a, exc_b = _exceptional(c_a), _exceptional(c_b)
    if m_a < m_b:
        small, small_exc = side_a, exc_a
    else:
        small, small_exc = side_b, exc_b
    if small_exc is None:
        return small
    x_dir = next(d for d in direction_enumeration() if d != exc_a and d != exc_b)
    v_x = min(m_a, m_b)
    v_y = min(e_a if exc_a == small_exc else m_a, e_b if exc_b == small_exc else m_b)
    frame = LinearFrame((x_dir.as_pair(), small_exc.as_pair()))
    result = QuasiMonomialVal(tuple(prefix), frame, (v_x, v_y))
    return from_canonical(_canonicalize_raw(result))


@lru_cache(maxsize=None)
def meet(nu: QuasiMonomialVal, mu: QuasiMonomialVal) -> QuasiMonomialVal:
    """Greatest common lower bound of two normalized valuations.

    Walks the two dilatation sequences in lockstep and resolves the first
    divergence: differing multiplicities produce a monomial valuation in
    matched coordinates, a divisorial terminal wins outright, and differing
    centers truncate to the shared divisorial level.
    """
    _require_normalized(nu, "meet")
    _require_normalized(mu, "meet")
    form_a, form_b = _canonicalize_raw(nu), _canonicalize_raw(mu)
    if form_a == form_b:
        return nu
    (q_a, walk_a), (q_b, walk_b) = _walk_numerators(form_a), _walk_numerators(form_b)
    prefix: list = []
    bound = len(form_a.steps) + len(form_b.steps) + 2
    for level_a, level_b in islice(zip(walk_a, walk_b), bound):
        (c_a, m_a, _), (c_b, m_b, _) = level_a, level_b
        if m_a * q_b != m_b * q_a:
            return _monomial_meet(
                prefix, _fraction_level(level_a, q_a), _fraction_level(level_b, q_b), nu, mu
            )
        if c_a is TERMINAL:
            return nu
        if c_b is TERMINAL:
            return mu
        if c_a != c_b:
            shared = from_canonical(CanonicalForm(tuple(prefix), Divisorial(Fraction(m_a, q_a))))
            return normalize(shared)
        prefix.append(c_a)
    raise AssertionError("divergence search exceeded both program lengths")


class Comparison(Enum):
    LT = "LT"
    EQ = "EQ"
    GT = "GT"
    INCOMPARABLE = "INCOMPARABLE"


def compare(nu: QuasiMonomialVal, mu: QuasiMonomialVal) -> Comparison:
    """Order of two normalized valuations, decided through the meet."""
    if equal_valuations(nu, mu):
        return Comparison.EQ
    w = _canonicalize_raw(meet(nu, mu))
    if w == _canonicalize_raw(nu):
        return Comparison.LT
    if w == _canonicalize_raw(mu):
        return Comparison.GT
    return Comparison.INCOMPARABLE


def infimum(vals: Iterable[QuasiMonomialVal]) -> QuasiMonomialVal:
    """Infimum of finitely many normalized valuations (a fold of meets)."""
    items = list(vals)
    if not items:
        raise EmptySetError("infimum of an empty family")
    out = items[0]
    _require_normalized(out, "infimum")
    for v in items[1:]:
        out = meet(out, v)
    return out


# ---------------------------------------------------------------------------
# residue classes of unit pairs
# ---------------------------------------------------------------------------


def _unit_residue(p: BivarPoly) -> Fraction:
    if p.is_zero():
        return ZERO
    c = p.constant_term()
    if c == 0:
        raise InvalidPairError(f"{p} is neither a unit nor zero")
    return c


def _pair_residues(pair: Tuple[BivarPoly, BivarPoly]) -> Tuple[Fraction, Fraction]:
    a, b = (_unit_residue(p) for p in pair)
    if a == 0 and b == 0:
        raise InvalidPairError("the zero pair has no class")
    return a, b


def sim_pairs(
    p1: Tuple[BivarPoly, BivarPoly], p2: Tuple[BivarPoly, BivarPoly]
) -> bool:
    """Whether a1*b2 - a2*b1 has vanishing constant term."""
    a1, b1 = _pair_residues(p1)
    a2, b2 = _pair_residues(p2)
    return a1 * b2 - a2 * b1 == 0


def residue_direction(pair: Tuple[BivarPoly, BivarPoly]) -> ProjPoint:
    """The class [a(0,0) : b(0,0)] of a unit-or-zero pair."""
    a, b = _pair_residues(pair)
    return ProjPoint(a / b) if b != 0 else INF_POINT


def common_minimizer(
    nu: QuasiMonomialVal, mu: QuasiMonomialVal
) -> Tuple[Fraction, Fraction]:
    """Coefficients (a, b) with nu(ax+by) = nu(m) and mu(ax+by) = mu(m)."""
    _require_normalized(nu, "common_minimizer")
    _require_normalized(mu, "common_minimizer")
    banned = {_head_exceptional(nu), _head_exceptional(mu)}
    d = next(p for p in direction_enumeration() if p not in banned)
    a, b = d.as_pair()
    return Fraction(a), Fraction(b)


def homogeneous_witness(nu: QuasiMonomialVal) -> Optional[BivarPoly]:
    """A degree-1 form valued above 1, or None when nu is the m-adic valuation."""
    _require_normalized(nu, "homogeneous_witness")
    d = _head_exceptional(nu)
    return None if d is None else d.form()


# ---------------------------------------------------------------------------
# topology membership predicates
# ---------------------------------------------------------------------------


def zariski_member(nu: QuasiMonomialVal, num: BivarPoly, den: BivarPoly) -> bool:
    """Whether num/den lies in the valuation ring of nu."""
    dv = evaluate(nu, den)
    if is_inf(dv):
        raise DivisionUndefinedError("denominator lies in the support")
    return evaluate(nu, num) >= dv


def patch_member(nu: QuasiMonomialVal, num: BivarPoly, den: BivarPoly) -> bool:
    """Strict variant: num/den lies in the maximal ideal of the valuation ring."""
    dv = evaluate(nu, den)
    if is_inf(dv):
        raise DivisionUndefinedError("denominator lies in the support")
    return evaluate(nu, num) > dv


def weak_member(nu: QuasiMonomialVal, phi: BivarPoly, alpha, sense: str) -> bool:
    """Subbasic weak-topology test: nu(phi) > alpha or nu(phi) < alpha."""
    if sense not in ("gt", "lt"):
        raise ValueError("sense must be 'gt' or 'lt'")
    v = evaluate(nu, phi)
    bound = Fraction(alpha)
    return v > bound if sense == "gt" else v < bound
