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
construction runs the level recursion once and keeps one integer record of
the level-0 and weight numerators (see ``QuasiMonomialVal``), which
``normalize`` rescales without running the recursion again.  What derives
from one valuation, the record and its canonical form, is kept on it and
freed with it.  ``meet`` builds its results from the canonical forms it
makes, each record read off one pass over the centers to level 0, and hands
a monomial result the canonical form it built.
``meet`` keeps the one module-level memo of this module, bounded as
``poly.MEMO_SIZE`` states: a pair has no single object to hold its meet,
and ``compare`` meets again the pair an operation has just met.

The chain and order layers read integers: a point's primitive pair, a
frame's integer rows and the record.  ``Fraction``s are built only for the
public fields and for the values handed back or printed.

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
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice, repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .poly import (
    BivarPoly,
    BothWeightsInfiniteError,
    IDENTITY_FRAME,
    LinearFrame,
    MEMO_SIZE,
    Record,
    _cached_hash,
    clear_denominators,
    frame_apply,
    weighted_order,
)
from .rationals import INF, ExtRat, Infinity, ONE, ZERO, is_inf


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


class ProjPoint(Record):
    """A point of P^1(Q): a finite rational, or the point at infinity.

    Beside its value each point keeps its primitive integer pair ``[a:b]``,
    set once when it is built: the numerator and denominator of a finite
    value, ``(1, 0)`` at infinity.  The chain walks and the printer read the
    pair; equality and hash read the value."""

    value: ExtRat

    def __post_init__(self):
        v = self.value
        if v is INF:
            pair = (1, 0)
        else:
            if not isinstance(v, Fraction):
                v = Fraction(v)
                object.__setattr__(self, "value", v)
            pair = (v.numerator, v.denominator)
        object.__setattr__(self, "_pair", pair)

    def __hash__(self) -> int:
        # hashing a program hashes each of its centers: read the kept hash
        # here, without the call into _cached_hash
        try:
            return self._hash
        except AttributeError:
            return _cached_hash(self, (self.value,))

    @property
    def is_inf(self) -> bool:
        return self.value is INF

    def negate(self) -> "ProjPoint":
        """The direction of a center, or the center of a direction: the
        finite part negated, infinity kept.  The conversion is its own inverse."""
        a, b = self._pair
        return ProjPoint(-self.value) if a and b else self

    def as_pair(self) -> Tuple[int, int]:
        """Primitive integer representative [a:b], with b >= 0."""
        return self._pair

    def form(self) -> BivarPoly:
        a, b = self.as_pair()
        return BivarPoly.linear_form(a, b)

    def __str__(self) -> str:
        a, b = self._pair
        return "inf" if not b else str(a) if b == 1 else f"{a}/{b}"


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


class QuasiMonomialVal(Record):
    """A dilatation program: centers, a coordinate frame, and monomial weights.

    The default instance is the order of vanishing at the origin (the m-adic
    valuation): no steps, identity frame, weights (1, 1).

    Beside the fields each program keeps one record of what derives from
    them, ``_lead = (nx, ny, q, root, n1, n2)``: the level-0 values as
    numerators over q, the lcm of the finite weights' denominators (None
    for an infinite one), the zero of the head's exceptional form when
    nx = ny (``_head_root``), and the weights as numerators over q.  The
    canonical form is kept as ``_form`` once it is built
    (``_canonicalize_raw``), or handed in by ``meet`` (``_monomial_meet``).
    Equality and repr read only the three fields; the hash reads the steps,
    the frame and the record's q, n1, n2, which equal weights share.
    """

    steps: Tuple[ProjPoint, ...] = ()
    frame: LinearFrame = IDENTITY_FRAME
    weights: Tuple[ExtRat, ExtRat] = (ONE, ONE)

    def __post_init__(self):
        steps = self.steps
        if type(steps) is not tuple or not all(map(isinstance, steps, repeat(ProjPoint))):
            steps = tuple(s if isinstance(s, ProjPoint) else ProjPoint(s) for s in steps)
            object.__setattr__(self, "steps", steps)
        w1, w2 = self.weights
        w1, w2 = _coerce_weight(w1), _coerce_weight(w2)
        q, n1, n2 = _weight_numerators(w1, w2)
        if n1 is None and n2 is None:
            raise BothWeightsInfiniteError("at most one weight may be infinite")
        if (n1 is not None and n1 <= 0) or (n2 is not None and n2 <= 0):
            raise ValueError("weights must be strictly positive")
        object.__setattr__(self, "weights", (w1, w2))
        if not isinstance(self.frame, LinearFrame):
            object.__setattr__(self, "frame", LinearFrame(self.frame))
        nx, ny = _level_zero(steps, *_last_level(self.frame, n1, n2))
        if nx is None and ny is None:
            raise ValueError(
                "illegal program: every element of the maximal ideal "
                "would get value infinity"
            )
        root = _head_root(self) if nx == ny else None
        object.__setattr__(self, "_lead", (nx, ny, q, root, n1, n2))

    @classmethod
    def _derived(
        cls, steps: Tuple[ProjPoint, ...], frame: LinearFrame, weights: Tuple[ExtRat, ExtRat],
        lead: tuple,
    ) -> "QuasiMonomialVal":
        """A program whose record is already known, built without the checks
        and the level recursion of ``__post_init__``.

        Precondition: the fields are as ``__post_init__`` leaves them and
        describe a legal program, and lead is ``(nx, ny, q, root, n1, n2)``
        of its record, as ``__post_init__`` would compute them."""
        nu = object.__new__(cls)
        object.__setattr__(nu, "steps", steps)
        object.__setattr__(nu, "frame", frame)
        object.__setattr__(nu, "weights", weights)
        object.__setattr__(nu, "_lead", lead)
        return nu

    def __hash__(self) -> int:
        # the weights enter as their numerators in the record, which equal
        # weights share, so no Fraction is hashed
        try:
            return self._hash
        except AttributeError:
            _, _, q, _, n1, n2 = self._lead
            return _cached_hash(self, (self.steps, self.frame, q, n1, n2))

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
# ``_least_numerators`` is the one pass for tiers 1-3: per row ``(nu, m,
# p1, p2, root)`` it walks phi's exponents once and keeps the least
# numerator and whether it ties.  ``ValueNumerators`` runs it over one row
# per valuation, on numerators rescaled to one shared denominator, and
# returns them unbuilt; ``evaluate`` runs it on one row with m = 1 and
# returns ``Fraction(least, q)``.
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
    (a, b), (c, d) = frame.int_rows
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


def _strict_transform(nu: QuasiMonomialVal, phi: BivarPoly) -> _Num:
    """v(phi) by strict transforms, level by level, as a numerator over the
    program's q (None for infinity); phi is nonzero."""
    _, levels = _level_numerators(nu)
    f = clear_denominators(phi.terms)
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
            return None if least is None else acc + least
    if not nu.frame.is_identity():
        f = _in_frame(f, nu.frame)
    least, _ = _least(f, *nu._lead[4:6])
    return None if least is None else acc + least


def _row_direction(frame: LinearFrame, row: int) -> ProjPoint:
    """The direction ``[p : q]`` of one row of a frame, read off its integer rows."""
    p, q = frame.int_rows[row]
    if not q:
        return INF_POINT
    return ProjPoint(Fraction(p, q)) if p else ZERO_POINT


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


def _head_root(nu: QuasiMonomialVal) -> Optional[Tuple[int, int]]:
    """A zero ``(b, -a)`` of the head's exceptional form ``a*x + b*y``, None if
    the head is terminal; ``evaluate`` reads it when ``v(x) = v(y)``."""
    if nu.steps:
        return _center_root(nu.steps[0])
    d = _head_exceptional(nu)
    if d is None:
        return None
    a, b = d.as_pair()
    return b, -a


def _center_root(center: ProjPoint) -> Tuple[int, int]:
    """The zero ``(b, -a)`` of the exceptional form ``a*x + b*y`` of a level
    with this center, read off the center's pair ``(a, b)``: its direction is
    ``(-a, b)`` when both entries are nonzero, else the pair itself."""
    a, b = center._pair
    return (b, a) if a and b else (b, -a)


def _vanishes_at(root: Tuple[int, int], terms: Dict[Tuple[int, int], Fraction]) -> bool:
    """Whether the polynomial with these terms is zero at root."""
    rx, ry = root
    return not sum(k * rx**r * ry**s for (r, s), k in clear_denominators(terms).items())


def _least_numerators(rows: Sequence[tuple], phi: BivarPoly) -> List[Union[int, Infinity]]:
    """The tier pass: per row ``(nu, m, p1, p2, root)``, the value of nu on
    phi as a numerator over ``m*q``, ``INF`` for infinity, where p1 and p2
    are nu's level-0 numerators times m (None for infinity) and root is that
    of its ``_lead``.  Tiers 1-3 read the least term value; a tie they cannot
    settle goes to the strict transforms."""
    terms = phi.terms
    if not terms:
        return [INF] * len(rows)
    out = []
    for nu, m, p1, p2, root in rows:
        if p1 is None or p2 is None:  # tier 1: pure powers never tie
            least, tie = _least(terms, p1, p2)
        else:  # tiers 2 and 3
            least = None
            for r, s in terms:
                v = r * p1 + s * p2
                if least is None or v < least:
                    least, tie = v, False
                elif v == least:
                    tie = True
        # tier 3: a tie stands when v(x) = v(y) and the head's exceptional
        # form does not divide the tied form, that is, the form is nonzero at
        # root; any other tie goes to the strict transforms
        if tie and (p1 != p2 or root is not None and _vanishes_at(
            root, {(r, s): c for (r, s), c in terms.items() if (r + s) * p1 == least}
        )):
            least = _strict_transform(nu, phi)
            if least is not None:
                least *= m
        out.append(INF if least is None else least)
    return out


def evaluate(nu: QuasiMonomialVal, phi: BivarPoly) -> ExtRat:
    """The value of nu on phi: the tier pass on nu's own record, one row
    with m = 1."""
    nx, ny, q, root, _, _ = nu._lead
    (least,) = _least_numerators(((nu, 1, nx, ny, root),), phi)
    return INF if least is INF else Fraction(least, q)


class ValueNumerators:
    """The values of several valuations on one polynomial at a time, as
    integer numerators over one denominator ``den``, the lcm of their q's,
    with ``INF`` for an infinite value.  Numerators compare as the values
    do, ``INF`` above every integer, so no Fraction is built.

    Each valuation's level-0 numerators are read off its ``_lead`` and
    scaled once, by ``m = den / q``; a call is the tier pass ``evaluate``
    makes, over one row per valuation, so ``n / den == evaluate(nu, phi)``."""

    __slots__ = ("den", "_rows")

    def __init__(self, vals: Sequence[QuasiMonomialVal]):
        self.den = math.lcm(*(nu._lead[2] for nu in vals))
        self._rows = []
        for nu in vals:
            nx, ny, q, root = nu._lead[:4]
            m = self.den // q
            self._rows.append(
                (nu, m, None if nx is None else nx * m, None if ny is None else ny * m, root)
            )

    def __call__(self, phi: BivarPoly) -> List[Union[int, Infinity]]:
        return _least_numerators(self._rows, phi)


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


def _min_num(u: _Num, v: _Num) -> _Num:
    return v if u is None else u if v is None else min(u, v)


def _levels_back(steps: Sequence[ProjPoint], vx: _Num, vy: _Num) -> List[Tuple[_Num, _Num]]:
    """The values at every level, level 0 first, from those ``(vx, vy)`` after
    the last center.  Each center is undone by its chart: at infinity
    ``x_i = x_{i+1} * y_{i+1}``, else ``y_i = x_{i+1} * (y_{i+1} + c)``, where
    the second factor is a unit unless c = 0."""
    levels = [(vx, vy)]
    for step in reversed(steps):
        a, b = step._pair
        if not b:  # infinity
            vx = None if vx is None or vy is None else vx + vy
        elif a:
            vy = vx
        else:
            vy = None if vx is None or vy is None else vx + vy
        levels.append((vx, vy))
    levels.reverse()
    return levels


def _level_zero(steps: Sequence[ProjPoint], vx: _Num, vy: _Num) -> Tuple[_Num, _Num]:
    """The values at level 0, by the recursion of ``_levels_back`` without
    keeping the levels between."""
    for step in reversed(steps):
        a, b = step._pair
        if not b:  # infinity
            vx = None if vx is None or vy is None else vx + vy
        elif a:
            vy = vx
        else:
            vy = None if vx is None or vy is None else vx + vy
    return vx, vy


def _weight_numerators(w1: ExtRat, w2: ExtRat) -> Tuple[int, _Num, _Num]:
    """``(q, n1, n2)``: two weights as integer numerators over q, the lcm of
    the finite weights' denominators (None for INF); each weight's numerator
    and denominator are read once."""
    p1, d1 = (None, 1) if w1 is INF else (w1.numerator, w1.denominator)
    p2, d2 = (None, 1) if w2 is INF else (w2.numerator, w2.denominator)
    q = math.lcm(d1, d2)
    return (q, None if p1 is None else p1 * (q // d1), None if p2 is None else p2 * (q // d2))


def _last_level(frame: LinearFrame, n1: _Num, n2: _Num) -> Tuple[_Num, _Num]:
    """The values after the last center, for weight numerators n1, n2: the
    weighted orders of the inverse frame's rows, ``(d, -b)`` and ``(-c, a)``
    up to scale, of which only the zero entries matter."""
    (a, b), (c, d) = frame.int_rows
    return (
        _min_num(n1 if d else None, n2 if b else None),
        _min_num(n1 if c else None, n2 if a else None),
    )


def _level_numerators(nu: QuasiMonomialVal) -> Tuple[int, List[Tuple[_Num, _Num]]]:
    """``(q, levels)``: ``(v(x_i), v(y_i))`` at every level i, level 0 being the
    original x, y, as integer numerators over q, the lcm of the finite
    weights' denominators.  The recursion back to level 0 adds integers only."""
    _, _, q, _, n1, n2 = nu._lead
    return q, _levels_back(nu.steps, *_last_level(nu.frame, n1, n2))


def m_value(nu: QuasiMonomialVal) -> Fraction:
    """The value of the maximal ideal: min of the values of x and y."""
    nx, ny, q = nu._lead[:3]
    return Fraction(_min_num(nx, ny), q)


def monomial(g1, g2) -> QuasiMonomialVal:
    """The monomial valuation with values g1 on x and g2 on y."""
    return QuasiMonomialVal((), IDENTITY_FRAME, (g1, g2))


M_ADIC = QuasiMonomialVal()


def is_normalized(nu: QuasiMonomialVal) -> bool:
    nx, ny, q = nu._lead[:3]
    return _min_num(nx, ny) == q


def normalize(nu: QuasiMonomialVal) -> QuasiMonomialVal:
    """Scale the weights so the maximal ideal gets value exactly 1.

    Scaling by ``1/m`` scales every level value by it, keeps the program
    legal and keeps its head, so the result is built from nu's record: with
    ``m = min(nx, ny)/q``, the weights become ``n_i/m`` for the weights'
    numerators ``n_i`` over q, and the level-0 values ``nx/m``, ``ny/m``,
    an infinite one staying infinite."""
    nx, ny, q, root, n1, n2 = nu._lead
    m = _min_num(nx, ny)
    if m == q:
        return nu
    w1 = INF if n1 is None else Fraction(n1, m)
    w2 = INF if n2 is None else Fraction(n2, m)
    q, n1, n2 = _weight_numerators(w1, w2)
    if nx is not None:
        nx = nx * q // m
    if ny is not None:
        ny = ny * q // m
    return QuasiMonomialVal._derived(nu.steps, nu.frame, (w1, w2), (nx, ny, q, root, n1, n2))


def _require_normalized(nu: QuasiMonomialVal, op: str) -> None:
    if not is_normalized(nu):
        raise PreconditionViolatedError(f"{op} requires a normalized valuation")


# ---------------------------------------------------------------------------
# dilatation, canonical forms
# ---------------------------------------------------------------------------


class Continue(Record):
    step: ProjPoint
    tail: QuasiMonomialVal


class Terminal(Record):
    gamma: Fraction


class Divisorial(Record):
    gamma: Fraction


class Curve(Record):
    direction: ProjPoint
    gamma: Fraction


class CanonicalForm(Record):
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


def _canonicalize_raw(nu: QuasiMonomialVal) -> CanonicalForm:
    """The canonical form, built by ``_build_canonical`` on the first call
    and kept on nu as ``_form``: it lives as long as nu does."""
    try:
        return nu._form
    except AttributeError:
        form = _build_canonical(nu)
        object.__setattr__(nu, "_form", form)
        return form


def _build_canonical(nu: QuasiMonomialVal) -> CanonicalForm:
    """The canonical form, built without a valuation per dilatation step.

    The head is settled once, on the weights' numerators in the record: a
    curve if a weight is infinite, a terminal if the weights are equal, else
    the one blow-up ``dilate`` would make, which reads the frame row of the
    larger weight (``_euclid_form``)."""
    _, _, q, _, n1, n2 = nu._lead
    if n1 is None or n2 is None:
        big = 0 if n1 is None else 1
        # fold trailing steps that merely re-state the curve's own direction;
        # a curve only ends a program that never dilated, and legality makes
        # each folded center match d (0 under 0, inf under inf), see
        # tests/test_valuation.py::TestCanonical::test_curve_fold_invariant
        steps = list(nu.steps)
        d = _row_direction(nu.frame, big)
        while steps and d in (ZERO_POINT, INF_POINT):
            d = steps.pop().negate()
        return CanonicalForm(tuple(steps), Curve(d, nu.weights[1 - big]))
    if n1 == n2:
        return CanonicalForm(nu.steps, Divisorial(nu.weights[0]))
    return _euclid_form(nu.steps, _row_direction(nu.frame, 0 if n1 > n2 else 1), n1, n2, q)


def _euclid_form(
    prefix: Sequence[ProjPoint], d: ProjPoint, a: int, b: int, q: int
) -> CanonicalForm:
    """The canonical form of the centers prefix followed by a monomial head
    with the unequal finite weights a/q and b/q, in a frame whose row of the
    larger weight has direction d.

    The head's blow-up is at d's center; after it the frame is the identity
    and the chain is Euclid's algorithm on a and b: each run of the center 0
    (or infinity) is one quotient."""
    center = d.negate()
    steps = list(prefix)
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


def from_canonical(form: CanonicalForm) -> QuasiMonomialVal:
    """Rebuild a concrete program from a canonical form.  The form is not
    trusted: the program is built and checked as any other, and
    ``canonicalize`` builds its form afresh."""
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


_NumLevel = Tuple[object, int, _Num]


def _chain_numerators(
    form: CanonicalForm,
) -> Tuple[int, Tuple[ProjPoint, ...], List[Tuple[_Num, _Num]]]:
    """``(q, steps, levels)``: the centers of the program ``from_canonical``
    rebuilds from a canonical form and ``(v(x_i), v(y_i))`` at each of its
    levels, as integer numerators over q, the terminal weight's denominator
    (None for an infinite value), found without building the program: a
    divisorial ends on the weights ``(g, g)``, a curve on one more center
    with g and infinity."""
    t = form.terminal
    g, q = t.gamma.numerator, t.gamma.denominator
    if isinstance(t, Divisorial):
        steps, last = form.steps, (g, g)
    elif t.direction.is_inf:
        steps, last = form.steps + (INF_POINT,), (None, g)
    else:
        steps, last = form.steps + (t.direction.negate(),), (g, None)
    return q, steps, _levels_back(steps, *last)


def _tail_center(t: Union[Divisorial, Curve]):
    """The center of every level past a chain's steps: TERMINAL after a
    divisorial, the constant center of a curve's tail."""
    if isinstance(t, Divisorial):
        return TERMINAL
    return INF_POINT if t.direction.is_inf else ZERO_POINT


def _level_entry(
    steps: Sequence[ProjPoint], levels: List[Tuple[_Num, _Num]], t: Union[Divisorial, Curve], i: int
) -> _NumLevel:
    """Level i of a chain: the center (TERMINAL at a divisorial end), the
    multiplicity ``min(v(x_i), v(y_i))`` and the value ``v(x_{i+1}) +
    v(y_{i+1})`` of the level's exceptional linear form (None for infinity);
    past the steps, the tail's center with the terminal weight."""
    if i < len(steps):
        (vx, vy), (nx, ny) = levels[i], levels[i + 1]
        return steps[i], _min_num(vx, vy), None if nx is None or ny is None else nx + ny
    return _tail_center(t), t.gamma.numerator, None


def multiplicity_stream(nu: QuasiMonomialVal):
    """Yield (center, m) along the dilatation sequence.

    Divisorial programs end with a (TERMINAL, gamma) entry; curve programs
    yield their eventually-constant tail forever.
    """
    form = _canonicalize_raw(nu)
    q, steps, levels = _chain_numerators(form)
    t = form.terminal
    for i in range(len(steps) + 1) if isinstance(t, Divisorial) else count():
        center, m, _ = _level_entry(steps, levels, t, i)
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


def _monomial_meet(
    prefix: Sequence[ProjPoint], level_a: _NumLevel, q_a: int, level_b: _NumLevel, q_b: int,
    side_a: QuasiMonomialVal, side_b: QuasiMonomialVal,
) -> QuasiMonomialVal:
    """Meet when the level multiplicities first differ.

    The meet is the monomial valuation after the shared prefix in a frame
    of two linear forms: a generic one gets the smaller multiplicity, and
    the exceptional direction of the smaller side (a generic choice would
    drop strictly below the true infimum) gets the least value the two sides
    give it.  Both are read off the two walks' entries at the level,
    numerators over q_a and q_b scaled to their lcm: a linear form has value
    ``m`` there unless it is the level's exceptional form, valued ``e``.

    That value ``v_y`` exceeds the smaller multiplicity (an exceptional form
    is valued above m), so the frame's second row is the head's blow-up and
    the canonical form follows from the weights alone (``_euclid_form``); the
    generic row is never read.  ``v_y`` is finite: ``e`` is infinite only on
    the last center of a curve's chain and its constant tail, and two
    normalized chains that agree in centers and multiplicities up to a
    level where both are there have the same curve weight, so their
    multiplicities agree there too.
    """
    q = math.lcm(q_a, q_b)
    (c_a, m_a, e_a), (c_b, m_b, e_b) = level_a, level_b
    k_a, k_b = q // q_a, q // q_b
    m_a, m_b = m_a * k_a, m_b * k_b
    # the one direction valued above the multiplicity at each level
    exc_a = None if c_a is TERMINAL else c_a.negate()
    exc_b = None if c_b is TERMINAL else c_b.negate()
    if m_a < m_b:
        small, small_exc = side_a, exc_a
    else:
        small, small_exc = side_b, exc_b
    if small_exc is None:
        return small
    y_a = m_a if exc_a != small_exc else None if e_a is None else e_a * k_a
    y_b = m_b if exc_b != small_exc else None if e_b is None else e_b * k_b
    form = _euclid_form(prefix, small_exc, min(m_a, m_b), _min_num(y_a, y_b), q)
    g = form.terminal.gamma
    result = _divisorial(form.steps, g, *_level_zero(form.steps, g.numerator, g.numerator))
    # the form is canonical by construction: the result keeps it, so that
    # canonicalize reads it instead of building it again
    object.__setattr__(result, "_form", form)
    return result


def _divisorial(steps: Tuple[ProjPoint, ...], g: Fraction, nx: int, ny: int) -> QuasiMonomialVal:
    """The program ``from_canonical`` builds from the divisorial form
    ``(steps, g)``, given its level-0 values nx, ny as numerators over g's
    denominator (``_level_zero`` from the weights' numerators): the record is
    read off them, without the checks of ``__post_init__``, which such a
    program always passes."""
    root = _center_root(steps[0]) if steps and nx == ny else None
    n, q = g.numerator, g.denominator
    return QuasiMonomialVal._derived(steps, IDENTITY_FRAME, (g, g), (nx, ny, q, root, n, n))


@lru_cache(maxsize=MEMO_SIZE)
def meet(nu: QuasiMonomialVal, mu: QuasiMonomialVal) -> QuasiMonomialVal:
    """Greatest common lower bound of two normalized valuations.

    Walks the two dilatation sequences in lockstep and resolves the first
    divergence: differing multiplicities produce a monomial valuation in
    matched coordinates, a divisorial terminal wins outright, and differing
    centers truncate to the shared divisorial level.

    The last ``MEMO_SIZE`` pairs met are kept, so that ``compare`` reads the
    pair an operation has just met.  An entry holds both inputs and the
    result, and with them their canonical forms, one step per chain level.
    """
    _require_normalized(nu, "meet")
    _require_normalized(mu, "meet")
    form_a, form_b = _canonicalize_raw(nu), _canonicalize_raw(mu)
    if form_a == form_b:
        return nu
    q_a, steps_a, levels_a = _chain_numerators(form_a)
    q_b, steps_b, levels_b = _chain_numerators(form_b)
    t_a, t_b = form_a.terminal, form_b.terminal
    tail_a, g_a = _tail_center(t_a), t_a.gamma.numerator
    tail_b, g_b = _tail_center(t_b), t_b.gamma.numerator
    n_a, n_b = len(steps_a), len(steps_b)
    # the two walks in lockstep, read off the level lists by index: past its
    # steps a chain stays on its tail center and terminal weight
    for i in range(n_a + n_b + 2):
        if i < n_a:
            c_a, (vx, vy) = steps_a[i], levels_a[i]
            m_a = vx if vy is None else vy if vx is None or vy < vx else vx
        else:
            c_a, m_a = tail_a, g_a
        if i < n_b:
            c_b, (vx, vy) = steps_b[i], levels_b[i]
            m_b = vx if vy is None else vy if vx is None or vy < vx else vx
        else:
            c_b, m_b = tail_b, g_b
        # the first i centers agree, and at most one chain is in its tail
        # (two chains that agree on their tails are equal)
        if m_a * q_b != m_b * q_a:
            return _monomial_meet(
                (steps_a if i <= n_a else steps_b)[:i],
                _level_entry(steps_a, levels_a, t_a, i), q_a,
                _level_entry(steps_b, levels_b, t_b, i), q_b, nu, mu,
            )
        if c_a is TERMINAL:
            return nu
        if c_b is TERMINAL:
            return mu
        if c_a._pair != c_b._pair:
            # the divisorial of the last shared level, normalized: its level-0
            # values from the weights (1, 1) have minimum m, so its weights are 1/m
            prefix = (steps_a if i <= n_a else steps_b)[:i]
            nx, ny = _level_zero(prefix, 1, 1)
            return _divisorial(prefix, Fraction(1, min(nx, ny)), nx, ny)
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
    w = meet(nu, mu)
    # meet hands back an input it found below the other as that very object
    if w is nu:
        return Comparison.LT
    if w is mu:
        return Comparison.GT
    w = _canonicalize_raw(w)
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
