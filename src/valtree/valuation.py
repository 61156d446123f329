"""Finite descriptions of valuations centered at the origin, and their algebra.

A valuation is described by a *dilatation program*: a list of blow-up centers,
an optional linear coordinate frame, and a final pair of monomial weights.
Every question reads the values ``(v(x_i), v(y_i))`` of the coordinates at
each level first.  Chain questions (legality, m-values, multiplicities, meets)
need nothing else, and they run on integers: the level values are integer
numerators over one denominator, canonicalization takes each run of Euclid's
algorithm on the weights with one ``divmod``-style quotient, and ``meet``
compares multiplicities by cross-multiplication, so no valuation is built per
dilatation step.  A chain over ``MAX_CHAIN_STEPS`` steps, a program's own
centers counted, is refused with ``ChainTooLongError`` before it is built.
Evaluation takes the least ``r*v(x) + s*v(y)`` over the terms of a polynomial,
which is its value unless the least terms can cancel.  Only then does it push
the polynomial through the centers one chart at a time, on integer
coefficients: each chart divides out the new exceptional coordinate and adds
that power times the coordinate's level value, and the first strict transform
with a unique least term gives the value.  Past the last center the remainder
is rewritten in the frame coordinates and its weighted order taken.

A program's levels have one reader, ``_levels``: one pass back from the last
center finds each level's multiplicity and exceptional value.  ``_chain``
pairs them with a canonical chain's centers, then a divisorial's terminal
level or a curve's constant tail; ``_walk`` steps two chains in lockstep and
``multiplicity_stream`` maps one.  ``_strict_transform`` reads each level's
coordinate values off them.

Each valuation on the path parse -> normalize -> meet is built once: a
construction runs the level recursion once and keeps one integer record of
the level-0 and weight numerators (see ``QuasiMonomialVal``), which
``normalize`` rescales without running the recursion again.  What derives
from one valuation, the record and its canonical form, is kept on it and
freed with it.  ``meet`` and ``compare`` read one lockstep walk, ``_walk``:
where two chains part fixes both their meet and their order.  A meet that is
not an input is built from the canonical form the walk makes, its record
read off one pass over the centers to level 0, and carries that form, which
``canonicalize`` reads.  ``_walk`` keeps the one module-level memo of this
module, and it keeps only the last walk: a pair has no single object to hold
its walk, and the caller that asks for a pair again is one that has just met
it and compares it next.  So the memo holds one pair's chains, however many
pairs a process meets.

The chain and order layers read integers: a point's primitive pair, a
frame's integer rows and the record.  ``Fraction``s are built only for the
public fields and for the values handed back or printed.

Conventions, fixed once and used everywhere:

* a finite center ``c`` performs the chart substitution ``y <- x*(y + c)``;
  the center at infinity performs ``x <- x*y``;
* the center ``c`` corresponds to the direction ``[-c : 1]`` of the projective
  line of linear forms ``a*x + b*y``, and the infinite center to ``[1 : 0]``;
  ``ProjPoint.negate`` converts either way, being its own inverse.  Inside,
  a level is named by its center; only a ``Curve`` terminal,
  ``common_minimizer`` and ``homogeneous_witness`` build directions;
* weights are strictly positive and at most one of them is infinite.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .poly import (
    BivarPoly,
    BothWeightsInfiniteError,
    IDENTITY_FRAME,
    LinearFrame,
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
    nx = ny (``_center_root`` of ``_head_center``), and the weights as
    numerators over q.  The canonical form is kept as ``_form`` once it is
    built (``_canonicalize_raw``), or handed in by ``meet`` (``_divisorial``).
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
        head = _head_center(self) if nx == ny else None
        root = None if head is None else _center_root(head)
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
        # weights share, so no Fraction is hashed; getattr's default, unlike
        # a try, raises no AttributeError for each program's first hash
        h = getattr(self, "_hash", None)
        if h is None:
            _, _, q, _, n1, n2 = self._lead
            h = _cached_hash(self, (self.steps, self.frame, q, n1, n2))
        return h

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


def _binomial_row(a: int, b: int, n: int) -> List[Tuple[int, int]]:
    """The nonzero terms of ``(a*X + b*Y)^n`` as pairs ``(j, c)``, c being the
    coefficient of ``X^(n-j) * Y^j``: one pair when a or b is 0.

    Each coefficient ``C(n, j) * a^(n-j) * b^j`` comes from the last by the
    recurrence ``C(n, j) = C(n, j-1) * (n-j+1) / j``, with the power of a
    divided down and that of b multiplied up, all exact, so a row costs
    O(n) multiplications and no binomial is computed from scratch."""
    if not b:
        return [(0, a**n)]
    if not a:
        return [(n, b**n)]
    power_a = a**n
    row = [(0, power_a)]
    c = power_b = 1
    for j in range(1, n + 1):
        c = c * (n - j + 1) // j
        power_a //= a
        power_b *= b
        row.append((j, c * power_a * power_b))
    return row


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
    rows: Dict[int, List[Tuple[int, int]]] = {}
    out: _IntPoly = {}
    get = out.get
    for (r, s), k in f.items():
        row = rows.get(s)
        if row is None:
            row = rows[s] = _binomial_row(a, b, s)
        if b != 1:
            k *= b ** (top - s)
        d = r + s - e
        for j, m in row:
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
        for i, m in us:
            for j, n in vs:
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
    ms, es = _levels(nu.steps, *_last_level(nu.frame, *nu._lead[4:6]))
    f = clear_denominators(phi.terms)
    acc = 0
    for step, m, e in zip(nu.steps, ms, es):
        k, f = _chart(f, step)
        # the new exceptional coordinate, y_{i+1} at infinity (x_i = x_{i+1} * y_{i+1})
        # and x_{i+1} at a finite center (x_i = x_{i+1}), has the value m, finite
        # on a legal program; the other coordinate has e - m, or None when e is
        acc += k * m
        if step.is_inf or not step.value:
            continue  # an exponent map keeps every term's value, so the tie stands
        least, tie = _least(f, m, None if e is None else e - m)
        if not tie:
            return None if least is None else acc + least
    if not nu.frame.is_identity():
        f = _in_frame(f, nu.frame)
    least, _ = _least(f, *nu._lead[4:6])
    return None if least is None else acc + least


def _row_center(frame: LinearFrame, row: int) -> ProjPoint:
    """The center of the blow-up along one row ``(p, q)`` of a frame, read
    off its integer rows: ``-p/q``, infinity when q = 0."""
    p, q = frame.int_rows[row]
    if not q:
        return INF_POINT
    return ProjPoint(Fraction(-p, q)) if p else ZERO_POINT


def _head_center(nu: QuasiMonomialVal) -> Optional[ProjPoint]:
    """The first center of the canonical chain, read off the program: its own
    first center, else, as ``dilate`` picks it, that of the frame row of the
    larger weight (an infinite one included); None when equal finite weights
    make the head terminal.  Its ``negate()`` is the direction valued above m."""
    if nu.steps:
        return nu.steps[0]
    w1, w2 = nu.weights
    if w1 == w2:
        return None
    return _row_center(nu.frame, 0 if w1 > w2 else 1)


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


def _levels(steps: Sequence[ProjPoint], vx: _Num, vy: _Num) -> Tuple[List[int], List[_Num]]:
    """``(ms, es)``: per center i, the multiplicity ``min(v(x_i), v(y_i))``
    and the value ``v(x_{i+1}) + v(y_{i+1})`` of its exceptional linear form,
    from the values ``(vx, vy)`` after the last center, in one pass back from
    the last: each center is undone by its chart, at infinity ``x_i = x_{i+1}
    * y_{i+1}``, else ``y_i = x_{i+1} * (y_{i+1} + c)``, where the second
    factor is a unit unless c = 0.  The levels are kept in two lists of
    integers, not as tuples that hold their centers: the garbage collector
    keeps scanning such tuples, which made meet of the normalized (1, 4*10^5)
    and (1, 4*10^5 + 1/2) about twice as slow."""
    ms, es = [], []
    for step in reversed(steps):
        e = None if vx is None or vy is None else vx + vy
        a, b = step._pair
        if not b:  # infinity
            vx = e
        elif a:
            vy = vx
        else:
            vy = e
        ms.append(vx if vy is None else vy if vx is None or vy < vx else vx)
        es.append(e)
    ms.reverse()
    es.reverse()
    return ms, es


def _level_zero(steps: Sequence[ProjPoint], vx: _Num, vy: _Num) -> Tuple[_Num, _Num]:
    """The values at level 0 from those after the last center, by the charts
    of ``_levels``: v(x) gains v(y) at infinity, v(y) gains v(x) at 0 and
    becomes v(x) elsewhere.  A construction needs level 0 only, so this fold
    keeps no list, which for a deep program would hold every level."""
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
    c = _row_center(nu.frame, big)
    return Continue(c, monomial(large - small, small) if c.is_inf else monomial(small, large - small))


# Chains are stored one step per Euclidean subtraction, so weights that are
# short to write can need billions of steps: (1, 10^8) needs 10^8 - 1.  The
# limit counts a program's own centers too and admits (1, 10^6), 999,999
# steps; it is checked before each run is added, so no longer chain is stored.
MAX_CHAIN_STEPS = 10**6


def _limit(n: int) -> None:
    """Refuse a canonical chain of n steps when n exceeds ``MAX_CHAIN_STEPS``."""
    if n > MAX_CHAIN_STEPS:
        raise ChainTooLongError(
            f"the canonical chain needs more than the limit of {MAX_CHAIN_STEPS} steps"
        )


def _canonicalize_raw(nu: QuasiMonomialVal) -> CanonicalForm:
    """The canonical form, built by ``_build_canonical`` on the first call
    and kept on nu as ``_form``: it lives as long as nu does.  getattr's
    default, unlike a try, raises no AttributeError on that first call."""
    form = getattr(nu, "_form", None)
    if form is None:
        form = _build_canonical(nu)
        object.__setattr__(nu, "_form", form)
    return form


def _build_canonical(nu: QuasiMonomialVal) -> CanonicalForm:
    """The canonical form, built without a valuation per dilatation step.

    The head is settled once, on the weights' numerators in the record: a
    curve if a weight is infinite, a terminal if the weights are equal, else
    the one blow-up ``dilate`` would make at the center of the frame row of
    the larger weight (``_euclid_form``).  Each branch checks the step limit."""
    _, _, q, _, n1, n2 = nu._lead
    if n1 is None or n2 is None:
        big = 0 if n1 is None else 1
        # fold trailing steps that merely re-state the curve's own center;
        # a curve only ends a program that never dilated, and legality makes
        # each folded center match the row's (0 under 0, inf under inf), see
        # tests/test_valuation.py::TestCanonical::test_curve_fold_invariant
        steps = list(nu.steps)
        c = _row_center(nu.frame, big)
        while steps and c in (ZERO_POINT, INF_POINT):
            c = steps.pop()
        _limit(len(steps))
        return CanonicalForm(tuple(steps), Curve(c.negate(), nu.weights[1 - big]))
    if n1 == n2:
        _limit(len(nu.steps))
        return CanonicalForm(nu.steps, Divisorial(nu.weights[0]))
    return _euclid_form(nu.steps, _row_center(nu.frame, 0 if n1 > n2 else 1), n1, n2, q)


def _euclid_form(
    prefix: Sequence[ProjPoint], center: ProjPoint, a: int, b: int, q: int
) -> CanonicalForm:
    """The canonical form of the centers prefix followed by a monomial head
    with the unequal finite weights a/q and b/q, in a frame whose row of the
    larger weight has this center.

    The head's blow-up is at that center; after it the frame is the identity
    and the chain is Euclid's algorithm on a and b: each run of the center 0
    (or infinity) is one quotient."""
    _limit(len(prefix) + 1)
    steps = [*prefix, center]
    small, large = min(a, b), max(a, b)
    a, b = (large - small, small) if center.is_inf else (small, large - small)
    while a != b:
        if a < b:  # n centers 0 take b down to the first value <= a
            n, run = (b - 1) // a, ZERO_POINT
            b -= n * a
        else:
            n, run = (a - 1) // b, INF_POINT
            a -= n * b
        _limit(len(steps) + n)
        steps += [run] * n
    return CanonicalForm(tuple(steps), Divisorial(Fraction(a, q)))


def canonicalize(nu: QuasiMonomialVal) -> CanonicalForm:
    """The identity-deciding normal form: reduced steps plus a terminal."""
    _require_normalized(nu, "canonicalize")
    return _canonicalize_raw(nu)


def _closing(form: CanonicalForm) -> Tuple[Tuple[ProjPoint, ...], Tuple[ExtRat, ExtRat]]:
    """``(steps, weights)`` of the program ``from_canonical`` rebuilds from a
    canonical form: a divisorial ends on the weights ``(g, g)``, a curve on
    one more center, its direction's, with g and infinity."""
    t = form.terminal
    g = t.gamma
    if isinstance(t, Divisorial):
        return form.steps, (g, g)
    d = t.direction
    return form.steps + (d.negate(),), ((INF, g) if d.is_inf else (g, INF))


def from_canonical(form: CanonicalForm) -> QuasiMonomialVal:
    """Rebuild a concrete program from a canonical form.  The form is not
    trusted: the program is built and checked as any other, and
    ``canonicalize`` builds its form afresh."""
    steps, weights = _closing(form)
    return QuasiMonomialVal(steps, IDENTITY_FRAME, weights)


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


def _chain(form: CanonicalForm) -> Tuple[int, Tuple[ProjPoint, ...], Iterator[_NumLevel]]:
    """``(q, steps, levels)``: the centers of the program ``from_canonical``
    rebuilds from a canonical form, found without building the program, and
    its levels in order.

    A level is its center, its multiplicity and the value of its exceptional
    linear form, as ``_levels`` finds them, integer numerators over q, the
    terminal weight's denominator (None for infinity).  Past the steps come
    a divisorial's one level (TERMINAL, g, None) or a curve's constant tail,
    its center with g and None, forever."""
    t = form.terminal
    steps, (w1, w2) = _closing(form)
    g = t.gamma.numerator
    ms, es = _levels(steps, None if w1 is INF else g, None if w2 is INF else g)
    if isinstance(t, Divisorial):
        tail = ((TERMINAL, g, None),)
    else:
        tail = repeat((INF_POINT if t.direction.is_inf else ZERO_POINT, g, None))
    return t.gamma.denominator, steps, chain(zip(steps, ms, es), tail)


def multiplicity_stream(nu: QuasiMonomialVal):
    """Yield (center, m) along the dilatation sequence.

    Divisorial programs end with a (TERMINAL, gamma) entry; curve programs
    yield their eventually-constant tail forever.
    """
    q, _, levels = _chain(_canonicalize_raw(nu))
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
    generic row is never read.  When that form is the smaller side's own,
    the smaller side lies below the other and is returned itself; otherwise
    the result carries the form.  ``v_y`` is finite: ``e`` is infinite only on
    the last center of a curve's chain and its constant tail, and two
    normalized chains that agree in centers and multiplicities up to a
    level where both are there have the same curve weight, so their
    multiplicities agree there too.

    The smaller side is never at its terminal level: undoing any chart from
    a divisorial's terminal values (g, g) leaves a minimum of g, so its last
    center has multiplicity g too; no multiplicity rises from a level to the
    next; level 0 is 1 on both normalized sides.  So the two first differ
    past level 0, where a terminal level repeats the shared multiplicity
    before it, which the other side's does not exceed.
    """
    q = math.lcm(q_a, q_b)
    (c_a, m_a, e_a), (c_b, m_b, e_b) = level_a, level_b
    k_a, k_b = q // q_a, q // q_b
    m_a, m_b = m_a * k_a, m_b * k_b
    # each level's center names the one direction valued above its multiplicity
    small, small_c = (side_a, c_a) if m_a < m_b else (side_b, c_b)
    y_a = m_a if c_a != small_c else None if e_a is None else e_a * k_a
    y_b = m_b if c_b != small_c else None if e_b is None else e_b * k_b
    form = _euclid_form(prefix, small_c, min(m_a, m_b), _min_num(y_a, y_b), q)
    if form == _canonicalize_raw(small):  # the smaller side lies below the other
        return small
    n = form.terminal.gamma.numerator
    return _divisorial(form, *_level_zero(form.steps, n, n))


def _divisorial(form: CanonicalForm, nx: int, ny: int) -> QuasiMonomialVal:
    """The program ``from_canonical`` builds from the divisorial form
    ``(steps, g)``, given its level-0 values nx, ny as numerators over g's
    denominator (``_level_zero`` from the weights' numerators): the record is
    read off them, without the checks of ``__post_init__``, which such a
    program always passes.  The program keeps the form as its canonical
    form, so that ``canonicalize`` reads it instead of building it again."""
    steps, g = form.steps, form.terminal.gamma
    root = _center_root(steps[0]) if steps and nx == ny else None
    n, q = g.numerator, g.denominator
    nu = QuasiMonomialVal._derived(steps, IDENTITY_FRAME, (g, g), (nx, ny, q, root, n, n))
    object.__setattr__(nu, "_form", form)
    return nu


class Comparison(Enum):
    LT = "LT"
    EQ = "EQ"
    GT = "GT"
    INCOMPARABLE = "INCOMPARABLE"


@lru_cache(maxsize=1)
def _walk(nu: QuasiMonomialVal, mu: QuasiMonomialVal) -> Tuple[QuasiMonomialVal, Comparison]:
    """``(meet, order)`` of two normalized valuations, read off the first
    divergence of their dilatation sequences, walked in lockstep: equal forms
    are EQ; differing multiplicities give a monomial valuation in matched
    coordinates, LT or GT when it is an input itself; a divisorial terminal
    wins outright, LT on nu's side and GT on mu's; differing centers truncate
    to the shared divisorial level, INCOMPARABLE.

    Only the last walk is kept: its entry holds both inputs, the meet and
    their canonical forms, one step per chain level, so a memo of more
    entries grows with chain length times pairs.  No caller asks for an
    older pair.  In valbench's meet-deep op, ``compare`` asks for the pair
    ``meet`` walked just before it: 120 hits in 120 ops at any memo size.
    A whole ``suite all`` pass makes 2,696 walks, which take about 25 ms
    in-process even with no memo at all (Python 3.11, 2-CPU host)."""
    form_a, form_b = _canonicalize_raw(nu), _canonicalize_raw(mu)
    if form_a == form_b:
        return nu, Comparison.EQ
    q_a, steps_a, levels_a = _chain(form_a)
    q_b, steps_b, levels_b = _chain(form_b)
    n_a = len(steps_a)
    # the two walks in lockstep: the first i centers agree, and at most one
    # chain is in its tail (two chains that agree on their tails are equal)
    for i, level_a, level_b in zip(range(n_a + len(steps_b) + 2), levels_a, levels_b):
        c_a, m_a, _ = level_a
        c_b, m_b, _ = level_b
        if m_a * q_b != m_b * q_a:
            prefix = (steps_a if i <= n_a else steps_b)[:i]
            w = _monomial_meet(prefix, level_a, q_a, level_b, q_b, nu, mu)
            return w, Comparison.LT if w is nu else Comparison.GT if w is mu else Comparison.INCOMPARABLE
        if c_a is TERMINAL:
            return nu, Comparison.LT
        if c_b is TERMINAL:
            return mu, Comparison.GT
        if c_a._pair != c_b._pair:
            # the divisorial of the last shared level, normalized: its level-0
            # values from the weights (1, 1) have minimum m, so its weights are 1/m
            prefix = (steps_a if i <= n_a else steps_b)[:i]
            nx, ny = _level_zero(prefix, 1, 1)
            form = CanonicalForm(prefix, Divisorial(Fraction(1, min(nx, ny))))
            return _divisorial(form, nx, ny), Comparison.INCOMPARABLE
    raise AssertionError("divergence search exceeded both program lengths")


def meet(nu: QuasiMonomialVal, mu: QuasiMonomialVal) -> QuasiMonomialVal:
    """Greatest common lower bound of two normalized valuations: the meet
    that ``_walk`` finds."""
    _require_normalized(nu, "meet")
    _require_normalized(mu, "meet")
    return _walk(nu, mu)[0]


def compare(nu: QuasiMonomialVal, mu: QuasiMonomialVal) -> Comparison:
    """Order of two normalized valuations: the order that ``_walk`` finds."""
    _require_normalized(nu, "compare")
    _require_normalized(mu, "compare")
    return _walk(nu, mu)[1]


def infimum(vals: Iterable[QuasiMonomialVal]) -> QuasiMonomialVal:
    """Infimum of finitely many normalized valuations (a fold of meets)."""
    items = list(vals)
    if not items:
        raise EmptySetError("infimum of an empty family")
    for v in items:
        _require_normalized(v, "infimum")
    out = items[0]
    for v in items[1:]:
        out = _walk(out, v)[0]
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
    banned = {c.negate() for c in (_head_center(nu), _head_center(mu)) if c is not None}
    d = next(p for p in direction_enumeration() if p not in banned)
    a, b = d.as_pair()
    return Fraction(a), Fraction(b)


def homogeneous_witness(nu: QuasiMonomialVal) -> Optional[BivarPoly]:
    """A degree-1 form valued above 1, or None when nu is the m-adic valuation."""
    _require_normalized(nu, "homogeneous_witness")
    c = _head_center(nu)
    return None if c is None else c.negate().form()


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
