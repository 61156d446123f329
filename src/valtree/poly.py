"""Sparse bivariate polynomials over Q with substitution and weighted orders.

Polynomials are immutable mappings from exponent pairs ``(r, s)`` (for
``x^r * y^s``) to nonzero ``Fraction`` coefficients.  They are the ring
elements every valuation in this package is evaluated on, so everything here
is exact: no floats, no approximate cancellation.

The library's own rewriting runs on integer dicts (``valuation._chart`` and
``valuation._in_frame``).  ``BivarPoly.substitute``, ``frame_apply`` and
``divide_out_linear`` rewrite over ``Fraction`` and serve the reference
oracle ``valuation.evaluate_naive`` and the tests only.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import attrgetter
from typing import Dict, Iterator, Mapping, Tuple, Union

from .rationals import INF, ExtRat, ONE, ZERO, is_inf, parse_rat, scale

Exponents = Tuple[int, int]


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotLinearError(ValueError):
    """Raised when a homogeneous degree-1 form was required."""


class SingularFrameError(ValueError):
    """Raised when a coordinate frame has determinant zero."""


class BothWeightsInfiniteError(ValueError):
    """Raised when both weights of a weighted order are infinite."""


def _coerce(c) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


# The one memo policy of the package, and its bounds:
#
# * a memo that derives from one object lives on that object and is freed
#   with it (a record's hash, kept by ``_cached_hash`` below on the first
#   ``hash``; a valuation's record and canonical form);
# * a module-level memo is a ``functools.lru_cache``, so ``cache_info()``
#   reports it: the spelling memos ``jsonio._center_from`` and
#   ``jsonio._weight_from``, keyed by strings only and bounded by
#   ``MEMO_SIZE``, and ``valuation._walk``, which keeps only its last walk,
#   since an entry holds two whole chains and no caller asks for an older one;
# * a per-object table that can grow stops storing at ``MEMO_SIZE`` entries
#   (a tree's grids, a parametrization's reciprocals).
MEMO_SIZE = 1024


class Record:
    """An immutable value: its fields are its class's annotated names, in order,
    with the class attributes of those names as defaults.  Built by position or
    keyword, it then runs its class's ``__post_init__``, if there is one.
    Equality, hash and repr are a frozen dataclass's, but the hash of the
    fields is computed once and kept; memos live in ``__dict__``."""

    def __init_subclass__(cls):
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
        get = attrgetter(*names) if names else lambda r: ()
        # attrgetter of one name returns the value itself, not a 1-tuple
        key = (lambda r: (get(r),)) if len(names) == 1 else get
        places, post = tuple(enumerate(names)), hasattr(cls, "__post_init__")
        put = object.__setattr__  # not __dict__.update: a built __dict__ slows every read

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != len(names):
                rest, given = names[len(args):], {**cls._defaults, **kwargs}
                if len(args) > len(names) or not set(kwargs) <= set(rest) <= set(given):
                    raise TypeError(f"{cls.__qualname__}() takes the fields {names}")
                args += tuple(given[n] for n in rest)
            for i, name in places:
                put(self, name, args[i])
            if post:
                self.__post_init__()

        def __eq__(self, other):
            return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

        def __hash__(self):
            try:
                return self._hash
            except AttributeError:
                return _cached_hash(self, key(self))

        cls.__init__, cls.__eq__ = __init__, __eq__
        cls.__hash__ = cls.__dict__.get("__hash__") or __hash__

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{self.__class__.__qualname__} is immutable: {name!r} stays")

    __delattr__ = __setattr__


def _cached_hash(obj, fields: tuple) -> int:
    """The hash of a record's fields, kept beside them.  Its callers return
    the kept hash when there is one, so it runs once per record."""
    h = hash(fields)
    object.__setattr__(obj, "_hash", h)
    return h


class BivarPoly:
    """A polynomial in x and y with rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Exponents, Union[Fraction, int]] = ()):
        clean = {}
        for (r, s), c in dict(terms).items():
            if r < 0 or s < 0:
                raise ValueError("negative exponent")
            c = _coerce(c)
            if c != 0:
                clean[(int(r), int(s))] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("BivarPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls({})

    @classmethod
    def constant(cls, c) -> "BivarPoly":
        return cls({(0, 0): _coerce(c)})

    @classmethod
    def monomial(cls, r: int, s: int, c=1) -> "BivarPoly":
        return cls({(r, s): _coerce(c)})

    @classmethod
    def var_x(cls) -> "BivarPoly":
        return cls({(1, 0): ONE})

    @classmethod
    def var_y(cls) -> "BivarPoly":
        return cls({(0, 1): ONE})

    @classmethod
    def linear_form(cls, a, b) -> "BivarPoly":
        """The form a*x + b*y."""
        return cls({(1, 0): _coerce(a), (0, 1): _coerce(b)})

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, BivarPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, ZERO) + c
        return BivarPoly(out)

    def __neg__(self) -> "BivarPoly":
        return BivarPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self + (-other)

    def __mul__(self, other) -> "BivarPoly":
        if not isinstance(other, BivarPoly):
            k = _coerce(other)
            return BivarPoly({e: c * k for e, c in self.terms.items()})
        out: dict = {}
        for (r1, s1), c1 in self.terms.items():
            for (r2, s2), c2 in other.terms.items():
                e = (r1 + r2, s1 + s2)
                out[e] = out.get(e, ZERO) + c1 * c2
        return BivarPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BivarPoly":
        if n < 0:
            raise ValueError("negative power")
        result = BivarPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def substitute(self, ex: "BivarPoly", ey: "BivarPoly") -> "BivarPoly":
        """Evaluate self at (ex, ey), fully expanded with exact cancellation."""
        # cache consecutive powers of the images: exponents in a sparse poly
        # repeat a lot, and the images of one chart step have at most two
        # terms, so one more factor of the base is cheaper than a square
        xpow = {0: BivarPoly.constant(1)}
        ypow = {0: BivarPoly.constant(1)}

        def power(cache, base, n):
            while n not in cache:
                k = max(cache)
                cache[k + 1] = cache[k] * base
            return cache[n].terms

        # every term's products go into one dict, validated once at the end
        out: dict = {}
        get = out.get
        for (r, s), c in self.terms.items():
            ys = power(ypow, ey, s).items()
            for (r1, s1), c1 in power(xpow, ex, r).items():
                k = c * c1
                for (r2, s2), c2 in ys:
                    e = (r1 + r2, s1 + s2)
                    out[e] = get(e, ZERO) + k * c2
        return BivarPoly(out)

    def total_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(r + s for r, s in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get((0, 0), ZERO)

    # -- printing ----------------------------------------------------------

    def _ordered(self) -> Iterator[Tuple[Exponents, Fraction]]:
        # descending graded-lex with x > y
        for e in sorted(self.terms, key=lambda e: (-(e[0] + e[1]), -e[0])):
            yield e, self.terms[e]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (r, s), c in self._ordered():
            factors = []
            if abs(c) != 1 or (r == 0 and s == 0):
                factors.append(str(abs(c)))
            if r:
                factors.append("x" if r == 1 else f"x^{r}")
            if s:
                factors.append("y" if s == 1 else f"y^{s}")
            body = "*".join(factors)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"BivarPoly({str(self)!r})"


_TOKEN = re.compile(r"\s*(?:([0-9]+(?:/[0-9]+)?)|([xy])|([+\-*^()])|(\S))")


def poly_parse(text: str) -> BivarPoly:
    """Parse `c`, `c*x^a*y^b` style terms joined by + and -."""
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.group(4):
            raise PolyParseError(f"unexpected character {m.group(4)!r}", m.start(4))
        kind = "num" if m.group(1) else ("var" if m.group(2) else "op")
        tokens.append((kind, m.group(0).strip(), m.start()))
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", "", len(text))

    def term_sign() -> int:
        nonlocal pos
        sign = 1
        while peek()[0] == "op" and peek()[1] in "+-":
            if peek()[1] == "-":
                sign = -sign
            pos += 1
        return sign

    def factor() -> BivarPoly:
        nonlocal pos
        kind, tok, at = peek()
        if kind == "num":
            pos += 1
            try:
                return BivarPoly.constant(parse_rat(tok))
            except ValueError as exc:  # q = 0, or more digits than int() reads
                raise PolyParseError(str(exc), at) from None
        if kind == "var":
            pos += 1
            exp = 1
            if peek()[1] == "^":
                pos += 1
                k, t, a = peek()
                if k == "op" and t == "-":
                    raise PolyParseError("negative exponent", a)
                if k != "num" or "/" in t:
                    raise PolyParseError("expected integer exponent", a)
                exp = int(t)
                pos += 1
            return BivarPoly.monomial(exp if tok == "x" else 0, exp if tok == "y" else 0)
        raise PolyParseError(f"expected a number or variable, got {tok!r}", at)

    def term() -> BivarPoly:
        nonlocal pos
        out = factor()
        while peek()[0] == "op" and peek()[1] == "*":
            pos += 1
            out = out * factor()
        return out

    if not tokens:
        raise PolyParseError("empty input", 0)
    # every term goes into one dict, so a long sum is not copied per term
    total: dict = {}
    get = total.get
    while True:
        sign = term_sign()
        if peek()[0] == "end":
            raise PolyParseError("dangling sign or empty term", peek()[2])
        for e, c in term().terms.items():
            total[e] = get(e, ZERO) + sign * c
        kind, tok, at = peek()
        if kind == "end":
            return BivarPoly(total)
        if not (kind == "op" and tok in "+-"):
            raise PolyParseError(f"expected + or - between terms, got {tok!r}", at)


def clear_denominators(terms: Mapping[Exponents, Fraction]) -> Dict[Exponents, int]:
    """The terms times the lcm of their coefficients' denominators: integer
    coefficients with the same ratios, so the same zeros, and the same value
    under any valuation, as a positive constant factor changes none."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return {t: c.numerator * (den // c.denominator) for t, c in terms.items()}


def weighted_order(phi: BivarPoly, g1: ExtRat, g2: ExtRat) -> ExtRat:
    """min over the support of r*g1 + s*g2, with the convention 0*inf = 0."""
    if is_inf(g1) and is_inf(g2):
        raise BothWeightsInfiniteError("weights (inf, inf) admit no order")
    if not phi.terms:
        return INF
    best: ExtRat = INF
    for (r, s) in phi.terms:
        a = scale(r, g1)
        b = scale(s, g2)
        v = INF if (a is INF or b is INF) else a + b
        if v < best:
            best = v
    return best


def divide_out_linear(phi: BivarPoly, ell: BivarPoly) -> Tuple[int, BivarPoly]:
    """Split phi = ell^r * psi with ell not dividing psi; exact in every case."""
    if ell.is_zero() or set(ell.terms) - {(1, 0), (0, 1)}:
        raise NotLinearError(f"{ell} is not a nonzero homogeneous degree-1 form")
    if phi.is_zero():
        return 0, phi
    a = ell.terms.get((1, 0), ZERO)
    b = ell.terms.get((0, 1), ZERO)
    if b != 0:
        # rewrite phi in coordinates (x, u) with u = a*x + b*y, so y = (u - a*x)/b
        conv = phi.substitute(BivarPoly.var_x(), BivarPoly.linear_form(-a / b, 1 / b))
        r = min(s for _, s in conv.terms)
        shifted = BivarPoly({(i, j - r): c for (i, j), c in conv.terms.items()})
        psi = shifted.substitute(BivarPoly.var_x(), ell)
    else:
        r = min(i for i, _ in phi.terms)
        psi = BivarPoly({(i - r, j): c / a**r for (i, j), c in phi.terms.items()})
    return r, psi


class LinearFrame(Record):
    """An invertible change of coordinates; each row is the form of one target coordinate.

    Beside the rows each frame keeps ``int_rows``, the rows times the lcm of
    their denominators: integers with the same zeros and ratios."""

    rows: Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]

    def __post_init__(self):
        rows = tuple(tuple(_coerce(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        lcm = math.lcm(*(p.denominator for row in rows for p in row))
        ints = tuple(tuple(p.numerator * (lcm // p.denominator) for p in row) for row in rows)
        (a, b), (c, d) = ints
        if a * d == b * c:
            raise SingularFrameError(f"rows {rows} are linearly dependent")
        object.__setattr__(self, "int_rows", ints)

    @classmethod
    def identity(cls) -> "LinearFrame":
        return cls(((ONE, ZERO), (ZERO, ONE)))

    def det(self) -> Fraction:
        (a, b), (c, d) = self.rows
        return a * d - b * c

    def is_identity(self) -> bool:
        return self.rows == ((ONE, ZERO), (ZERO, ONE))

    def inverse(self) -> "LinearFrame":
        (a, b), (c, d) = self.rows
        det = self.det()
        return LinearFrame(((d / det, -b / det), (-c / det, a / det)))

    def row_form(self, i: int) -> BivarPoly:
        return BivarPoly.linear_form(*self.rows[i])


IDENTITY_FRAME = LinearFrame.identity()


def frame_apply(phi: BivarPoly, frame: LinearFrame) -> BivarPoly:
    """Rewrite phi in the coordinates (u, v) = frame * (x, y)."""
    if frame.is_identity():
        return phi
    inv = frame.inverse()
    return phi.substitute(inv.row_form(0), inv.row_form(1))
