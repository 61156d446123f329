"""Rank-2 refinement of curve valuations: Z x Q values in lexicographic order.

A valuation with nontrivial support sends the support generator to infinity;
its rank-2 refinement counts the generator multiplicity first and evaluates
the residual factor second.  Here the representable cases are the level-0
curve types, whose support generator is a linear form gen.  Such a
refinement is monomial in the coordinates (gen, other), so it is two values:
gen gets (1, 0) and the other coordinate gets (0, nu(other)), finite because
the other coordinate is never a multiple of gen.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Tuple, Union

from .poly import BivarPoly, IDENTITY_FRAME, LinearFrame, Record, clear_denominators
from .rationals import INF, ExtRat
from .valuation import (
    Curve,
    QuasiMonomialVal,
    UnsupportedDeepCurveError,
    _canonicalize_raw,
    _in_frame,
    _require_normalized,
    evaluate,
)

Rank2Value = Tuple[int, Fraction]


class Rank2Val(Record):
    """Monomial Z x Q valuation in the coordinates named by the frame rows."""

    wx: Rank2Value
    wy: Rank2Value
    frame: LinearFrame = IDENTITY_FRAME

    def __post_init__(self):
        object.__setattr__(self, "wx", (int(self.wx[0]), Fraction(self.wx[1])))
        object.__setattr__(self, "wy", (int(self.wy[0]), Fraction(self.wy[1])))

    def __call__(self, phi: BivarPoly):
        return rank2_eval(self, phi)


class KrullSameRank1(Record):
    valuation: QuasiMonomialVal


class KrullRank2(Record):
    val: Rank2Val
    support_generator: BivarPoly


KrullResult = Union[KrullSameRank1, KrullRank2]


def krull_lift(nu: QuasiMonomialVal) -> KrullResult:
    """Refine nu to a Krull valuation.

    Trivial support (finite values everywhere) returns the valuation itself.
    A level-0 curve valuation maps psi = gen^r * psi' to (r, nu(psi')), which
    on the coordinates (gen, other) is two values: (1, 0) for gen and
    (0, nu(other)) for the other one.  At infinity gen = x under the identity
    frame, so the other coordinate is y; otherwise gen = a*x + b*y with b != 0
    is the second row of the frame ((1, 0), (a, b)), and the other one is x.
    """
    _require_normalized(nu, "krull_lift")
    form = _canonicalize_raw(nu)
    if not isinstance(form.terminal, Curve):
        return KrullSameRank1(nu)
    if form.steps:
        raise UnsupportedDeepCurveError(
            "support generator is a strict transform, not a linear form"
        )
    direction = form.terminal.direction
    gen = direction.form()
    if direction.is_inf:
        rho = Rank2Val((1, 0), (0, evaluate(nu, BivarPoly.var_y())))
    else:
        frame = LinearFrame(((1, 0), direction.as_pair()))
        rho = Rank2Val((0, evaluate(nu, BivarPoly.var_x())), (1, 0), frame)
    return KrullRank2(rho, gen)


def rank2_eval(rho: Rank2Val, phi: BivarPoly) -> Union[Rank2Value, ExtRat]:
    """Lex-min over the support of componentwise r*wx + s*wy; inf on zero.

    The support of phi in the frame coordinates is that of ``frame_apply``;
    ``_in_frame`` finds it on integer coefficients, and the second
    components are compared as numerators over one common denominator."""
    if phi.is_zero():
        return INF
    support = phi.terms
    if not rho.frame.is_identity():
        support = _in_frame(clear_denominators(support), rho.frame)
    (x0, x1), (y0, y1) = rho.wx, rho.wy
    den = math.lcm(x1.denominator, y1.denominator)
    nx, ny = x1.numerator * (den // x1.denominator), y1.numerator * (den // y1.denominator)
    first, second = min((r * x0 + s * y0, r * nx + s * ny) for r, s in support)
    return first, Fraction(second, den)


def rank1_section(rho: Rank2Val) -> Optional[QuasiMonomialVal]:
    """Project to the second coordinate where the first vanishes, else inf.

    Returns None when the projection is not a valuation on the ring (both
    coordinates would be sent to infinity).
    """

    def section_weight(w: Rank2Value) -> ExtRat:
        return w[1] if w[0] == 0 else INF

    try:
        return QuasiMonomialVal(
            (), rho.frame, (section_weight(rho.wx), section_weight(rho.wy))
        )
    except ValueError:
        return None
