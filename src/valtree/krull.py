"""Rank-2 refinement of curve valuations: Z x Q values in lexicographic order.

A valuation with nontrivial support sends the support generator to infinity;
its rank-2 refinement counts the generator multiplicity first and evaluates
the residual factor second.  Here the representable cases are the level-0
curve types, whose support generator is a linear form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Tuple, Union

from .poly import (
    BivarPoly,
    IDENTITY_FRAME,
    LinearFrame,
    clear_denominators,
    divide_out_linear,
)
from .rationals import INF, ExtRat, is_inf
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


class InfiniteResidualError(ValueError):
    """Raised when the factor left after dividing out the support generator
    is still valued infinity, so the lift would not be a valuation."""


@dataclass(frozen=True)
class Rank2Val:
    """Monomial Z x Q valuation in the coordinates named by the frame rows."""

    wx: Rank2Value
    wy: Rank2Value
    frame: LinearFrame = field(default=IDENTITY_FRAME)

    def __post_init__(self):
        object.__setattr__(self, "wx", (int(self.wx[0]), Fraction(self.wx[1])))
        object.__setattr__(self, "wy", (int(self.wy[0]), Fraction(self.wy[1])))

    def __call__(self, phi: BivarPoly):
        return rank2_eval(self, phi)


@dataclass(frozen=True)
class KrullSameRank1:
    valuation: QuasiMonomialVal


@dataclass(frozen=True)
class KrullRank2:
    val: Rank2Val
    support_generator: BivarPoly


KrullResult = Union[KrullSameRank1, KrullRank2]


def krull_lift(nu: QuasiMonomialVal) -> KrullResult:
    """Refine nu to a Krull valuation.

    Trivial support (finite values everywhere) returns the valuation itself.
    A level-0 curve valuation maps psi = gen^r * psi' to (r, nu(psi')); the
    weights of x and y under that rule determine the rank-2 valuation.
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
        frame = IDENTITY_FRAME  # gen = x is already the first coordinate
    else:
        frame = LinearFrame(
            ((Fraction(1), Fraction(0)), tuple(map(Fraction, direction.as_pair())))
        )

    def lift_value(phi: BivarPoly) -> Rank2Value:
        r, psi = divide_out_linear(phi, gen)
        residual = evaluate(nu, psi)
        if is_inf(residual):
            raise InfiniteResidualError(f"the residual factor {psi} is valued infinity")
        return (r, residual)

    # weights belong to the frame coordinates; the generator's row gets (1, 0)
    rho = Rank2Val(lift_value(frame.row_form(0)), lift_value(frame.row_form(1)), frame)
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
