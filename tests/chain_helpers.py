"""Chain-layer readings as exact rationals, shared by the valuation and
deep-chain tests."""

from fractions import Fraction

from valtree import valuation
from valtree.rationals import INF
from valtree.valuation import TERMINAL


def level_values(nu):
    """``(v(x_i), v(y_i))`` at every level i, level 0 first, as exact
    rationals: level 0 from the record, each later level from the center
    before it and its ``(m, e)`` in ``valuation._levels``.  The new exceptional
    coordinate, y after infinity and x after a finite center, has value m;
    the other has e - m, infinite when e is."""
    nx, ny, q, _, n1, n2 = nu._lead
    ms, es = valuation._levels(nu.steps, *valuation._last_level(nu.frame, n1, n2))
    levels = [(nx, ny)]
    for step, m, e in zip(nu.steps, ms, es):
        other = None if e is None else e - m
        levels.append((other, m) if step.is_inf else (m, other))
    return [tuple(INF if n is None else Fraction(n, q) for n in level) for level in levels]


def record_values(nu):
    """The level-0 values kept in a program's record, as exact rationals."""
    nx, ny, q = nu._lead[:3]
    return tuple(INF if n is None else Fraction(n, q) for n in (nx, ny))


def walk(form):
    """Every level of a canonical chain in order, ``valuation._chain``'s
    reader, as exact rationals: (center, m, e) per level, e being None at a
    divisorial end and INF for an infinite value.  A divisorial walk ends on
    its TERMINAL level, a curve's goes on forever."""
    q, _, levels = valuation._chain(form)
    for center, m, e in levels:
        yield center, Fraction(m, q), (None if center is TERMINAL else INF) if e is None else Fraction(e, q)
