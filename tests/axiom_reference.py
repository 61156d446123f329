"""The axiom reports as the library wrote them before one checker served
both posets, kept unchanged as the reference that the tests compare
``tree_axiom_report`` and ``fi_axiom_report`` with.  T2 and T3 are sampled
on a tree and checked over every listed sample on the forked interval; T4 is
tested on every set of at most three nodes against every node.  The order
and meet are this module's names for ``valtree.tree``'s, so a test that
patches one patches it in both modules."""

import itertools
import random
from fractions import Fraction
from typing import Iterable, Tuple

from valtree.tree import (
    FI_X,
    FI_Y,
    AxiomReport,
    ForkedIntervalPoset,
    PathParam,
    RootedTree,
    TreePoint,
    fi_infimum,
    fi_seg,
    t_leq,
    t_meet,
)


def _is_lower_bound(r: TreePoint, pts: Iterable[TreePoint]) -> bool:
    return all(t_leq(r, p) for p in pts)


def tree_axiom_report(tree: RootedTree, seed: int = 0, samples: int = 40) -> AxiomReport:
    """Check T1-T4 on a finite tree skeleton: T2 and T3 on sampled chains,
    T4 exhaustively over every set of at most three nodes."""
    rng = random.Random(seed)
    psi = PathParam(tree)
    pts = tree.grid_points(2)
    root = tree.root_point()
    t1 = all(t_leq(root, p) for p in pts) and all(
        p == root for p in pts if t_leq(p, root)
    )
    t2 = t3 = True
    for _ in range(samples):
        q = rng.choice(pts)
        below = [r for r in pts if t_leq(r, q)]
        picks = rng.sample(below, min(len(below), 4))
        for r1, r2 in itertools.combinations(picks, 2):
            if not (t_leq(r1, r2) or t_leq(r2, r1)):
                t2 = False
            if t_leq(r1, r2) != (psi.psi(r1) <= psi.psi(r2)):
                t3 = False
    nodes = tree.node_points()

    def t4_fails(subset: Tuple[TreePoint, ...]) -> bool:
        m = subset[0]
        for p in subset[1:]:
            m = t_meet(m, p)
        if not _is_lower_bound(m, subset):
            return True
        return any(
            _is_lower_bound(c, subset) and not t_leq(c, m) for c in nodes
        )

    witness = next(
        (
            subset
            for size in (1, 2, 3)
            for subset in itertools.combinations(nodes, size)
            if t4_fails(subset)
        ),
        None,
    )
    return AxiomReport(t1, t2, t3, witness is None, witness)


def fi_axiom_report(samples: int = 40, seed: int = 0) -> AxiomReport:
    """T1-T3 hold on the forked interval; T4 fails on {X, Y}.

    The order is tabled once, ``leq[i][j]`` for every pair of sample points,
    and so are their chain values, as integers over 64: a sample t/64 has t,
    and the tops share 64, which is fine because a chain holds at most one
    of X, Y.  T2 and T3 then check every pair below every point on them."""
    rng = random.Random(seed)
    poset = ForkedIntervalPoset()
    ticks = [rng.randrange(0, 64) for _ in range(samples)]
    pts = [FI_X, FI_Y] + [fi_seg(Fraction(t, 64)) for t in ticks]
    values = [64, 64] + ticks
    bottom = fi_seg(0)
    t1 = all(poset.leq(bottom, p) for p in pts)
    leq = [[poset.leq(p, q) for q in pts] for p in pts]
    t2 = t3 = True
    for k in range(len(pts)):
        below = [i for i, row in enumerate(leq) if row[k]]
        for i, j in itertools.combinations(below, 2):
            if not (leq[i][j] or leq[j][i]):
                t2 = False
            if leq[i][j] != (values[i] <= values[j]):
                t3 = False
    t4 = fi_infimum([FI_X, FI_Y]) is not None
    return AxiomReport(t1, t2, t3, t4, witness=None if t4 else (FI_X, FI_Y))
