"""Rooted non-metric trees with exact rational edge coordinates.

Points live on edges in a canonical parent-edge form, order is root-path
prefix comparison, and every pair has a deepest common point.  A
parametrization assigns increasing values along root-to-leaf paths and
induces a metric through reciprocal differences at the meet.

A tree is one node table: each table of a tree and of its parametrization
keys a node by the one path object that ``RootedTree.edges`` holds, parents first.

The forked interval (a totally ordered segment with two incomparable tops)
is kept as its own poset type: it satisfies the chain axioms but has a
two-element subset with no infimum, so it is deliberately not a tree.  One
checker of the tree axioms T1-T4 serves both.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from fractions import Fraction
from operator import index
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .poly import MEMO_SIZE, Record
from .rationals import ExtRat, Infinity, ONE, ZERO, is_inf
from .valuation import EmptySetError, PreconditionViolatedError, QuasiMonomialVal, monomial


class ForeignPointError(ValueError):
    """Raised when points of different trees are combined."""


class BasePointEqualsRepError(ValueError):
    """Raised when a tangent vector's representative equals its base point."""


class MemberMissingError(ValueError):
    """Raised when the distinguished member is not in the given set."""


class TooFewBranchesError(ValueError):
    """Raised when a star has too few branches for the requested witness."""


Path = Tuple[int, ...]


def _coerce_len(v) -> ExtRat:
    return v if isinstance(v, Infinity) else Fraction(v)


class RootedTree:
    """Finite rooted tree; each non-root node carries its parent-edge length.

    One pass over the sorted paths, in which a child's index must be its
    parent's next free index, fills ``edges`` (parents first) and ``_kids``."""

    def __init__(self, edges: Mapping[Path, object]):
        self.edges: Dict[Path, ExtRat] = {}
        self._kids: Dict[Path, int] = {}
        line: List[Path] = [()]  # the root path of the node placed last
        for path, length in sorted((tuple(k), _coerce_len(v)) for k, v in edges.items()):
            if not path:
                raise ValueError("the root has no parent edge")
            if not is_inf(length) and length <= 0:
                raise ValueError("edge lengths must be positive")
            del line[len(path):]
            parent = line[-1]
            if path[:-1] != parent:
                raise ValueError(f"dangling node {path}: parent missing")
            if parent and is_inf(self.edges[parent]):
                raise ValueError("infinite edges must end in leaves")
            n = self._kids.get(parent, 0)
            if index(path[-1]) != n:  # an integer, the parent's next free index
                raise ValueError(f"child indices of {parent} must be contiguous")
            self._kids[parent] = n + 1
            self.edges[path] = length
            line.append(path)
        self._grids: Dict[int, Tuple["TreePoint", ...]] = {}
        # one point object per node, so memos keyed by points mostly hit by identity
        self._nodes: Dict[Path, TreePoint] = {(): TreePoint(self, (), ZERO)}

    def n_children(self, path: Path) -> int:
        return self._kids.get(tuple(path), 0)

    def edge_length(self, path: Path) -> ExtRat:
        return self.edges[tuple(path)]

    def node_paths(self) -> List[Path]:
        return [()] + list(self.edges)

    def root_point(self) -> "TreePoint":
        return self._nodes[()]

    def node_point(self, path: Path) -> "TreePoint":
        path = tuple(path)
        point = self._nodes.get(path)
        if point is None:
            point = self._nodes[path] = TreePoint(self, path, self.edge_length(path))
        return point

    def point(self, path: Path, t) -> "TreePoint":
        """Canonical point at offset t on the parent edge of `path`."""
        path = tuple(path)
        t = _coerce_len(t)
        if not path:
            if t != 0:
                raise ValueError("the root point has offset 0")
            return self.root_point()
        length = self.edge_length(path)
        if t == 0:
            return self.node_point(path[:-1])
        if t < 0 or t > length:
            raise ValueError(f"offset {t} outside edge of length {length}")
        return TreePoint(self, path, t)

    def node_points(self) -> List["TreePoint"]:
        return [self.node_point(p) for p in self.node_paths()]

    def grid_points(self, per_edge: int = 2) -> List["TreePoint"]:
        """Node points plus evenly spread interior points on every edge.

        Built once per ``per_edge`` (for up to ``MEMO_SIZE`` values of it);
        each call returns a new list of the same points."""
        grid = self._grids.get(per_edge)
        if grid is None:
            out = self.node_points()
            for path, length in self.edges.items():
                if is_inf(length):
                    out.extend(self.point(path, i) for i in range(1, per_edge + 1))
                else:
                    out.extend(
                        self.point(path, length * i / (per_edge + 1))
                        for i in range(1, per_edge + 1)
                    )
            grid = tuple(out)
            if len(self._grids) < MEMO_SIZE:
                self._grids[per_edge] = grid
        return list(grid)


class TreePoint(Record):
    tree: RootedTree
    path: Path
    t: ExtRat

    def is_root(self) -> bool:
        return not self.path


def _same_tree(*points: TreePoint) -> RootedTree:
    tree = points[0].tree
    for p in points:
        if p.tree is not tree:
            raise ForeignPointError("points belong to different trees")
    return tree


def t_leq(p: TreePoint, q: TreePoint) -> bool:
    """Root-path prefix order."""
    _same_tree(p, q)
    if p.path == q.path:
        return p.t <= q.t
    return p.path == q.path[: len(p.path)]


def t_meet(p: TreePoint, q: TreePoint) -> TreePoint:
    """Deepest common point of the two root paths."""
    _same_tree(p, q)
    return _meet(p, q)


def _meet(p: TreePoint, q: TreePoint) -> TreePoint:
    """``t_meet`` for two points already known to share a tree."""
    if p.path == q.path:
        return p if p.t <= q.t else q
    k = 0
    for a, b in zip(p.path, q.path):
        if a != b:
            break
        k += 1
    if k == len(p.path):
        return p
    if k == len(q.path):
        return q
    return p.tree.node_point(p.path[:k])


def t_segment_member(r: TreePoint, p: TreePoint, q: TreePoint) -> bool:
    """Whether r lies on the closed segment between p and q."""
    _same_tree(r, p, q)
    m = t_meet(p, q)
    return t_leq(m, r) and (t_leq(r, p) or t_leq(r, q))


def _check_tangent_args(tau: TreePoint, sigma: TreePoint, alpha: TreePoint) -> None:
    _same_tree(tau, sigma, alpha)
    for p in (sigma, alpha):  # on one tree, a point is its offset and path
        if p is tau or (p.t == tau.t and p.path == tau.path):
            raise BasePointEqualsRepError("tangent points must differ from the base")


def t_tangent_equiv(tau: TreePoint, sigma: TreePoint, alpha: TreePoint) -> bool:
    """Whether sigma and alpha leave tau in the same direction.

    Two points are tangent-equivalent at tau exactly when tau does not lie
    between them, which needs one segment query.
    """
    _check_tangent_args(tau, sigma, alpha)
    return not t_segment_member(tau, alpha, sigma)


def _tangent_bucket(tau: TreePoint, sigma: TreePoint):
    if t_meet(tau, sigma) != tau:
        return ("down",)
    # sigma is strictly above tau
    if tau.is_root():
        return ("up", sigma.path[0])
    if tau.t != tau.tree.edge_length(tau.path):
        return ("up", -1)  # interior point: single upward direction
    return ("up", sigma.path[len(tau.path)])


def t_tangent_equiv_definitional(
    tau: TreePoint, sigma: TreePoint, alpha: TreePoint
) -> bool:
    """Case analysis on meets: same downward class, or same upward branch."""
    _check_tangent_args(tau, sigma, alpha)
    return _tangent_bucket(tau, sigma) == _tangent_bucket(tau, alpha)


class TangentRef(Record):
    """A tangent vector at `base`, represented by the class of `rep`."""

    base: TreePoint
    rep: TreePoint

    def __post_init__(self):
        _same_tree(self.base, self.rep)
        if self.base == self.rep:
            raise BasePointEqualsRepError("representative equals the base point")


def class_member(ref: TangentRef, cand: TreePoint) -> bool:
    """Whether cand lies in the subbasic set given by ref (base excluded)."""
    if cand == ref.base:
        return False
    return t_tangent_equiv(ref.base, ref.rep, cand)


# ---------------------------------------------------------------------------
# parametrization and metric
# ---------------------------------------------------------------------------


class PathParam:
    """Arclength-plus-one parametrization: Psi(root)=1, affine on every edge.

    One parents-first pass over ``tree.edges`` fills its depth table: Psi at
    each edge's lower end, keyed by the tree's own path object."""

    def __init__(self, tree: RootedTree):
        self.tree = tree
        edges, low = tree.edges, {}
        for path in edges:
            parent = path[:-1]
            low[path] = low[parent] + edges[parent] if parent else ONE
        self._low: Dict[Path, ExtRat] = low
        # 1/Psi(p) per point as a pair (numerator, denominator) in lowest
        # terms with a positive denominator; (0, 1) at infinity
        self._recips: Dict[TreePoint, Tuple[int, int]] = {}

    def psi(self, p: TreePoint) -> ExtRat:
        if p.tree is not self.tree:
            raise ForeignPointError("point is not on the parametrized tree")
        if p.is_root():
            return ONE
        return self._low[p.path] + p.t

    def recip(self, p: TreePoint) -> Fraction:
        """``1/Psi(p)``, 0 at infinity.

        Kept per point, up to ``MEMO_SIZE`` points, as the integer pair
        that ``t_dpsi`` reads; the Fraction is built on each call."""
        return Fraction(*self._recip_pair(p))

    def _recip_pair(self, p: TreePoint) -> Tuple[int, int]:
        pair = self._recips.get(p)  # a point of another tree misses: its key holds the tree
        if pair is None:
            v = self.psi(p)
            pair = (0, 1) if is_inf(v) else (v.denominator, v.numerator)
            if len(self._recips) < MEMO_SIZE:
                self._recips[p] = pair
        return pair

    def point_at_psi(self, tau: TreePoint, value: ExtRat) -> TreePoint:
        """The unique point on [root, tau] with the given Psi-value."""
        if value < 1 or value > self.psi(tau):
            raise ValueError(f"Psi-value {value} not attained on [root, tau]")
        path, low = tau.path, self._low
        if not path:
            return self.tree.root_point()
        # the first edge k of the path whose upper end reaches the value
        k = 1 + bisect_left(range(2, len(path) + 1), value, key=lambda j: low[path[:j]])
        return self.tree.point(path[:k], value - low[path[:k]])


def _dpsi_pair(psi: PathParam, p: TreePoint, q: TreePoint) -> Tuple[int, int]:
    """``t_dpsi`` as an integer pair (numerator, positive denominator), not
    in lowest terms: ``2/Psi(m) - 1/Psi(p) - 1/Psi(q)`` at the meet m."""
    np_, dp = psi._recip_pair(p)
    nq, dq = psi._recip_pair(q)  # both on psi's tree now, so they share it
    nw, dw = psi._recip_pair(_meet(p, q))
    return (2 * nw * dp - np_ * dw) * dq - nq * dw * dp, dw * dp * dq


def t_dpsi(psi: PathParam, p: TreePoint, q: TreePoint) -> Fraction:
    """The parametrization metric: reciprocal drops from the meet to each point."""
    return Fraction(*_dpsi_pair(psi, p, q))


def t_inf_set(S: Sequence[TreePoint], tau: TreePoint, psi: PathParam) -> TreePoint:
    """Infimum of a finite point set, located on [root, tau] by Psi-value."""
    members = list(S)
    if not members:
        raise EmptySetError("infimum of an empty point set")
    if tau not in members:
        raise MemberMissingError("tau must be a member of the set")
    a0 = min(psi.psi(t_meet(tau, sigma)) for sigma in members)
    return psi.point_at_psi(tau, a0)


def chain_infimum(
    tree: RootedTree,
    psi: PathParam,
    tau: TreePoint,
    a: Fraction,
    b: Fraction,
    probe: int = 64,
) -> TreePoint:
    """Infimum of the chain {Psi = a + b/n : n >= 1} on [root, tau].

    The first `probe` members are materialized and checked to be a strictly
    descending chain below tau; the limit value a is then inverted exactly.
    """
    a, b = Fraction(a), Fraction(b)
    if b <= 0:
        raise ValueError("chain parameter b must be positive")
    if a < 1:
        raise ValueError("the limit Psi-value must be at least 1")
    prev: Optional[TreePoint] = None
    for n in range(1, probe + 1):
        pt = psi.point_at_psi(tau, a + Fraction(b, n))
        if prev is not None and not (t_leq(pt, prev) and pt != prev):
            raise ValueError("chain is not strictly descending")
        prev = pt
    return psi.point_at_psi(tau, a)


# ---------------------------------------------------------------------------
# axiom reports
# ---------------------------------------------------------------------------


class AxiomReport(Record):
    t1: bool
    t2: bool
    t3: bool
    t4: bool
    witness: Optional[object] = None

    def all_pass(self) -> bool:
        return self.t1 and self.t2 and self.t3 and self.t4


def _axiom_report(points: Sequence, leq, values: Sequence, bottom, meet, n_pool: int) -> AxiomReport:
    """T1-T4 on a finite list of distinct points, from their order, chain
    values, bottom and two-point meet (None where there is no infimum).

    Down-sets are bitmasks from n^2 ``leq`` calls, so the order is checked
    against the meet.  T1: ``bottom`` lies below every point and only itself
    below itself.  T2, T3: every pair below a point is comparable, as its
    values are.  T4, per set of one or two of the first ``n_pool`` points:
    the meet is a listed lower bound above every pool lower bound.  Sets of
    three need none: their meet is ``meet(meet(a, b), c)``; when ``meet(a,
    b)`` is in the pool (the meet of two nodes is a node) and both pairs
    pass, a transitive order puts that point below a, b and c and above
    every pool point below all three."""
    n, position = len(points), {p: i for i, p in enumerate(points)}
    down, up = [0] * n, [0] * n
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            if leq(p, q):
                down[j] |= 1 << i
                up[i] |= 1 << j
    at_least = [sum(1 << j for j, w in enumerate(values) if v <= w) for v in values]
    t1 = all(leq(bottom, p) for p in points) and all(p == bottom for p in points if leq(p, bottom))
    # (the others below a point q, i) for each i below each q
    pairs = [(below & ~(1 << i), i) for below in down for i in range(n) if below >> i & 1]
    t2 = not any(others & ~(down[i] | up[i]) for others, i in pairs)
    t3 = not any(others & (up[i] ^ at_least[i]) for others, i in pairs)
    pool = (1 << n_pool) - 1

    def t4_fails(subset: Tuple[int, ...]) -> bool:
        i, j = subset[0], subset[-1]
        k = position.get(points[i] if i == j else meet(points[i], points[j]))
        common = down[i] & down[j]
        return k is None or not common >> k & 1 or bool(common & pool & ~down[k])

    sets = itertools.chain(zip(range(n_pool)), itertools.combinations(range(n_pool), 2))
    witness = next((tuple(points[i] for i in s) for s in sets if t4_fails(s)), None)
    return AxiomReport(t1, t2, t3, witness is None, witness)


def tree_axiom_report(tree: RootedTree) -> AxiomReport:
    """T1-T3 on a finite tree's grid points, T4 on its nodes, the grid's first."""
    pts, psi = tree.grid_points(2), PathParam(tree)
    values = [psi.psi(p) for p in pts]
    return _axiom_report(pts, t_leq, values, tree.root_point(), t_meet, len(tree.edges) + 1)


# ---------------------------------------------------------------------------
# the forked interval: chains are fine, one infimum is missing
# ---------------------------------------------------------------------------


class FIPoint(Record):
    """Point of the forked interval: Seg(t) for t in [0,1), or top X, or top Y."""

    kind: str  # "seg" | "X" | "Y"
    t: Fraction = ZERO

    def __post_init__(self):
        if self.kind not in ("seg", "X", "Y"):
            raise ValueError(f"unknown point kind {self.kind!r}")
        object.__setattr__(self, "t", Fraction(self.t))
        if self.kind == "seg" and not (0 <= self.t < 1):
            raise ValueError("segment points live in [0, 1)")


FI_X = FIPoint("X")
FI_Y = FIPoint("Y")


def fi_seg(t) -> FIPoint:
    return FIPoint("seg", Fraction(t))


class ForkedIntervalPoset:
    """The interval [0,1) with two incomparable points on top."""

    def leq(self, p: FIPoint, q: FIPoint) -> bool:
        if p.kind == "seg":
            return q.kind != "seg" or p.t <= q.t
        return p.kind == q.kind


def fi_infimum(pts: Sequence[FIPoint]) -> Optional[FIPoint]:
    """Infimum in the forked interval, or None when it does not exist."""
    items = list(dict.fromkeys(pts))
    if not items:
        raise EmptySetError("infimum of an empty set")
    seg_values = [p.t for p in items if p.kind == "seg"]
    if seg_values:
        return fi_seg(min(seg_values))
    if len(items) == 1:
        return items[0]
    # two distinct points and no segment point: {X, Y}, whose lower bounds
    # are all of [0,1), which has no maximum
    return None


def fi_no_infimum_schedule(steps: int = 50) -> List[Fraction]:
    """Strictly increasing lower bounds of {X, Y}: t -> (t+1)/2, from 0.

    Each t is in [0, 1), so below both tops, and (t+1)/2 > t; the tests and
    criterion 4 check both."""
    out = [ZERO]
    for _ in range(steps):
        out.append((out[-1] + 1) / 2)
    return out


def fi_axiom_report(samples: int = 40, seed: int = 0) -> AxiomReport:
    """T1-T3 hold on the forked interval; T4 fails on {X, Y}.

    The drawn ticks are deduplicated, so X, Y and at most 64 points t/64
    are checked, whatever ``samples`` is.  Their chain values are integers
    over 64: a point t/64 has t, and the tops share 64, which is fine
    because a chain holds at most one of X, Y."""
    rng = random.Random(seed)
    ticks = list(dict.fromkeys(rng.randrange(0, 64) for _ in range(samples)))
    pts = [FI_X, FI_Y] + [fi_seg(Fraction(t, 64)) for t in ticks]
    return _axiom_report(
        pts, ForkedIntervalPoset().leq, [64, 64] + ticks, fi_seg(0),
        lambda p, q: fi_infimum([p, q]), len(pts),
    )


# ---------------------------------------------------------------------------
# the metric ball inside a subbasic set, and the star witness
# ---------------------------------------------------------------------------


class BallReport(Record):
    epsilon: Fraction
    checked: int
    violations: Tuple[TreePoint, ...]

    def ok(self) -> bool:
        return not self.violations


def ball_in_subbasic_check(
    psi: PathParam,
    sigma: TreePoint,
    tau: TreePoint,
    gamma: TreePoint,
    samples: int = 3,
) -> BallReport:
    """Every point within d(gamma, tau) of gamma shares sigma's direction at tau."""
    tree = _same_tree(sigma, tau, gamma)
    if gamma == tau or not t_tangent_equiv(tau, sigma, gamma):
        raise PreconditionViolatedError("gamma must lie in the tangent class of sigma")
    eps_num, eps_den = _dpsi_pair(psi, gamma, tau)
    checked = 0
    violations = []
    for alpha in tree.grid_points(samples) + [sigma, gamma]:
        num, den = _dpsi_pair(psi, gamma, alpha)
        if num * eps_den >= eps_num * den:  # d(gamma, alpha) >= eps; both dens > 0
            continue
        checked += 1
        if not t_tangent_equiv(tau, sigma, alpha):
            violations.append(alpha)
    return BallReport(Fraction(eps_num, eps_den), checked, tuple(violations))


def build_star(n_branches: int, length=ONE) -> RootedTree:
    if n_branches < 1:
        raise ValueError("a star needs at least one branch")
    return RootedTree({(i,): length for i in range(n_branches)})


def star_neighborhoods(
    star: RootedTree, k: int, rng: random.Random
) -> Tuple[List[int], List[TangentRef]]:
    """k subbasic neighborhoods of the star's center, on k distinct branches.

    rng draws the branches, then each base point's distance 1/4, 1/2 or 3/4
    from the center; returns the branches and the neighborhoods.
    """
    branches = rng.sample(range(star.n_children(())), k)
    center = star.root_point()
    refs = [
        TangentRef(star.point((b,), Fraction(rng.randint(1, 3), 4)), center)
        for b in branches
    ]
    return branches, refs


def star_witness(star: RootedTree, refs: Sequence[TangentRef]) -> TreePoint:
    """A point of every given subbasic neighborhood of the center, on a fresh branch.

    The returned alpha certifies that no ref's neighborhood is contained in
    the center's own class at alpha: alpha lies in each of them but not in
    [center]_alpha (the base point is excluded from its classes).
    """
    n = star.n_children(())
    center = star.root_point()
    if len(refs) >= n - 1:
        raise TooFewBranchesError(
            f"{len(refs)} neighborhoods need at least {len(refs) + 2} branches, "
            f"star has {n}"
        )
    used = set()
    for ref in refs:
        if ref.rep != center:
            raise ValueError("each neighborhood must be a class of the center")
        if ref.base.tree is not star:
            raise ForeignPointError("neighborhood base on a different tree")
        used.add(ref.base.path[0])
    fresh = next(i for i in range(n) if i not in used)
    length = star.edge_length((fresh,))
    return star.point((fresh,), ONE if is_inf(length) else length / 2)


# ---------------------------------------------------------------------------
# the monomial segment of the valuative tree
# ---------------------------------------------------------------------------


def monomial_segment_psi(t) -> QuasiMonomialVal:
    """The point with Psi-value t on the monomial segment: weights (1, t)."""
    t = _coerce_len(t)
    if t < 1:
        raise PreconditionViolatedError("the segment is parametrized by t >= 1")
    return monomial(1, t)
