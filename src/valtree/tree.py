"""Rooted non-metric trees with exact rational edge coordinates.

Points live on edges in a canonical parent-edge form, order is root-path
prefix comparison, and every pair has a deepest common point.  A
parametrization assigns increasing values along root-to-leaf paths and
induces a metric through reciprocal differences at the meet.

The forked interval (a totally ordered segment with two incomparable tops)
is kept as its own poset type: it satisfies the chain axioms but has a
two-element subset with no infimum, so it is deliberately not a tree.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .poly import MEMO_SIZE, Record, _cached_hash
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
    """Finite rooted tree; each non-root node carries its parent-edge length."""

    def __init__(self, edges: Mapping[Path, object]):
        self.edges: Dict[Path, ExtRat] = {
            tuple(k): _coerce_len(v) for k, v in edges.items()
        }
        self._kids: Dict[Path, int] = {}
        for path, length in self.edges.items():
            if not path:
                raise ValueError("the root has no parent edge")
            if not is_inf(length) and length <= 0:
                raise ValueError("edge lengths must be positive")
            parent = path[:-1]
            if parent and parent not in self.edges:
                raise ValueError(f"dangling node {path}: parent missing")
            self._kids[parent] = max(self._kids.get(parent, 0), path[-1] + 1)
        for parent, n in self._kids.items():
            for i in range(n):
                if parent + (i,) not in self.edges:
                    raise ValueError(f"child indices of {parent} must be contiguous")
        for path, length in self.edges.items():
            if is_inf(length) and self.n_children(path):
                raise ValueError("infinite edges must end in leaves")
        self._grids: Dict[int, Tuple["TreePoint", ...]] = {}
        # one point object per node, so memos keyed by points mostly hit by identity
        self._nodes: Dict[Path, TreePoint] = {(): TreePoint(self, (), ZERO)}

    def n_children(self, path: Path) -> int:
        return self._kids.get(tuple(path), 0)

    def edge_length(self, path: Path) -> ExtRat:
        return self.edges[tuple(path)]

    def node_paths(self) -> List[Path]:
        return [()] + sorted(self.edges.keys())

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
            for path, length in sorted(self.edges.items()):
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

    def __hash__(self) -> int:
        return _cached_hash(self, (self.tree, self.path, self.t))

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
    return (t_leq(m, r) and t_leq(r, p)) or (t_leq(m, r) and t_leq(r, q))


def _check_tangent_args(tau: TreePoint, sigma: TreePoint, alpha: TreePoint) -> None:
    _same_tree(tau, sigma, alpha)
    if sigma == tau or alpha == tau:
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
    """Arclength-plus-one parametrization: Psi(root)=1, affine on every edge."""

    def __init__(self, tree: RootedTree):
        self.tree = tree
        self._depth: Dict[Path, ExtRat] = {(): ZERO}
        # 1/Psi(p) per point as a pair (numerator, denominator) in lowest
        # terms with a positive denominator; (0, 1) at infinity
        self._recips: Dict[TreePoint, Tuple[int, int]] = {}

    def _node_depth(self, path: Path) -> ExtRat:
        if path not in self._depth:
            self._depth[path] = self._node_depth(path[:-1]) + self.tree.edge_length(path)
        return self._depth[path]

    def psi(self, p: TreePoint) -> ExtRat:
        if p.tree is not self.tree:
            raise ForeignPointError("point is not on the parametrized tree")
        if p.is_root():
            return ONE
        return ONE + self._node_depth(p.path[:-1]) + p.t

    def recip(self, p: TreePoint) -> Fraction:
        """``1/Psi(p)``, 0 at infinity.

        Kept per point, up to ``MEMO_SIZE`` points, as the integer pair
        that ``t_dpsi`` reads; the Fraction is built on each call."""
        return Fraction(*self._recip_pair(p))

    def _recip_pair(self, p: TreePoint) -> Tuple[int, int]:
        if p.tree is not self.tree:
            raise ForeignPointError("point is not on the parametrized tree")
        pair = self._recips.get(p)
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
        acc = ONE
        for k in range(1, len(tau.path) + 1):
            prefix = tau.path[:k]
            limit = tau.t if k == len(tau.path) else self.tree.edge_length(prefix)
            if value <= acc + limit:
                return self.tree.point(prefix, value - acc)
            acc = acc + self.tree.edge_length(prefix)
        return self.tree.root_point()


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
