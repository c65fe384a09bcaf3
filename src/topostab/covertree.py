"""Cover trees over points in the plane (any fixed dimension works).

Levels use base-2 scales. For every level i the set C_i of points with
top level >= i satisfies, with strict inequalities:

  nesting     C_i is a subset of C_{i-1}
  covering    every p in C_{i-1} has a parent q in C_i with d(p,q) < 2^i
  separation  distinct p, q in C_i have d(p,q) > 2^i

The axioms are claimed for generic (random, float) data only. Where a
distance hits a power of two exactly, `build` still gives the same tree as
the level-by-level insertion of Beygelzimer, Kakade & Langford (ICML 2006).

Insertion is deterministic in input order. Exact duplicate points are
collapsed to their first occurrence. Point k is inserted node by node: a
node q is reachable if it is the root, or if its parent p is reachable and
d(p,k) < 2^(top(q)+2); these are the nodes the level-by-level descent
measures. With l_q the smallest level such that d(q,k) < 2^(l_q+1), a
reachable q offers l_q when l_q < top(q). top(k) is the smallest level
offered, and k's parent the node offering it with the smallest
(distance, index).

`build` inserts every point in one loop. It reads the first two columns as
two float lists and measures sqrt(dx*dx + dy*dy) inline, the arithmetic of
`_distance`; a 1-D input gets a zero second column, and an input with more
than two columns is measured by `_distance` on its rows. Each node keeps
its children as (level, children) groups, highest level first, so a walk
stops at the first group out of reach. `children` maps (node, level) to a
group, with its keys in the order in which the groups were first made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput


@dataclass
class CoverBall:
    """A tree node viewed at a level: center point plus its scale."""

    node: int          # index into tree.points
    level: int
    center: np.ndarray

    @property
    def region_radius(self) -> float:
        # descendants of a level-i node all lie within 2^(i+1) of it
        return 2.0 ** (self.level + 1)


class CoverTree:
    def __init__(self, points: np.ndarray):
        self.points = points
        n = len(points)
        self.top = np.zeros(n, dtype=int)
        self.parent = np.full(n, -1, dtype=int)
        self.children: dict = {}
        self.min_child_level: dict = {}
        self.root = 0
        self.max_level = 0

    # -- queries ---------------------------------------------------------

    @property
    def min_level(self) -> int:
        return int(self.top.min())

    def root_ball(self) -> CoverBall:
        return CoverBall(node=self.root, level=self.max_level,
                         center=self.points[self.root])

    def _has_children_below(self, node: int, level: int) -> bool:
        return self.min_child_level.get(node, level + 1) <= level


def build(points) -> CoverTree:
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    if points.ndim != 2 or points.shape[1] == 0:
        raise ValueError(f"cover tree points must be a 1-D or an (n, d >= 1) "
                         f"array, not of shape {points.shape}")
    if len(points) == 0:
        raise EmptyInput("cover tree needs at least one point")
    # every squared distance the insert measures is at most this sum
    with np.errstate(over="ignore", invalid="ignore"):
        extent = np.square(np.ptp(points, axis=0)).sum()
    if not np.isfinite(extent):
        raise ValueError("cover tree points and their squared distances "
                         "must be finite")

    unique: dict = {}
    for row in points:
        unique.setdefault(row.tobytes(), row)

    tree = CoverTree(np.array(list(unique.values())))
    _insert_all(tree)
    return tree


def _insert_all(tree: CoverTree) -> None:
    """Insert points 1, 2, ... below the root, point 0, then set fields."""
    pts = tree.points
    n = len(pts)
    sqrt, frexp = math.sqrt, math.frexp
    xs = pts[:, 0].tolist()
    ys = pts[:, 1].tolist() if pts.shape[1] > 1 else [0.0] * n
    rows = pts.tolist() if pts.shape[1] > 2 else None
    tops, parent = [0] * n, [-1] * n
    # node -> [(child level, children)], highest level first
    groups = [[] for _ in range(n)]
    made = []   # ((node, level), children) in the order the groups were made
    max_level = 0
    for k in range(1, n):
        x, y = xs[k], ys[k]
        # the root is popped first, its top grown to the smallest with
        # d(root, k) < 2^top, and it always offers a level below that top
        blevel, bd, bq = math.inf, 0.0, 0
        stack = [0]
        while stack:
            q = stack.pop()
            dx, dy = xs[q] - x, ys[q] - y
            d = sqrt(dx * dx + dy * dy) if rows is None else \
                _distance(rows[q], rows[k])
            # the smallest l with d < 2^(l+1), exact at powers of two; at
            # d == 0 that is -1075, where 2.0 ** (l+1) underflows to 0
            level = frexp(d)[1] - 1 if d else -1075
            if level >= max_level and not q:
                max_level = tops[0] = level + 1
            if level < tops[q] and (level, d, q) < (blevel, bd, bq):
                blevel, bd, bq = level, d, q
            # a child c is reachable iff d < 2^(top(c)+2): top(c) >= level-1
            cut = level - 1
            for child_level, kids in groups[q]:
                if child_level < cut:
                    break
                stack += kids
        tops[k] = blevel
        parent[k] = bq
        siblings = groups[bq]
        i = sum(child_level > blevel for child_level, _ in siblings)
        if i < len(siblings) and siblings[i][0] == blevel:
            siblings[i][1].append(k)
        else:
            siblings.insert(i, (blevel, [k]))
            made.append(((bq, blevel), siblings[i][1]))

    tree.top = np.array(tops)
    tree.parent = np.array(parent)
    tree.children = dict(made)
    tree.min_child_level = {q: g[-1][0] for q, g in enumerate(groups) if g}
    tree.max_level = max_level


def _distance(a: list, b: list) -> float:
    """Euclidean distance with the squares summed in coordinate order from
    0.0. Below 8 coordinates numpy sums a row in the same order, so this
    equals np.linalg.norm(a - b) along an axis bit for bit."""
    s = 0.0
    for x, y in zip(a, b):
        d = x - y
        s += d * d
    return math.sqrt(s)


def descend(tree: CoverTree, ball: CoverBall) -> list:
    """Child balls at level-1: explicit children plus the node itself.

    A node with no structure below the current level is a leaf and yields
    nothing, which terminates any repeated self-descent.
    """
    if not tree._has_children_below(ball.node, ball.level - 1):
        return []
    out = [CoverBall(node=c, level=ball.level - 1, center=tree.points[c])
           for c in tree.children.get((ball.node, ball.level - 1), [])]
    out.append(CoverBall(node=ball.node, level=ball.level - 1,
                         center=tree.points[ball.node]))
    return out
