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
        # node -> the levels of its children, highest first
        self._child_levels: dict = {}
        self.root = 0
        self.max_level = 0

    # -- construction ---------------------------------------------------

    def _insert(self, k: int, coords: list, tops: list):
        """Insert point k; coords holds self.points as nested lists and
        tops the top levels, which `build` copies into self.top."""
        p = coords[k]
        droot = _distance(coords[self.root], p)
        while droot >= 2.0 ** self.max_level:
            self.max_level += 1
        tops[self.root] = self.max_level

        # (level, distance, node) of the parent so far; the root always
        # offers a level, as droot < 2^max_level
        best = None
        child_levels, children = self._child_levels, self.children
        stack = [self.root]
        while stack:
            q = stack.pop()
            d = _distance(coords[q], p)
            level = _level(d)
            if level < tops[q] and (best is None or (level, d, q) < best):
                best = (level, d, q)
            # a child c is reachable iff d < 2^(top(c)+2): top(c) >= level-1
            for child_level in child_levels.get(q, ()):
                if child_level < level - 1:
                    break
                stack += children[(q, child_level)]
        level, _, q = best
        tops[k] = level
        self.parent[k] = q
        kids = children.setdefault((q, level), [])
        if not kids:
            levels = child_levels.setdefault(q, [])
            levels.append(level)
            levels.sort(reverse=True)
            self.min_child_level[q] = levels[-1]
        kids.append(k)

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
    if len(points) == 0:
        raise EmptyInput("cover tree needs at least one point")
    if not np.isfinite(points).all():
        raise ValueError("cover tree points must be finite")

    unique: dict = {}
    for row in points:
        unique.setdefault(row.tobytes(), row)

    tree = CoverTree(np.array(list(unique.values())))
    coords = tree.points.tolist()
    tops = [0] * len(coords)
    for k in range(1, len(coords)):
        tree._insert(k, coords, tops)
    tree.top = np.array(tops)
    return tree


def _level(d: float) -> int:
    """The smallest level l with d < 2^(l+1), exact at powers of two. At
    d == 0 that is -1075, where 2.0 ** (l+1) underflows to 0."""
    return math.frexp(d)[1] - 1 if d else -1075


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
