"""Cover trees over points in the plane (any fixed dimension works).

Levels use base-2 scales. For every level i the set C_i of points with
top level >= i satisfies, with strict inequalities:

  nesting     C_i is a subset of C_{i-1}
  covering    every p in C_{i-1} has a parent q in C_i with d(p,q) < 2^i
  separation  distinct p, q in C_i have d(p,q) > 2^i

Behavior when a distance hits a power of two exactly is undefined; callers
with generic (random, float) data never encounter it.

Insertion is deterministic in input order. Exact duplicate points are
collapsed to their first occurrence. Each insert computes a candidate's
distance to the new point at most once and reuses it from the descent in
the attach step.
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
    def radius(self) -> float:
        return 2.0 ** self.level

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

    # -- construction ---------------------------------------------------

    def _insert(self, k: int, coords: list):
        """Insert point k; coords holds self.points as nested lists."""
        p = coords[k]
        droot = float(np.linalg.norm(self.points[self.root] - self.points[k]))
        while droot >= 2.0 ** self.max_level:
            self.max_level += 1
            self.top[self.root] = self.max_level

        dist = {}
        cover_sets = {self.max_level: [self.root]}
        j = self.max_level
        while True:
            cand = list(cover_sets[j])
            for q in cover_sets[j]:
                cand.extend(self.children.get((q, j - 1), []))
            for q in cand:
                if q not in dist:
                    dist[q] = _distance(coords[q], p)
            radius = 2.0 ** j
            near = [q for q in cand if dist[q] < radius]
            if not near:
                break
            cover_sets[j - 1] = near
            j -= 1

        # attach at the deepest level whose cover set has a point in range
        for level in range(j - 1, self.max_level):
            radius = 2.0 ** (level + 1)
            in_range = [(dist[q], q) for q in cover_sets[level + 1]
                        if dist[q] < radius]
            if in_range:
                _, q = min(in_range)
                self.top[k] = level
                self.parent[k] = q
                self.children.setdefault((q, level), []).append(k)
                prev = self.min_child_level.get(q, level)
                self.min_child_level[q] = min(prev, level)
                return
        raise AssertionError("unreachable: root always covers")

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

    unique: dict = {}
    for row in points:
        unique.setdefault(row.tobytes(), row)

    tree = CoverTree(np.array(list(unique.values())))
    coords = tree.points.tolist()
    for k in range(1, len(unique)):
        tree._insert(k, coords)
    return tree


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
