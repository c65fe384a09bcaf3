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
(distance, index). The root first grows its top to the smallest level t
with d(root,k) < 2^t, so it always offers.

`build` inserts every point in one loop, and compares each distance with
powers of two instead of working out its level. l_q < t exactly when
d < 2^t, so q offers iff d < 2^top(q), a group of children at level c is
reachable iff d < 2^(c+2), and the root grows while d >= 2^top(root).
l_q never falls as d grows, so the smallest (l_q, d, q) is the smallest
(d, q), and one frexp on the winning distance gives top(k). The powers
are kept per node and per group, made with ldexp; 2^-1075 underflows to
0, so a node at level -1075 (at distance 0 from its parent) offers
nothing, as l_q >= -1075 is never below its top. A nonzero distance is a
sqrt of at least the smallest subnormal, so at least 2^-537, and every
other power compared with is exact.

The loop reads the first two columns as two float lists and measures
sqrt(dx*dx + dy*dy) inline, the arithmetic of `_distance`; a 1-D input
gets a zero second column, and an input with more than two columns is
measured by `_distance` on its rows. Each node keeps its children as
(level, children) groups, highest level first, so a walk stops at the
first group out of reach. The groups are the tree's only child
structure: `descend` reads them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass
class CoverTree:
    """The tree `build` returns. Node 0 is the root, at `max_level`; node k
    sits at level `top[k]` below `parent[k]` (-1 for the root), and
    `groups[k]` lists k's children as (level, kids) groups, highest level
    first, each kids list in insertion order."""

    points: np.ndarray
    top: np.ndarray
    parent: np.ndarray
    groups: list
    max_level: int

    @property
    def min_level(self) -> int:
        return int(self.top.min())


def build(points) -> CoverTree:
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    if points.ndim != 2 or points.shape[1] == 0:
        raise ValueError(f"cover tree points must be a 1-D or an (n, d >= 1) "
                         f"array, not of shape {points.shape}")
    if len(points) == 0:
        raise DataError("cover tree needs at least one point")
    # every squared distance the insert measures is at most this sum
    with np.errstate(over="ignore", invalid="ignore"):
        extent = np.square(np.ptp(points, axis=0)).sum()
    if not np.isfinite(extent):
        raise DataError("cover tree points and their squared distances "
                        "must be finite")

    unique: dict = {}
    for row in points:
        unique.setdefault(row.tobytes(), row)

    return _insert_all(np.array(list(unique.values())))


def _insert_all(pts: np.ndarray) -> CoverTree:
    """Insert points 1, 2, ... below the root, point 0."""
    n = len(pts)
    sqrt, frexp, ldexp = math.sqrt, math.frexp, math.ldexp
    xs = pts[:, 0].tolist()
    ys = pts[:, 1].tolist() if pts.shape[1] > 1 else [0.0] * n
    rows = pts.tolist() if pts.shape[1] > 2 else None
    tops, parent = [0] * n, [-1] * n
    # 2^top(q): q offers a level iff d(q, k) < offer[q]
    offer = [1.0] * n
    # node -> [(2^(child level + 2), children)], highest level first; the
    # children are reachable iff d(node, k) < 2^(child level + 2)
    groups = [[] for _ in range(n)]
    for k in range(1, n):
        x, y = xs[k], ys[k]
        dx, dy = xs[0] - x, ys[0] - y
        d = sqrt(dx * dx + dy * dy) if rows is None else \
            _distance(rows[0], rows[k])
        if d >= offer[0]:
            # the smallest top with d < 2^top
            tops[0] = frexp(d)[1]
            offer[0] = ldexp(1.0, tops[0])
        # the root always offers; the best offer is the smallest (d, q)
        bd, bq = d, 0
        # every reachable node, walked while it grows; the walk's order does
        # not matter, since the best offer is a minimum
        reached = []
        for reach, kids in groups[0]:
            if d >= reach:
                break
            reached += kids
        for q in reached:
            dx, dy = xs[q] - x, ys[q] - y
            d = sqrt(dx * dx + dy * dy) if rows is None else \
                _distance(rows[q], rows[k])
            if d < offer[q] and (d < bd or d == bd and q < bq):
                bd, bq = d, q
            for reach, kids in groups[q]:
                if d >= reach:
                    break
                reached += kids
        # the smallest level with bd < 2^(level+1); at bd == 0 that is
        # -1075, where 2^(level+1) underflows to 0
        level = frexp(bd)[1] - 1 if bd else -1075
        tops[k] = level
        offer[k] = ldexp(1.0, level)
        parent[k] = bq
        reach = ldexp(1.0, level + 2)
        siblings = groups[bq]
        i = sum(r > reach for r, _ in siblings)
        if i < len(siblings) and siblings[i][0] == reach:
            siblings[i][1].append(k)
        else:
            siblings.insert(i, (reach, [k]))
    for node in groups:
        node[:] = [(tops[kids[0]], kids) for _, kids in node]
    return CoverTree(points=pts, top=np.array(tops), parent=np.array(parent),
                     groups=groups, max_level=tops[0])


def _distance(a: list, b: list) -> float:
    """Euclidean distance with the squares summed in coordinate order from
    0.0. Below 8 coordinates numpy sums a row in the same order, so this
    equals np.linalg.norm(a - b) along an axis bit for bit."""
    s = 0.0
    for x, y in zip(a, b):
        d = x - y
        s += d * d
    return math.sqrt(s)


def descend(tree: CoverTree, node: int, level: int) -> list:
    """The nodes one level down from `node` seen at `level`: its kids at
    level-1, then node itself. A node with no group at or below level-1 is
    a leaf and yields [], which ends any repeated self-descent."""
    groups = tree.groups[node]
    if not groups or groups[-1][0] >= level:
        return []
    kids = next((kids for child_level, kids in groups
                 if child_level == level - 1), [])
    return [*kids, node]
