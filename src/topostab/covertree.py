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
collapsed to their first occurrence. The level-by-level insertion of point
k reaches a node q if q is the root, or if q's parent p is reached and
d(p,k) < 2^(top(q)+2). A reached q offers k a level when d(q,k) < 2^top(q);
k's parent is the offering node with the smallest (distance, index), and
top(k) the smallest level l with d < 2^(l+1). The root first grows its top
to the smallest level t with d(root,k) < 2^t, so it always offers.

Parent rule. Every offering node is reached, so k's parent is the earlier
point q with the smallest (d(q,k), q) among those with d(q,k) < 2^top(q).
On q's ancestor path q = a_0, a_1, ... each step d(a_j, a_(j+1)) is below
2^(top(a_j)+1) and the tops rise strictly, so d(a_(i+1), k) < 2^top(q) +
sum_{j <= i} 2^(top(a_j)+1) < 2^(top(a_i)+2): the reach test of a_i passes.

Slack bound. Rounding could still fail a measured reach test, so each node
stores slack[k] = d(k, parent) + max(slack[parent], -2^(top(k)+2) /
(1 + 1e-12)), -inf at the root: the largest sum_{j <= i} d(a_j, a_(j+1)) -
2^(top(a_i)+2) / (1 + 1e-12) along k's path. A candidate q with
slack[q] + 2^top(q) < 0 is reached. The margin, about 4,500 ulps of the
test, covers the relative rounding of each distance and sum; a sum is
dominated by its last few terms, as the levels halve down the path. Below
level -480 a squared distance can be subnormal, whose rounding is absolute,
so such nodes get slack +inf. An uncertified candidate that would become
the best has the reach tests replayed along its ancestors with the same
distance arithmetic (`_reachable`). A path of about 40 near-tight steps
fails the bound.

Sweep. The inserted points are kept sorted on one coordinate, and the
search for k's parent scans outward from k's place, nearest coordinate
first. A measured distance is at least sqrt(gap*gap) as rounded, which is
the gap itself while the gap's square is a normal float. So the scan
stops once the gap exceeds the best distance times 1 + 1e-12, plus 2^-480
to keep that square normal; deeper, a gap's square rounds so coarsely
that a farther gap can measure nearer. A candidate whose gap is at least
2^top(q) cannot offer, as 2^top(q) squares exactly, and is passed
unmeasured. The coordinate is the one whose sorted values have the largest median gap, so
that ties and a lone outlier cannot pick a bad axis. The worst case is many
points sharing both keys, as on an integer lattice, where the scan walks a
whole row.

The loop reads the first two columns as two float lists and measures
sqrt(dx*dx + dy*dy) inline, the arithmetic of `_distance`; a 1-D input
gets a zero second column, and an input with more than two columns is
measured by `_distance` on its rows. Each node's children are grouped by
level, highest first, once every point is in; `descend` reads the groups.
"""

from __future__ import annotations

import math
from bisect import bisect
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


# the rounding margin of the sweep's stop and of the slack bound
_MARGIN = 1 + 1e-12
# gaps and distances above this have squares that are normal floats
_TINY = 2.0 ** -480


def _insert_all(pts: np.ndarray) -> CoverTree:
    """Insert points 1, 2, ... below the root, point 0."""
    n = len(pts)
    sqrt, frexp, ldexp = math.sqrt, math.frexp, math.ldexp
    xs = pts[:, 0].tolist()
    ys = pts[:, 1].tolist() if pts.shape[1] > 1 else [0.0] * n
    rows = pts.tolist() if pts.shape[1] > 2 else None
    # the column whose sorted values have the largest median gap; a
    # partition, as np.median imports numpy.ma, over 1 MB of RSS
    gaps = np.diff(np.sort(pts, axis=0), axis=0)
    axis = 0 if n < 2 else int(np.argmax(
        np.partition(gaps, n // 2 - 1, axis=0)[n // 2 - 1]))
    values = (xs, ys)[axis] if axis < 2 else pts[:, axis].tolist()
    tops, parent = [0] * n, [-1] * n
    # 2^top(q): q offers a level iff d(q, k) < offer[q]
    offer = [1.0] * n
    # slack[q] + offer[q] < 0: every insert q offers to reaches q
    slack = [-math.inf] * n
    # the inserted points sorted on the sweep's coordinate
    keys, ids = [values[0]], [0]
    for k in range(1, n):
        x, y, v = xs[k], ys[k], values[k]
        dx, dy = xs[0] - x, ys[0] - y
        d = sqrt(dx * dx + dy * dy) if rows is None else \
            _distance(rows[0], rows[k])
        if d >= offer[0]:
            # the smallest top with d < 2^top
            tops[0] = frexp(d)[1]
            offer[0] = ldexp(1.0, tops[0])
        # the root always offers; the best offer is the smallest (d, q)
        bd, bq = d, 0
        stop = bd * _MARGIN + _TINY
        i = bisect(keys, v)
        lo, hi, m = i - 1, i, len(keys)
        gap_lo = v - keys[lo] if lo >= 0 else math.inf
        gap_hi = keys[hi] - v if hi < m else math.inf
        while True:
            if gap_hi <= gap_lo:
                if gap_hi > stop:
                    break
                q, gap = ids[hi], gap_hi
                hi += 1
                gap_hi = keys[hi] - v if hi < m else math.inf
            else:
                if gap_lo > stop:
                    break
                q, gap = ids[lo], gap_lo
                lo -= 1
                gap_lo = v - keys[lo] if lo >= 0 else math.inf
            if gap >= offer[q]:
                continue
            dx, dy = xs[q] - x, ys[q] - y
            d = sqrt(dx * dx + dy * dy) if rows is None else \
                _distance(rows[q], rows[k])
            if d < offer[q] and (d < bd or d == bd and q < bq) and (
                    slack[q] + offer[q] < 0 or
                    _reachable(pts, tops, parent, q, k)):
                bd, bq = d, q
                stop = bd * _MARGIN + _TINY
        # the smallest level with bd < 2^(level+1); at bd == 0 that is
        # -1075, where 2^(level+1) underflows to 0
        level = frexp(bd)[1] - 1 if bd else -1075
        tops[k], parent[k] = level, bq
        offer[k] = ldexp(1.0, level)
        slack[k] = bd + max(slack[bq], -ldexp(1.0, level + 2) / _MARGIN) \
            if offer[k] >= _TINY else math.inf
        keys.insert(i, v)
        ids.insert(i, k)
    groups = [[] for _ in range(n)]
    for k in range(1, n):
        siblings = groups[parent[k]]
        for level, kids in siblings:
            if level == tops[k]:
                kids.append(k)
                break
        else:
            siblings.append((tops[k], [k]))
    for siblings in groups:
        # a node's levels are distinct, so no two kids lists are compared
        siblings.sort(reverse=True)
    return CoverTree(points=pts, top=np.array(tops), parent=np.array(parent),
                     groups=groups, max_level=tops[0])


def _reachable(pts: np.ndarray, top: list, parent: list, q: int,
               k: int) -> bool:
    """Whether inserting k reaches q: every ancestor p of q, with c its
    child on the path, has d(p, k) < 2^(top(c)+2). `_distance` measures
    as the insert does, also on one or two columns."""
    row = pts[k].tolist()
    while parent[q] >= 0:
        p = parent[q]
        if _distance(pts[p].tolist(), row) >= math.ldexp(1.0, top[q] + 2):
            return False
        q = p
    return True


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
