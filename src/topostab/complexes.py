"""Filtered simplicial complexes: Vietoris-Rips and weighted alpha.

Simplices are tuples of vertex indices sorted ascending. Filtration order is
(value, dimension, vertex tuple), which every consumer relies on.

The weighted alpha builder computes the regular (weighted Delaunay)
triangulation of points in R^3 by lifting each point (x, w) to
(x, |x|^2 - w) in R^4 and keeping the lower convex hull facets, where w is
the squared input radius. Filtration values are squared orthogonal-ball
radii; vertices enter at -r^2. Points whose power cell is empty (hidden
vertices) are absent from the output, per regular-triangulation semantics.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateInput, EmptyCloud

# tolerance for orientation / in-ball predicates, relative to input scale
PREDICATE_TOL = 1e-10

ValidationReport = namedtuple("ValidationReport", ["ok", "message"])


class FilteredComplex:
    """Finite filtered complex, mutable during construction only."""

    def __init__(self):
        self._values: dict = {}

    def add(self, simplex, value: float):
        simplex = tuple(simplex)
        if len(set(simplex)) != len(simplex):
            raise ValueError(f"repeated vertex in simplex {simplex}")
        self._values[tuple(sorted(simplex))] = float(value)

    def value_of(self, simplex) -> float:
        return self._values[tuple(sorted(simplex))]

    def __contains__(self, simplex) -> bool:
        return tuple(sorted(simplex)) in self._values

    def __len__(self) -> int:
        return len(self._values)

    @property
    def max_dim(self) -> int:
        return max((len(s) - 1 for s in self._values), default=-1)

    def vertices(self) -> list:
        return sorted(s[0] for s in self._values if len(s) == 1)

    def simplices(self) -> list:
        """All (simplex, value) pairs in filtration order."""
        return sorted(self._values.items(),
                      key=lambda kv: (kv[1], len(kv[0]), kv[0]))


def validate_filtration(fc: FilteredComplex) -> ValidationReport:
    """Check face closure and monotonicity; report the first violation."""
    for simplex, value in fc._values.items():
        if len(simplex) == 1:
            continue
        for face in itertools.combinations(simplex, len(simplex) - 1):
            if face not in fc:
                return ValidationReport(
                    False, f"face {face} of {simplex} missing")
            fv = fc.value_of(face)
            if fv > value:
                return ValidationReport(
                    False,
                    f"face {face} at {fv} above coface {simplex} at {value}")
    return ValidationReport(True, "ok")


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_rips(points, max_scale: float, max_dim: int) -> FilteredComplex:
    """Vietoris-Rips complex capped at max_scale (inclusive) and max_dim."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    n = len(points)
    if n == 0:
        raise EmptyCloud("Rips input has no points")
    if max_scale <= 0:
        raise ValueError("max_scale must be positive")
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")

    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))

    fc = FilteredComplex()
    for i in range(n):
        fc.add((i,), 0.0)
    if max_dim == 0:
        return fc

    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i, j] <= max_scale:
                adj[i] |= 1 << j
                adj[j] |= 1 << i

    above = [~((1 << (i + 1)) - 1) for i in range(n)]

    def expand(simplex, cand, value):
        fc.add(simplex, value)
        if len(simplex) == max_dim + 1:
            return
        for k in _iter_bits(cand):
            new_value = max(value, dist[list(simplex), k].max())
            expand(simplex + (k,), cand & adj[k] & above[k], new_value)

    for i in range(n):
        for j in _iter_bits(adj[i] & above[i]):
            expand((i, j), adj[i] & adj[j] & above[j], dist[i, j])
    # expand's closure refers to expand itself; without this the cycle
    # keeps fc and dist alive until the next full garbage collection
    del expand
    return fc


def _ortho_ball(pts: np.ndarray, sqw: np.ndarray):
    """Smallest ball orthogonal to the weighted points (w = radius^2).

    Returns (center, squared_radius). The center solves the power-equality
    system restricted to the simplex's affine hull.
    """
    p0 = pts[0]
    if len(pts) == 1:
        return p0.copy(), -sqw[0]
    a = pts[1:] - p0
    b = 0.5 * ((pts[1:] ** 2).sum(axis=1) - sqw[1:]
               - (p0 ** 2).sum() + sqw[0])
    rhs = b - a @ p0
    gram = a @ a.T
    try:
        mu = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        mu, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    center = p0 + a.T @ mu
    r2 = ((center - p0) ** 2).sum() - sqw[0]
    return center, r2


def _ortho_balls(pts: np.ndarray, sqw: np.ndarray):
    """_ortho_ball over a stack: pts (m, k, 3), sqw (m, k) with k >= 2.

    Returns (centers (m, 3), squared radii (m,)). Every step is
    _ortho_ball's arithmetic on one stack entry, so the results are equal
    to it bit for bit; a singular Gram matrix anywhere in the stack sends
    the whole stack through _ortho_ball and its lstsq fallback.
    """
    p0 = pts[:, 0]
    a = pts[:, 1:] - p0[:, None]
    b = 0.5 * ((pts[:, 1:] ** 2).sum(axis=2) - sqw[:, 1:]
               - (p0 ** 2).sum(axis=1)[:, None] + sqw[:, :1])
    rhs = b - (a @ p0[:, :, None])[..., 0]
    at = a.transpose(0, 2, 1)
    try:
        mu = np.linalg.solve(a @ at, rhs[..., None])
    except np.linalg.LinAlgError:
        balls = [_ortho_ball(p, w) for p, w in zip(pts, sqw)]
        return (np.array([c for c, _ in balls]),
                np.array([r2 for _, r2 in balls]))
    center = p0 + (at @ mu)[..., 0]
    r2 = ((center - p0) ** 2).sum(axis=1) - sqw[:, 0]
    return center, r2


def _regular_tetrahedra(points: np.ndarray, sqw: np.ndarray, tol: float):
    """Tetrahedra of the regular triangulation via the lifted lower hull."""
    lift = np.column_stack([points, (points ** 2).sum(axis=1) - sqw])
    scale = max(1.0, float(np.abs(lift[:, 3]).max()))
    try:
        hull = ConvexHull(lift, qhull_options="Qt")
    except QhullError:
        # cospherical/equally-weighted inputs make the lift degenerate;
        # perturb weights deterministically for the combinatorial step only
        delta = 1e-9 * scale
        sqw_pert = sqw + delta * (np.arange(len(points)) + 1)
        lift = np.column_stack(
            [points, (points ** 2).sum(axis=1) - sqw_pert])
        try:
            hull = ConvexHull(lift, qhull_options="Qt")
        except QhullError as exc:
            raise DegenerateInput(
                f"degenerate point configuration: {exc}") from exc
    tets = set()
    for facet, eq in zip(hull.simplices, hull.equations):
        if eq[3] < -tol:
            tets.add(tuple(sorted(int(v) for v in facet)))
    if not tets:
        raise DegenerateInput("no lower-hull cells; input is degenerate")
    return sorted(tets)


def _top_cells(points: np.ndarray, sqw: np.ndarray) -> list:
    n = len(points)
    scale = max(1.0, float(np.abs(points).max()))
    tol = PREDICATE_TOL * scale
    if n == 1:
        return [(0,)]
    if n == 2:
        if np.linalg.norm(points[1] - points[0]) <= tol:
            raise DegenerateInput("coincident points")
        return [(0, 1)]
    if n == 3:
        area = np.linalg.norm(np.cross(points[1] - points[0],
                                       points[2] - points[0]))
        if area <= tol * scale:
            raise DegenerateInput("three collinear points")
        return [(0, 1, 2)]
    if n == 4:
        vol = abs(np.linalg.det(points[1:] - points[0]))
        if vol <= tol * scale * scale:
            raise DegenerateInput("four coplanar points")
        return [(0, 1, 2, 3)]
    return _regular_tetrahedra(points, sqw, PREDICATE_TOL)


def build_weighted_alpha(cloud, max_dim: int = 3) -> FilteredComplex:
    """Weighted alpha filtration of a 3-D weighted point cloud.

    Values are squared orthogonal-ball radii; a simplex whose smallest ball
    is blocked by a neighboring weighted point enters together with its
    cheapest coface instead.
    """
    points = np.asarray(cloud.points, dtype=float)
    weights = np.asarray(cloud.weights, dtype=float)
    n = len(points)
    if n == 0:
        raise EmptyCloud("alpha input has no points")
    if points.shape[1] != 3:
        raise ValueError("weighted alpha expects points in R^3")
    sqw = weights ** 2

    cells = _top_cells(points, sqw)
    top = len(cells[0]) - 1

    # facial closure, grouped by dimension
    by_dim = [set() for _ in range(top + 1)]
    by_dim[top].update(cells)
    for d in range(top, 0, -1):
        for simplex in by_dim[d]:
            for face in itertools.combinations(simplex, d):
                by_dim[d - 1].add(face)

    cofaces = {s: [] for d in range(top) for s in by_dim[d]}
    for d in range(1, top + 1):
        for simplex in by_dim[d]:
            for face in itertools.combinations(simplex, d):
                cofaces[face].append(simplex)

    value = {}
    for d in range(top, 0, -1):
        simplices = list(by_dim[d])
        idx = np.array(simplices)
        center, r2 = _ortho_balls(points[idx], sqw[idx])
        if d == top:
            value.update(zip(simplices, r2.tolist()))
            continue
        # one power per (simplex, opposite vertex of a coface) pair; the
        # simplex's smallest ball is blocked if any of them is below r2
        face, opposite = [], []
        for i, simplex in enumerate(simplices):
            total = sum(simplex)
            for coface in cofaces[simplex]:
                face.append(i)
                opposite.append(sum(coface) - total)
        face, opposite = np.array(face), np.array(opposite)
        power = (((center[face] - points[opposite]) ** 2).sum(axis=1)
                 - sqw[opposite])
        blocked = np.zeros(len(simplices), dtype=bool)
        blocked[face[power < r2[face]]] = True
        for simplex, is_blocked, r in zip(simplices, blocked.tolist(),
                                          r2.tolist()):
            if is_blocked:
                value[simplex] = min(value[c] for c in cofaces[simplex])
            else:
                value[simplex] = r
    for simplex in by_dim[0]:
        value[simplex] = -sqw[simplex[0]]

    # numerical safety: one descending sweep re-enforcing monotonicity
    for d in range(top, 1, -1):
        for simplex in by_dim[d]:
            v = value[simplex]
            for face in itertools.combinations(simplex, d):
                if value[face] > v:
                    value[face] = v

    fc = FilteredComplex()
    for simplex, v in value.items():
        if len(simplex) - 1 <= max_dim:
            fc.add(simplex, v)
    return fc
