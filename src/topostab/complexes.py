"""Filtered simplicial complexes: Vietoris-Rips and weighted alpha.

A complex is stored per dimension d: an int array (m_d, d + 1) of vertex
ids, each row ascending and the rows in lexicographic order, and a float64
array (m_d,) of filtration values. Filtration order is (value, dimension,
vertex row), which every consumer relies on; within one dimension it is a
stable argsort of the values.

The Rips builder enumerates each dimension's simplices from the one below
with numpy, in bounded chunks of rows. The weighted alpha builder computes
the regular (weighted Delaunay) triangulation of points in R^3 by lifting
each point (x, w) to (x, |x|^2 - w) in R^4 and keeping the lower convex hull
facets, where w is the squared input radius. Its closure is built on the
same arrays, top dimension first: each dimension's rows are the distinct
rows of the dimension above with one column deleted. The blocking test
goes through `faces`, and so does one descending monotonicity sweep, which
gives each blocked simplex its cheapest coface's value. Filtration values
are squared orthogonal-ball radii; vertices enter at -r^2. Points whose
power cell is empty (hidden vertices) are absent from the output, per
regular-triangulation semantics.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateInput, EmptyCloud

# tolerance for orientation / in-ball predicates, relative to input scale
PREDICATE_TOL = 1e-10

# boolean mask entries per chunk of the Rips coface enumeration
CHUNK_ENTRIES = 1 << 18

ValidationReport = namedtuple("ValidationReport", ["ok", "message"])


class FilteredComplex:
    """Finite filtered complex: per dimension d, `simplices[d]` is an int64
    array (m_d, d + 1) of ascending vertex ids in lexicographic row order
    and `values[d]` the float64 array (m_d,) of filtration values. Read-only
    once built: face indices are computed once and cached."""

    def __init__(self, simplices, values):
        self.simplices = [np.asarray(s, dtype=np.int64).reshape(-1, d + 1)
                          for d, s in enumerate(simplices)]
        self.values = [np.asarray(v, dtype=np.float64) for v in values]
        while self.simplices and not len(self.simplices[-1]):
            self.simplices.pop()
            self.values.pop()
        self._faces = {}

    def __len__(self) -> int:
        return sum(len(v) for v in self.values)

    @property
    def max_dim(self) -> int:
        return len(self.simplices) - 1

    def faces(self, d: int) -> np.ndarray:
        """(m_d, d + 1) row indices into dimension d - 1 of the faces of
        each d-simplex, -1 where a face is absent. Column c holds the face
        without vertex d - c, so a row lists faces in the order of
        itertools.combinations."""
        if d not in self._faces:
            rows = self.simplices[d]
            lo = min(int(s.min()) for s in self.simplices if len(s))
            base = max(int(s.max()) for s in self.simplices if len(s)) - lo + 1
            if base ** d >= 2 ** 63:
                raise ValueError("vertex ids too far apart to index faces")

            def keys(r):
                key = np.zeros(len(r), dtype=np.int64)
                for c in range(r.shape[1]):
                    key = key * base + (r[:, c] - lo)
                return key

            below = keys(self.simplices[d - 1])
            out = np.full((len(rows), d + 1), -1, dtype=np.int64)
            for c in range(d + 1):
                face = keys(np.delete(rows, d - c, axis=1))
                pos = np.searchsorted(below, face)
                hit = pos < len(below)
                hit[hit] = below[pos[hit]] == face[hit]
                out[hit, c] = pos[hit]
            self._faces[d] = out
        return self._faces[d]


def validate_filtration(fc: FilteredComplex) -> ValidationReport:
    """Check face closure and monotonicity; report the first violation."""
    for d in range(1, fc.max_dim + 1):
        faces = fc.faces(d)
        missing = faces < 0
        # an absent face indexes the -inf sentinel, so it is never above
        face_value = np.append(fc.values[d - 1], -np.inf)[faces]
        above = face_value > fc.values[d][:, None]
        bad = missing | above
        rows = np.flatnonzero(bad.any(axis=1))
        if not len(rows):
            continue
        i = int(rows[0])
        c = int(np.flatnonzero(bad[i])[0])
        simplex = tuple(fc.simplices[d][i].tolist())
        face = simplex[:d - c] + simplex[d - c + 1:]
        if missing[i, c]:
            return ValidationReport(
                False, f"face {face} of {simplex} missing")
        return ValidationReport(
            False, f"face {face} at {float(face_value[i, c])} above coface "
                   f"{simplex} at {float(fc.values[d][i])}")
    return ValidationReport(True, "ok")


def _rips_cofaces(rows, values, adj, dist):
    """The Rips simplices one dimension up: each row extended by every
    vertex above its last one that is adjacent to all of its vertices,
    in lexicographic order, with the coface values (the largest edge)."""
    n = len(adj)
    step = max(1, CHUNK_ENTRIES // n)
    later = np.arange(n)
    out_rows, out_values = [], []
    for start in range(0, len(rows), step):
        r = rows[start:start + step]
        mask = later > r[:, -1:]
        for c in range(r.shape[1]):
            mask &= adj[r[:, c]]
        s, k = np.nonzero(mask)
        value = values[start:start + step][s]
        for c in range(r.shape[1]):
            value = np.maximum(value, dist[r[s, c], k])
        out_rows.append(np.column_stack([r[s], k]))
        out_values.append(value)
    return np.concatenate(out_rows), np.concatenate(out_values)


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

    adj = dist <= max_scale
    simplices = [np.arange(n).reshape(-1, 1)]
    values = [np.zeros(n)]
    for _ in range(max_dim):
        if not len(simplices[-1]):
            break
        rows, vals = _rips_cofaces(simplices[-1], values[-1], adj, dist)
        simplices.append(rows)
        values.append(vals)
    return FilteredComplex(simplices, values)


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

    # facial closure: np.unique returns the faces ascending and in
    # lexicographic row order, the layout FilteredComplex requires
    rows = [np.array(_top_cells(points, sqw), dtype=np.int64)]
    for d in range(rows[0].shape[1] - 1, 0, -1):
        rows.insert(0, np.unique(np.concatenate(
            [np.delete(rows[0], c, axis=1) for c in range(d + 1)]), axis=0))
    top = len(rows) - 1
    fc = FilteredComplex(rows, [np.empty(len(r)) for r in rows])
    values = fc.values

    if top:
        values[top][:] = _ortho_balls(points[rows[top]], sqw[rows[top]])[1]
    for d in range(top - 1, 0, -1):
        center, r2 = _ortho_balls(points[rows[d]], sqw[rows[d]])
        # one power per (simplex, opposite vertex of a coface) pair: face
        # column c of a coface omits its vertex d + 1 - c; the simplex's
        # smallest ball is blocked if any of the powers is below r2
        face = fc.faces(d + 1)
        opposite = rows[d + 1][:, ::-1]
        power = (((center[face] - points[opposite]) ** 2).sum(axis=2)
                 - sqw[opposite])
        # blocked: +inf here, its cheapest coface's value after the sweep
        r2[face[power < r2[face]]] = np.inf
        values[d][:] = r2
    values[0][:] = -sqw[rows[0][:, 0]]

    # one descending sweep lowers each simplex to its cofaces' minimum: this
    # assigns the blocked values and re-enforces monotonicity numerically
    for d in range(top, 1, -1):
        np.minimum.at(values[d - 1], fc.faces(d), values[d][:, None])

    if max_dim >= top:
        return fc
    return FilteredComplex(rows[:max_dim + 1], values[:max_dim + 1])
