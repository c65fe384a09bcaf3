"""Filtered simplicial complexes: Vietoris-Rips and weighted alpha.

A complex is stored per dimension d: an int array (m_d, d + 1) of vertex
ids, each row ascending and the rows in lexicographic order, and a float64
array (m_d,) of filtration values. Filtration order is (value, dimension,
vertex row), which every consumer relies on; within one dimension it is a
stable argsort of the values.

The Rips builder enumerates each dimension's simplices from the one below
with numpy, in bounded chunks of rows, computing the value of every coface
of a chunk once. Each coface is built as a (parent row, vertex k) pair,
and the pairs give every dimension's face table in the same pass: the
parent, and one `searchsorted` of the rows one dimension down that are
the parent's faces plus k. Rows are built only below max_dim: the top
dimension is kept as its values and face table, all the reduction reads.

The weighted alpha builder computes the regular (weighted Delaunay)
triangulation of points in R^3 by lifting each point (x, w) to
(x, |x|^2 - w) in R^4 and keeping the lower convex hull facets, where w is
the squared input radius. Its closure is built on the same arrays, top dimension first:
each dimension's rows are the distinct rows of the dimension above with one
column deleted. The hull's cells and each closure dimension are made
distinct by `_unique_rows`: one lexsort of the rows, then a compare with
the row before. The blocking test goes through `faces`, and so does one
descending monotonicity sweep, which gives each blocked simplex its
cheapest coface's value. Filtration values are squared orthogonal-ball
radii; vertices enter at -r^2. Points whose power cell is empty (hidden
vertices) are absent from the output, per regular-triangulation semantics.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

# tolerance for orientation / in-ball predicates, relative to input scale
PREDICATE_TOL = 1e-10

# coface values per chunk of the Rips coface enumeration
CHUNK_ENTRIES = 1 << 18


class FilteredComplex:
    """Finite filtered complex: per dimension d, `simplices[d]` is an int64
    array (m_d, d + 1) of ascending vertex ids in lexicographic row order
    and `values[d]` the float64 array (m_d,) of filtration values. Read-only
    once built: face indices are computed once and cached. `faces`, if
    given, holds the face table of dimensions 1, 2, ... in `faces()`'s
    layout; a dimension with a table may then have no rows, so a Rips
    complex's `simplices` has one item fewer than `values`."""

    def __init__(self, simplices, values, faces=()):
        self.simplices = [np.asarray(s, dtype=np.int64).reshape(-1, d + 1)
                          for d, s in enumerate(simplices)]
        self.values = [np.asarray(v, dtype=np.float64) for v in values]
        while self.values and not len(self.values[-1]):
            self.values.pop()
        del self.simplices[len(self.values):]
        self._faces = dict(enumerate(faces[:self.max_dim], 1))

    def __len__(self) -> int:
        return sum(len(v) for v in self.values)

    @property
    def max_dim(self) -> int:
        return len(self.values) - 1

    def faces(self, d: int) -> np.ndarray:
        """(m_d, d + 1) row indices into dimension d - 1 of the faces of
        each d-simplex, -1 where a face is absent. Column c holds the face
        without vertex d - c, so a row lists faces in the order of
        itertools.combinations. A table not given is found from the rows
        by packed keys."""
        if d not in self._faces:
            lo = min(int(s.min()) for s in self.simplices if len(s))
            base = max(int(s.max()) for s in self.simplices if len(s)) - lo + 1
            if base ** d >= 2 ** 63:
                raise ValueError("vertex ids too far apart to index faces")

            def keys(r):
                key = np.zeros(len(r), dtype=np.int64)
                for c in range(r.shape[1]):
                    key = key * base + (r[:, c] - lo)
                return key

            rows = self.simplices[d]
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

    def coboundary(self, d: int, rank: np.ndarray):
        """(first, cofaces) of the d-simplices, where rank[j] is the
        filtration rank of (d + 1)-simplex j: first[i] is the lowest rank
        among the cofaces of d-simplex i (-1 if it has none), and
        cofaces(i) is the int array of their ranks."""
        m = len(self.values[d])
        # below 2^16 faces the narrow ids make numpy's stable sort a radix
        # sort; the permutation is the same at any width
        faces = self.faces(d + 1).ravel().astype(np.min_scalar_type(m))
        by_face = np.argsort(faces, kind="stable")
        ranks = rank[by_face // (d + 2)]
        start = np.searchsorted(faces[by_face], np.arange(m + 1))
        has = start[1:] > start[:-1]
        first = np.full(m, -1, dtype=np.int64)
        first[has] = np.minimum.reduceat(ranks, start[:-1][has])
        start = start.tolist()
        return first, lambda i: ranks[start[i]:start[i + 1]]


def validate_filtration(fc: FilteredComplex) -> None:
    """Check face closure and monotonicity of the dimensions held as rows
    (a Rips top dimension, held without rows, is valid by construction);
    the first violation is a DataError."""
    for d in range(1, len(fc.simplices)):
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
            raise DataError(f"face {face} of {simplex} missing")
        raise DataError(f"face {face} at {float(face_value[i, c])} above "
                        f"coface {simplex} at {float(fc.values[d][i])}")


def _rips_cofaces(rows, values, reach):
    """The Rips simplices one dimension up, in lexicographic order: each
    row extended by every vertex k above its last one that is within
    reach of all of its vertices. Returns (row index, k, coface value)
    arrays, the value being the largest edge."""
    n = len(reach)
    step = max(1, CHUNK_ENTRIES // n)
    later = np.arange(n)
    out = []
    for start in range(0, len(rows), step):
        r = rows[start:start + step]
        # the value of every coface, +inf for a vertex that spans none
        value = np.maximum(reach[r[:, 0]], values[start:start + step, None])
        for c in range(1, r.shape[1]):
            np.maximum(value, reach[r[:, c]], out=value)
        s = ((later > r[:, -1:]) & (value < np.inf)).ravel().nonzero()[0]
        out.append((start + s // n, s % n, value.ravel()[s]))
    return [np.concatenate(parts) for parts in zip(*out)]


def build_rips(points, max_scale: float, max_dim: int) -> FilteredComplex:
    """Vietoris-Rips complex capped at max_scale (inclusive) and max_dim.
    Every dimension gets its face table from the build; every dimension
    below max_dim is also built as rows, and max_dim is kept as values and
    face table only."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    n = len(points)
    if n == 0:
        raise DataError("Rips input has no points")
    if not np.isfinite(points).all():
        raise DataError("a coordinate is not finite")
    if not max_scale > 0:
        raise ValueError(f"max_scale must be positive, got {max_scale}")
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")

    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    reach = np.where(dist <= max_scale, dist, np.inf)
    np.fill_diagonal(reach, np.inf)
    simplices = [np.arange(n).reshape(-1, 1)]
    values = [np.zeros(n)]
    faces = []
    while len(values) <= max_dim and len(values[-1]):
        parent, k, vals = _rips_cofaces(simplices[-1], values[-1], reach)
        # face column 0 drops k and is the parent row; column c >= 1 drops
        # a parent vertex and is the row built from the parent's face c - 1
        # and k, found by its ascending (parent, k) code. A column's codes
        # come mostly ascending, which searchsorted is quick on
        if faces:
            table = [codes.searchsorted(f * n + k)
                     for f in faces[-1].T[:, parent]]
        else:
            table = [k]
        faces.append(np.column_stack([parent, *table]))
        codes = parent * n + k
        values.append(vals)
        if len(values) <= max_dim:
            simplices.append(np.column_stack([simplices[-1][parent], k]))
    return FilteredComplex(simplices, values, faces)


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


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D int array in lexicographic order, equal
    to np.unique(rows, axis=0): one lexsort (first column most
    significant), then each row that differs from the row before it."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def _regular_tetrahedra(points: np.ndarray, sqw: np.ndarray, tol: float):
    """Tetrahedra of the regular triangulation via the lifted lower hull."""
    # imported here, so that only a weighted-alpha build loads scipy
    from scipy.spatial import ConvexHull, QhullError

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
            raise DataError(
                f"degenerate point configuration: {exc}") from exc
    lower = hull.simplices[hull.equations[:, 3] < -tol]
    if not len(lower):
        raise DataError("no lower-hull cells; input is degenerate")
    return _unique_rows(np.sort(lower, axis=1).astype(np.int64))


def _top_cells(points: np.ndarray, sqw: np.ndarray) -> np.ndarray:
    """The top cells of the regular triangulation as an int64 array (m, k),
    each row ascending and the rows in lexicographic order."""
    n = len(points)
    scale = max(1.0, float(np.abs(points).max()))
    tol = PREDICATE_TOL * scale
    if n == 2 and np.linalg.norm(points[1] - points[0]) <= tol:
        raise DataError("coincident points")
    if n == 3:
        area = np.linalg.norm(np.cross(points[1] - points[0],
                                       points[2] - points[0]))
        if area <= tol * scale:
            raise DataError("three collinear points")
    if n == 4:
        vol = abs(np.linalg.det(points[1:] - points[0]))
        if vol <= tol * scale * scale:
            raise DataError("four coplanar points")
    if n <= 4:
        return np.arange(n, dtype=np.int64).reshape(1, n)
    return _regular_tetrahedra(points, sqw, PREDICATE_TOL)


def check_cloud(points, weights=None):
    """(points, weights) as float arrays, if they are a weighted cloud:
    points (n, 3) with n >= 1 and finite coordinates, and n finite
    nonnegative radii, where None or no weights mean zeros. Anything else
    is a DataError; this is the one test of a cloud before persistence."""
    try:
        points = np.asarray(points, dtype=float)
        weights = np.asarray([] if weights is None else weights, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataError("points and weights must be arrays of numbers "
                        f"({exc})") from None
    shape = points.shape
    if shape[1:] != (3,):
        raise DataError(f"points of shape {shape}, expected (n, 3)")
    if not shape[0]:
        raise DataError(f"points of shape {shape}, expected n >= 1")
    if not np.isfinite(points).all():
        raise DataError("a coordinate is not finite")
    if not weights.size:
        weights = np.zeros(shape[0])
    if weights.shape != shape[:1]:
        raise DataError(f"{weights.size} weights for {shape[0]} points")
    if not (np.isfinite(weights) & (weights >= 0)).all():
        raise DataError("weights must be finite and nonnegative")
    return points, weights


def build_weighted_alpha(points, weights,
                         max_dim: int = 3) -> FilteredComplex:
    """Weighted alpha filtration of points (n, 3) with radii weights (n,),
    which must pass `check_cloud`.

    Values are squared orthogonal-ball radii; a simplex whose smallest ball
    is blocked by a neighboring weighted point enters together with its
    cheapest coface instead.
    """
    points, weights = check_cloud(points, weights)
    sqw = weights ** 2

    # facial closure: deleting a column keeps each row ascending, and
    # _unique_rows puts the distinct faces in lexicographic row order, the
    # layout FilteredComplex requires
    rows = [_top_cells(points, sqw)]
    for d in range(rows[0].shape[1] - 1, 0, -1):
        rows.insert(0, _unique_rows(np.concatenate(
            [np.delete(rows[0], c, axis=1) for c in range(d + 1)])))
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
