"""Independent reference implementations used only by tests.

Everything here is written the slow, obvious way (itertools enumeration,
dense GF(2) elimination, threshold sweeps) so the fast library code is
checked against a different algorithm rather than against itself.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

import numpy as np


def brute_rips_simplices(points: np.ndarray, max_scale: float,
                         max_dim: int) -> dict:
    """{simplex tuple: filtration value} by direct subset enumeration."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    out = {}
    for k in range(1, max_dim + 2):
        for combo in combinations(range(n), k):
            if k == 1:
                value = 0.0
            else:
                value = max(dist[a, b] for a, b in combinations(combo, 2))
            if value <= max_scale:
                out[combo] = value
    return out


def gf2_rank(columns: list) -> int:
    """Rank over GF(2) of a matrix given as column bitmasks."""
    pivots = {}
    rank = 0
    for col in columns:
        cur = col
        while cur:
            p = cur.bit_length() - 1
            if p in pivots:
                cur ^= pivots[p]
            else:
                pivots[p] = cur
                rank += 1
                break
    return rank


def betti_numbers(simplices: dict, scale: float, top_dim: int) -> list:
    """Betti numbers of the subcomplex at `scale` via boundary ranks.

    beta_k = n_k - rank d_k - rank d_{k+1}, all over GF(2).
    """
    present = [s for s, v in simplices.items() if v <= scale]
    by_dim = {}
    for s in present:
        by_dim.setdefault(len(s) - 1, []).append(s)
    index = {d: {s: i for i, s in enumerate(sorted(cells))}
             for d, cells in by_dim.items()}

    def boundary_rank(d: int) -> int:
        if d == 0 or d not in by_dim or (d - 1) not in by_dim:
            return 0
        cols = []
        for s in by_dim[d]:
            mask = 0
            for omit in range(len(s)):
                face = s[:omit] + s[omit + 1:]
                mask |= 1 << index[d - 1][face]
            cols.append(mask)
        return gf2_rank(cols)

    betti = []
    for k in range(top_dim + 1):
        n_k = len(by_dim.get(k, []))
        betti.append(n_k - boundary_rank(k) - boundary_rank(k + 1))
    return betti


def gini(class_counts) -> float:
    """Gini impurity of a node with the given per-class counts."""
    counts = np.asarray(class_counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        raise ValueError("gini of an empty node is undefined")
    p = counts / total
    return float(1.0 - (p * p).sum())


def aps_by_threshold_sweep(scores, truths) -> float:
    """Average precision as the precision-weighted recall step integral."""
    scores = np.asarray(scores, dtype=float)
    truths = np.asarray(truths).astype(int)
    n_pos = int(truths.sum())
    if n_pos == 0:
        raise ValueError("no positives")
    total = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        sel = scores >= t
        hits = int(truths[sel].sum())
        precision = hits / int(sel.sum())
        recall = hits / n_pos
        total += precision * (recall - prev_recall)
        prev_recall = recall
    return total


# -- test-only helpers over library objects ---------------------------------


def complex_rows(fc) -> list:
    """Every dimension's vertex rows of a FilteredComplex; the top rows of
    a RipsComplex, which it keeps only as codes, decoded from them."""
    rows = list(fc.simplices)
    if len(rows) < len(fc.values):
        rows.append(fc.codes[:, None] // fc.weights % len(fc.reach))
    return rows


def complex_values(fc) -> dict:
    """{simplex tuple: value} of a FilteredComplex."""
    return {tuple(simplex): value
            for rows, values in zip(complex_rows(fc), fc.values,
                                    strict=True)
            for simplex, value in zip(rows.tolist(), values.tolist())}


def filtration_order(values: dict) -> list:
    """(simplex, value) pairs of a {simplex: value} mapping, sorted by
    (value, dimension, vertex tuple)."""
    return sorted(values.items(), key=lambda kv: (kv[1], len(kv[0]), kv[0]))


def complex_from_values(mapping):
    """The FilteredComplex of a {simplex: value} mapping. Vertex order
    within a simplex does not matter; a repeated vertex, or a simplex given
    twice in different vertex orders, is a ValueError."""
    from topostab.complexes import FilteredComplex
    by_dim: dict = {}
    for simplex, value in mapping.items():
        by_dim.setdefault(len(simplex) - 1, []).append((simplex, value))
    simplices, values = [], []
    for d in range(max(by_dim, default=-1) + 1):
        items = by_dim.get(d, [])
        rows = np.sort(np.array([s for s, _ in items], dtype=np.int64)
                       .reshape(-1, d + 1), axis=1)
        repeated = np.flatnonzero((rows[:, 1:] == rows[:, :-1]).any(1))
        if len(repeated):
            raise ValueError("repeated vertex in simplex "
                             f"{tuple(items[repeated[0]][0])}")
        order = np.lexsort(rows.T[::-1])
        rows = rows[order]
        if (rows[1:] == rows[:-1]).all(axis=1).any():
            raise ValueError(f"a {d}-simplex is given twice")
        simplices.append(rows)
        values.append(np.array([v for _, v in items],
                               dtype=np.float64)[order])
    return FilteredComplex(simplices, values)


def complex_to_text(fc) -> str:
    """One line per simplex in filtration order: dim, vertices, value."""
    lines = []
    for simplex, value in filtration_order(complex_values(fc)):
        verts = " ".join(str(v) for v in simplex)
        lines.append(f"{len(simplex) - 1} {verts} {value!r}")
    return "\n".join(lines) + "\n"


def complex_from_text(text: str):
    """Inverse of complex_to_text; a bad line raises a DataError."""
    from topostab.errors import DataError
    values = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split()
        try:
            dim = int(tokens[0])
            if len(tokens) != dim + 3:
                raise ValueError(f"expected {dim + 3} tokens")
            verts = tuple(int(t) for t in tokens[1:dim + 2])
            value = float(tokens[-1])
        except (ValueError, IndexError) as exc:
            raise DataError(f"line {line_no}: {exc}") from exc
        values[verts] = value
    return complex_from_values(values)


def reference_rips(points, max_scale: float, max_dim: int) -> dict:
    """{simplex: value} of the Rips complex by recursive bitset expansion,
    one simplex at a time; build_rips must give bit-equal values."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    n = len(points)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    out = {(i,): 0.0 for i in range(n)}
    if max_dim == 0:
        return out
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i, j] <= max_scale:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    above = [~((1 << (i + 1)) - 1) for i in range(n)]

    def bits(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    stack = [((i, j), adj[i] & adj[j] & above[j], float(dist[i, j]))
             for i in range(n) for j in bits(adj[i] & above[i])]
    while stack:
        simplex, cand, value = stack.pop()
        out[simplex] = value
        if len(simplex) == max_dim + 1:
            continue
        for k in bits(cand):
            new_value = max(value, float(dist[list(simplex), k].max()))
            stack.append((simplex + (k,), cand & adj[k] & above[k],
                          new_value))
    return out


def reference_reduce(values: dict) -> list:
    """Persistence diagrams of a {simplex: value} filtration by reducing
    its boundary matrix column by column in filtration order, top
    dimension first, with clearing; persistence.reduce must give
    bit-equal diagrams."""
    order = filtration_order(values)
    per_dim: dict = {}
    local = {}
    for simplex, _ in order:
        rows = per_dim.setdefault(len(simplex) - 1, [])
        local[simplex] = len(rows)
        rows.append(simplex)
    max_dim = max(per_dim, default=-1)
    pairs = []
    cleared = set()
    for d in range(max_dim, 0, -1):
        pivot = {}
        reduced = {}
        for simplex in per_dim.get(d, []):
            if simplex in cleared:
                continue
            col = 0
            for face in combinations(simplex, d):
                col |= 1 << local[face]
            while col:
                owner = pivot.get(col.bit_length() - 1)
                if owner is None:
                    break
                col ^= reduced[owner]
            if col:
                low = col.bit_length() - 1
                pivot[low] = simplex
                reduced[simplex] = col
                birth = per_dim[d - 1][low]
                pairs.append((birth, simplex))
                cleared.add(birth)
    in_pair = cleared | {death for _, death in pairs}

    by_dim: dict = {}
    for birth, death in pairs:
        if values[death] > values[birth]:
            by_dim.setdefault(len(birth) - 1, []).append(
                (values[birth], values[death]))
    for simplex, value in order:
        if simplex not in in_pair:
            by_dim.setdefault(len(simplex) - 1, []).append((value, np.inf))
    return [np.array(sorted(by_dim.get(d, [])), dtype=float).reshape(-1, 2)
            for d in range(max_dim + 1)]


def betti_at(diagrams, scale: float) -> list:
    """Betti numbers at one scale: pairs with birth <= scale < death."""
    out = []
    for dg in diagrams:
        if len(dg) == 0:
            out.append(0)
            continue
        alive = (dg[:, 0] <= scale) & (scale < dg[:, 1])
        out.append(int(alive.sum()))
    return out


def level_set(tree, level: int) -> list:
    """Indices of the cover tree's points with top level >= level."""
    return [int(i) for i in np.flatnonzero(tree.top >= level)]


AxiomReport = namedtuple("AxiomReport", ["ok", "message"])


def check_axioms(tree):
    """Exhaustively verify nesting, covering, and separation; an
    AxiomReport names the first violation."""
    lo, hi = tree.min_level, tree.max_level
    prev = None
    for level in range(hi, lo - 1, -1):
        cur = set(level_set(tree, level))
        if prev is not None and not prev.issubset(cur):
            return AxiomReport(
                False, f"nesting violated between {level + 1} and {level}")
        prev = cur

    for level in range(lo, hi + 1):
        idx = level_set(tree, level)
        if len(idx) > 1:
            pts = tree.points[idx]
            dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
            iu = np.triu_indices(len(idx), k=1)
            bad = np.flatnonzero(~(dist[iu] > 2.0 ** level))
            if len(bad):
                a, b = iu[0][bad[0]], iu[1][bad[0]]
                return AxiomReport(
                    False,
                    f"separation violated at level {level}: points "
                    f"{idx[a]}, {idx[b]} at distance {dist[a, b]}")

    for q in range(len(tree.points)):
        if q == 0:
            continue
        level = int(tree.top[q])
        par = int(tree.parent[q])
        if par < 0 or tree.top[par] < level + 1:
            return AxiomReport(
                False, f"covering violated: point {q} has no parent in "
                f"C_{level + 1}")
        d = float(np.linalg.norm(tree.points[q] - tree.points[par]))
        if not d < 2.0 ** (level + 1):
            return AxiomReport(
                False, f"covering violated: point {q} at distance {d} "
                f"from parent, level {level + 1}")
    return AxiomReport(True, "ok")


def cover_ancestor_at(tree, q: int, level: int) -> int:
    """The level-`level` ancestor of point q, following parent links."""
    cur = q
    while tree.top[cur] < level:
        cur = int(tree.parent[cur])
    return cur


def cover_members(tree, node: int, level: int) -> list:
    """Indices of all points whose level-`level` ancestor is node."""
    return [q for q in range(len(tree.points))
            if cover_ancestor_at(tree, q, level) == node]


def read_diagram_csv(text: str) -> dict:
    """Group diagram CSV rows back into {id: [(m, 2) array per dim]}."""
    import csv
    import io
    from collections import defaultdict

    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header[:4] != ["id", "dim", "birth", "death"]:
        raise ValueError(f"unexpected diagram header: {header}")
    grouped = defaultdict(lambda: defaultdict(list))
    for row in reader:
        if not row:
            continue
        grouped[row[0]][int(row[1])].append((float(row[2]), float(row[3])))
    return {
        sample_id: [
            np.array(dims.get(d, []), dtype=float).reshape(-1, 2)
            for d in range(max(dims) + 1)]
        for sample_id, dims in grouped.items()
    }


def transformed_rows(sample_id: str, points_by_dim: dict) -> list:
    """(id, dim, u, v) rows of {dim: (m, 2) transformed points}."""
    return [(sample_id, dim, u, v)
            for dim, points in points_by_dim.items() for u, v in points]


def reference_maxmin(points, k: int) -> np.ndarray:
    """Farthest-point indices of one cloud, one point at a time: from row
    0, take the lowest row farthest from those taken; returned sorted.
    synth.maxmin_indices must give the same indices."""
    points = np.asarray(points, dtype=float)
    if k >= len(points):
        return np.arange(len(points))
    chosen = [0]
    dist = np.linalg.norm(points - points[0], axis=1)
    while len(chosen) < k:
        far = dist.max()
        chosen.append(next(i for i, d in enumerate(dist.tolist())
                           if d == far))
        dist = np.minimum(dist, np.linalg.norm(points - points[chosen[-1]],
                                               axis=1))
    return np.array(sorted(chosen))


def reference_cover_tree(points):
    """Cover tree by the original point-by-point insertion: one
    np.linalg.norm per candidate list and level, with the attach step
    measuring its distances again. covertree.build must make the same
    tree: the same points, top, parent and max_level, and groups that hold
    the `children` below, with `min_child_level` each node's lowest."""
    from types import SimpleNamespace

    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    unique: dict = {}
    for row in points:
        unique.setdefault(row.tobytes(), row)
    pts = np.array(list(unique.values()))
    tree = SimpleNamespace(points=pts, top=np.zeros(len(pts), dtype=int),
                           parent=np.full(len(pts), -1, dtype=int),
                           children={}, min_child_level={}, root=0,
                           max_level=0)

    def dist(idx, p):
        return np.linalg.norm(tree.points[idx] - p, axis=1)

    for k in range(1, len(tree.points)):
        p = tree.points[k]
        droot = float(np.linalg.norm(tree.points[tree.root] - p))
        while droot >= 2.0 ** tree.max_level:
            tree.max_level += 1
            tree.top[tree.root] = tree.max_level
        cover_sets = {tree.max_level: [tree.root]}
        j = tree.max_level
        while True:
            cand = list(cover_sets[j])
            for q in cover_sets[j]:
                cand.extend(tree.children.get((q, j - 1), []))
            near = [q for q, d in zip(cand, dist(cand, p)) if d < 2.0 ** j]
            if not near:
                break
            cover_sets[j - 1] = near
            j -= 1
        for level in range(j - 1, tree.max_level):
            cand = cover_sets[level + 1]
            in_range = [(d, q) for q, d in zip(cand, dist(cand, p))
                        if d < 2.0 ** (level + 1)]
            if in_range:
                _, q = min(in_range)
                tree.top[k] = level
                tree.parent[k] = q
                tree.children.setdefault((q, level), []).append(k)
                prev = tree.min_child_level.get(q, level)
                tree.min_child_level[q] = min(prev, level)
                break
    return tree


def reference_cder_fit(dset, entropy_threshold: float = 0.3,
                       min_mass: float = 0.01):
    """The CDER descent with every region measured against the whole pool:
    a boolean mask over the pooled points per region, and the coordinate
    picked from that mask. cder.fit must give the same coordinates in the
    same order, bit for bit."""
    from collections import deque

    from topostab import cder, covertree
    from topostab.errors import NoRegionsFound

    def region_entropy(center, radius):
        points, weights, label_idx = dset.pooled()
        inside = np.linalg.norm(points - center, axis=1) <= radius
        masses = np.bincount(label_idx[inside], weights=weights[inside],
                             minlength=dset.n_labels)
        return inside, masses

    def coordinate_from_region(inside, masses):
        points, weights, label_idx = dset.pooled()
        dominant = int(np.argmax(masses))
        pick = inside & (label_idx == dominant)
        pts = points[pick]
        w = weights[pick]
        p = w / w.sum()
        mean = p @ pts
        diff = pts - mean
        cov = (diff * p[:, None]).T @ diff
        eigval, eigvec = np.linalg.eigh(cov)
        eigval = np.maximum(eigval, cder.COV_EIGENVALUE_FLOOR)
        cov = (eigvec * eigval) @ eigvec.T
        return cder.GaussianCoordinate(
            label=dset.domain[dominant], mean=mean, cov=cov,
            weight=float(masses[dominant]))

    cder.check_params(entropy_threshold, min_mass)
    tree = covertree.build(dset.points)
    coordinates = []
    queue = deque([(0, tree.max_level)])
    while queue:
        node, level = queue.popleft()
        inside, masses = region_entropy(tree.points[node], 2.0 ** (level + 1))
        if float(masses.sum()) < min_mass:
            continue
        if cder.entropy(masses, dset.n_labels) <= entropy_threshold:
            coordinates.append(coordinate_from_region(inside, masses))
            continue
        queue.extend((child, level - 1)
                     for child in covertree.descend(tree, node, level))
    if not coordinates:
        raise NoRegionsFound(
            f"no region reached entropy <= {entropy_threshold} "
            f"with mass >= {min_mass}")
    return cder.CderModel(coordinates=coordinates,
                          meta={"entropy_threshold": entropy_threshold,
                                "min_mass": min_mass,
                                "cov_floor": cder.COV_EIGENVALUE_FLOOR})


def reference_lower_hull_cells(points, sqw):
    """Sorted vertex tuples of the lifted lower hull's facets, one facet at
    a time into a set, with complexes._top_cells's hull call, tolerance and
    weight-perturbation retry; _top_cells must give the same rows for any
    n >= 5."""
    from scipy.spatial import ConvexHull, QhullError

    from topostab.complexes import PREDICATE_TOL

    points = np.asarray(points, dtype=float)
    sqw = np.asarray(sqw, dtype=float)
    lift = np.column_stack([points, (points ** 2).sum(axis=1) - sqw])
    try:
        hull = ConvexHull(lift, qhull_options="Qt")
    except QhullError:
        delta = 1e-9 * max(1.0, float(np.abs(lift[:, 3]).max()))
        lift[:, 3] = ((points ** 2).sum(axis=1)
                      - (sqw + delta * (np.arange(len(points)) + 1)))
        hull = ConvexHull(lift, qhull_options="Qt")
    cells = set()
    for facet, eq in zip(hull.simplices, hull.equations):
        if eq[3] < -PREDICATE_TOL:
            cells.add(tuple(sorted(int(v) for v in facet)))
    return sorted(cells)


def reference_weighted_alpha(points, weights, max_dim: int = 3):
    """{simplex: value} of the weighted alpha filtration with one
    _ortho_ball call per simplex and the blocking test one coface at a
    time; build_weighted_alpha must give bit-equal values."""
    from topostab.complexes import _ortho_ball, _top_cells

    points = np.asarray(points, dtype=float)
    sqw = np.asarray(weights, dtype=float) ** 2
    cells = [tuple(c) for c in _top_cells(points, sqw).tolist()]
    top = len(cells[0]) - 1
    by_dim = [set() for _ in range(top + 1)]
    by_dim[top].update(cells)
    for d in range(top, 0, -1):
        for simplex in by_dim[d]:
            by_dim[d - 1].update(combinations(simplex, d))
    cofaces = {s: [] for d in range(top) for s in by_dim[d]}
    for d in range(1, top + 1):
        for simplex in by_dim[d]:
            for face in combinations(simplex, d):
                cofaces[face].append(simplex)

    value = {}
    for simplex in by_dim[top]:
        if top == 0:
            value[simplex] = -sqw[simplex[0]]
        else:
            _, r2 = _ortho_ball(points[list(simplex)], sqw[list(simplex)])
            value[simplex] = r2
    for d in range(top - 1, 0, -1):
        for simplex in by_dim[d]:
            idx = list(simplex)
            center, r2 = _ortho_ball(points[idx], sqw[idx])
            blocked = False
            for coface in cofaces[simplex]:
                v = next(u for u in coface if u not in simplex)
                power = ((center - points[v]) ** 2).sum() - sqw[v]
                if power < r2:
                    blocked = True
                    break
            if blocked:
                value[simplex] = min(value[c] for c in cofaces[simplex])
            else:
                value[simplex] = r2
    for simplex in by_dim[0]:
        value[simplex] = -sqw[simplex[0]]

    for d in range(top, 1, -1):
        for simplex in by_dim[d]:
            v = value[simplex]
            for face in combinations(simplex, d):
                if value[face] > v:
                    value[face] = v

    return {s: float(v) for s, v in value.items() if len(s) - 1 <= max_dim}


# -- forest: the per-feature loop, recursive grower and row-set walk --------


def reference_best_split(X, y, feature_ids, min_samples_leaf):
    """Lowest weighted-Gini split; returns (feature, threshold, gain) or None."""
    n = len(y)
    total1 = int(y.sum())
    parent = 1.0 - ((total1 / n) ** 2 + ((n - total1) / n) ** 2)
    best = None
    for f in feature_ids:
        x = X[:, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = y[order]
        cut = np.flatnonzero(xs[:-1] < xs[1:])  # split after position k
        if len(cut) == 0:
            continue
        left_n = cut + 1
        right_n = n - left_n
        ok = (left_n >= min_samples_leaf) & (right_n >= min_samples_leaf)
        if not ok.any():
            continue
        cut = cut[ok]
        left_n = left_n[ok]
        right_n = right_n[ok]
        left1 = np.cumsum(ys)[cut]
        right1 = total1 - left1
        gini_l = 1.0 - (left1 ** 2 + (left_n - left1) ** 2) / left_n ** 2
        gini_r = 1.0 - (right1 ** 2 + (right_n - right1) ** 2) / right_n ** 2
        weighted = (left_n * gini_l + right_n * gini_r) / n
        k = int(np.argmin(weighted))
        gain = parent - float(weighted[k])
        if best is None or gain > best[2]:
            thr = 0.5 * (xs[cut[k]] + xs[cut[k] + 1])
            best = (f, float(thr), gain)
    if best is None or best[2] <= 0:
        return None
    return best


def reference_grow_tree(X, y, hp, rng, n_features):
    """One CART tree grown by recursion, nodes numbered in preorder."""
    from topostab.forest import DecisionTree, _n_subset_features

    feature, threshold, left, right, proba = [], [], [], [], []
    importance = np.zeros(n_features)
    m = _n_subset_features(hp.get("max_features", "sqrt"), n_features)
    max_depth = hp.get("max_depth")
    min_leaf = hp.get("min_samples_leaf", 1)
    n_root = len(y)

    def new_node():
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        proba.append(np.nan)
        return len(feature) - 1

    def build(rows, depth):
        node = new_node()
        ys = y[rows]
        n = len(ys)
        n1 = int(ys.sum())
        split = None
        if n1 not in (0, n) and n >= 2 * min_leaf and \
                (max_depth is None or depth < max_depth):
            if m == n_features:
                subset = range(n_features)
            else:
                subset = sorted(rng.choice(n_features, size=m, replace=False))
            split = reference_best_split(X[rows], ys, subset, min_leaf)
        if split is None:
            proba[node] = n1 / n
            return node
        f, thr, gain = split
        feature[node] = f
        threshold[node] = thr
        importance[f] += (n / n_root) * gain
        goes_left = X[rows, f] <= thr
        left[node] = build(rows[goes_left], depth + 1)
        right[node] = build(rows[~goes_left], depth + 1)
        return node

    build(np.arange(len(y)), 0)
    return DecisionTree(feature=np.array(feature),
                        threshold=np.array(threshold),
                        left=np.array(left), right=np.array(right),
                        proba=np.array(proba), importance=importance)


def reference_grow_forest(X, y, hp, rng):
    """Every tree of one fit, grown a depth at a time and a node at a time
    with reference_best_split, from the draws forest.fit documents: one
    bootstrap block, then per depth one block of subset draws for the nodes
    that may split, in (tree, breadth-first) order. Each tree is then
    numbered in preorder by recursion and sums its importances in that
    order."""
    from topostab.forest import DecisionTree, _n_subset_features

    n, n_features = X.shape
    n_trees = hp.get("n_trees", 100)
    m = _n_subset_features(hp.get("max_features", "sqrt"), n_features)
    max_depth = hp.get("max_depth")
    min_leaf = hp.get("min_samples_leaf", 1)
    if hp.get("bootstrap", True):
        boot = rng.integers(0, n, size=(n_trees, n))
    else:
        boot = [np.arange(n)] * n_trees
    roots = [{"rows": rows} for rows in boot]
    level, depth = roots, 0
    while level:
        may_split = []
        for node in level:
            ys = y[node["rows"]]
            n1 = int(ys.sum())
            node["proba"] = n1 / len(ys)
            if n1 not in (0, len(ys)) and len(ys) >= 2 * min_leaf and \
                    (max_depth is None or depth < max_depth):
                may_split.append(node)
        if m == n_features:
            subsets = [range(n_features)] * len(may_split)
        else:
            draws = rng.random((len(may_split), n_features))
            subsets = [sorted(row.argsort(kind="stable")[:m].tolist())
                       for row in draws]
        for node, subset in zip(may_split, subsets):
            rows = node["rows"]
            split = reference_best_split(X[rows], y[rows], subset, min_leaf)
            if split is None:
                continue
            node["split"] = split
            goes_left = X[rows, split[0]] <= split[1]
            node["kids"] = ({"rows": rows[goes_left]},
                            {"rows": rows[~goes_left]})
        level = [kid for node in level for kid in node.get("kids", ())]
        depth += 1

    trees = []
    for root in roots:
        feature, threshold, left, right, proba = [], [], [], [], []
        importance = np.zeros(n_features)

        def visit(node):
            i = len(feature)
            feature.append(-1)
            threshold.append(np.nan)
            left.append(-1)
            right.append(-1)
            proba.append(np.nan)
            if "split" not in node:
                proba[i] = node["proba"]
                return i
            f, thr, gain = node["split"]
            feature[i] = f
            threshold[i] = thr
            importance[f] += (len(node["rows"]) / n) * gain
            left[i] = visit(node["kids"][0])
            right[i] = visit(node["kids"][1])
            return i

        visit(root)
        trees.append(DecisionTree(
            feature=np.array(feature), threshold=np.array(threshold),
            left=np.array(left), right=np.array(right),
            proba=np.array(proba), importance=importance))
    return trees


def reference_predict(tree, X) -> np.ndarray:
    """P(class 1) per row, walking a stack of (node, row set) pairs."""
    out = np.empty(len(X))
    stack = [(0, np.arange(len(X)))]
    while stack:
        node, rows = stack.pop()
        if len(rows) == 0:
            continue
        f = tree.feature[node]
        if f < 0:
            out[rows] = tree.proba[node]
            continue
        goes_left = X[rows, f] <= tree.threshold[node]
        stack.append((tree.left[node], rows[goes_left]))
        stack.append((tree.right[node], rows[~goes_left]))
    return out


def reference_random_search_cv(data, space, n_iter, k_folds=10, seed=0):
    """forest.random_search_cv one fold at a time: each fold fits its own
    forest with forest.fit on a copy of its training rows, scores its
    validation rows with forest.predict_proba and stats.average_precision,
    and a trial's score is the mean over the folds that hold a positive.
    The seeds, folds and parameter draws are the search's own."""
    from topostab import forest
    from topostab.stats import average_precision

    ss = np.random.SeedSequence(seed)
    children = ss.spawn(2 + n_iter * k_folds)
    folds = forest.stratified_folds(data.y, k_folds,
                                    np.random.default_rng(children[0]))
    draw_rng = np.random.default_rng(children[1])
    best = None
    trials = []
    for trial in range(n_iter):
        params = {name: space[name][int(draw_rng.integers(len(space[name])))]
                  for name in sorted(space)}
        fold_scores = []
        for f in range(k_folds):
            val_idx = folds[f]
            if data.y[val_idx].sum() == 0:
                continue
            train_idx = np.concatenate(
                [folds[g] for g in range(k_folds) if g != f])
            train = forest.Dataset(data.X[train_idx], data.y[train_idx],
                                   data.feature_names,
                                   [data.ids[i] for i in train_idx])
            rf = forest.fit(train, params,
                            seed=children[2 + trial * k_folds + f])
            scores = forest.predict_proba(rf, data.X[val_idx])
            fold_scores.append(average_precision(scores, data.y[val_idx]))
        mean_score = float(np.mean(fold_scores))
        trials.append((params, mean_score))
        if best is None or mean_score > best[1]:
            best = (params, mean_score)
    return forest.SearchResult(best_params=best[0], best_score=best[1],
                               trials=trials)


def reference_hexbin(points, labels, side: float) -> list:
    """Signed hex counts by binning one point at a time: each point's axial
    coordinates are cube-rounded with Python's round, counts accumulate in
    a dict, and the rows (center_u, center_v, count, signed_log) come out in
    sorted (q, r) order; stats.hexbin must give equal rows."""
    import math
    sqrt3 = math.sqrt(3.0)
    if side <= 0:
        raise ValueError("hex side must be positive")
    counts = {}
    for (u, v), lab in zip(points, labels):
        u, v = float(u), float(v)
        # cube rounding: x+y+z = 0
        xf = (sqrt3 / 3.0 * u - v / 3.0) / side
        zf = (2.0 / 3.0 * v) / side
        yf = -xf - zf
        x, y, z = round(xf), round(yf), round(zf)
        dx, dy, dz = abs(x - xf), abs(y - yf), abs(z - zf)
        if dx > dy and dx > dz:
            x = -y - z
        elif dy > dz:
            y = -x - z
        else:
            z = -x - y
        key = (int(x), int(z))
        counts[key] = counts.get(key, 0) + (1 if lab else -1)
    rows = []
    for (q, r), c in sorted(counts.items()):
        log_c = math.copysign(math.log1p(abs(c)), c) if c else 0.0
        rows.append((side * sqrt3 * (q + r / 2.0), side * 1.5 * r, c, log_c))
    return rows
