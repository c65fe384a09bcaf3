"""Independent reference implementations used only by tests.

Everything here is written the slow, obvious way (itertools enumeration,
dense GF(2) elimination, threshold sweeps) so the fast library code is
checked against a different algorithm rather than against itself.
"""

from __future__ import annotations

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


def complex_values(fc) -> dict:
    """{simplex tuple: value} of a FilteredComplex."""
    return {tuple(simplex): value
            for rows, values in zip(fc.simplices, fc.values)
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
    """Inverse of complex_to_text; a bad line raises InvalidFiltration."""
    from topostab.errors import InvalidFiltration
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
            raise InvalidFiltration(f"line {line_no}: {exc}") from exc
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


def reference_reduce(values: dict, source_id: str = "") -> list:
    """Persistence diagrams of a {simplex: value} filtration by reducing
    its boundary matrix column by column in filtration order, top
    dimension first, with clearing; persistence.reduce must give
    bit-equal diagrams."""
    from topostab.persistence import PersistenceDiagram
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
    return [PersistenceDiagram(
                dim=d, source_id=source_id,
                pairs=np.array(sorted(by_dim.get(d, [])),
                               dtype=float).reshape(-1, 2))
            for d in range(max_dim + 1)]


def betti_at(diagrams, scale: float) -> list:
    """Betti numbers at one scale: pairs with birth <= scale < death."""
    out = []
    for dg in diagrams:
        if len(dg) == 0:
            out.append(0)
            continue
        alive = (dg.pairs[:, 0] <= scale) & (scale < dg.pairs[:, 1])
        out.append(int(alive.sum()))
    return out


def level_set(tree, level: int) -> list:
    """Indices of the cover tree's points with top level >= level."""
    return [int(i) for i in np.flatnonzero(tree.top >= level)]


def check_axioms(tree):
    """Exhaustively verify nesting, covering, and separation."""
    from topostab.complexes import ValidationReport
    lo, hi = tree.min_level, tree.max_level
    prev = None
    for level in range(hi, lo - 1, -1):
        cur = set(level_set(tree, level))
        if prev is not None and not prev.issubset(cur):
            return ValidationReport(
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
                return ValidationReport(
                    False,
                    f"separation violated at level {level}: points "
                    f"{idx[a]}, {idx[b]} at distance {dist[a, b]}")

    for q in range(len(tree.points)):
        if q == tree.root:
            continue
        level = int(tree.top[q])
        par = int(tree.parent[q])
        if par < 0 or tree.top[par] < level + 1:
            return ValidationReport(
                False, f"covering violated: point {q} has no parent in "
                f"C_{level + 1}")
        d = float(np.linalg.norm(tree.points[q] - tree.points[par]))
        if not d < 2.0 ** (level + 1):
            return ValidationReport(
                False, f"covering violated: point {q} at distance {d} "
                f"from parent, level {level + 1}")
    return ValidationReport(True, "ok")


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
    """Group diagram CSV rows back into {id: [PersistenceDiagram per dim]}."""
    import csv
    import io
    from collections import defaultdict

    from topostab.persistence import PersistenceDiagram
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
            PersistenceDiagram(
                dim=d,
                pairs=np.array(dims.get(d, []), dtype=float).reshape(-1, 2),
                source_id=sample_id)
            for d in range(max(dims) + 1)]
        for sample_id, dims in grouped.items()
    }


def transformed_rows(source_id: str, transformed) -> list:
    """(id, dim, u, v) rows of a list of TransformedDiagrams."""
    return [(source_id, td.dim, u, v)
            for td in transformed for u, v in td.points]


def reference_cover_tree(points):
    """Cover tree by the original point-by-point insertion: one
    np.linalg.norm per candidate list and level, with the attach step
    measuring its distances again. covertree.build must equal it field by
    field."""
    from topostab.covertree import CoverTree

    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    unique: dict = {}
    for row in points:
        unique.setdefault(row.tobytes(), row)
    tree = CoverTree(np.array(list(unique.values())))

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


def reference_weighted_alpha(cloud, max_dim: int = 3):
    """{simplex: value} of the weighted alpha filtration with one
    _ortho_ball call per simplex and the blocking test one coface at a
    time; build_weighted_alpha must give bit-equal values."""
    from topostab.complexes import _ortho_ball, _top_cells

    points = np.asarray(cloud.points, dtype=float)
    sqw = np.asarray(cloud.weights, dtype=float) ** 2
    cells = _top_cells(points, sqw)
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
