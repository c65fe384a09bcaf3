"""Persistence diagrams via boundary-matrix reduction over Z/2.

Columns are kept as Python integers used as bitsets of local row indices
(rows of a dim-d column are the (d-1)-simplices only), so XOR merges are
cheap. Dimensions are processed from the top down with clearing: once a
simplex is known to be a birth, its own column is skipped entirely.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .complexes import FilteredComplex, validate_filtration
from .errors import InvalidFiltration


@dataclass
class PersistenceDiagram:
    """Multiset of (birth, death) pairs for one homological dimension."""

    dim: int
    pairs: np.ndarray  # (m, 2), death may be +inf
    source_id: str = ""

    def __post_init__(self):
        self.pairs = np.asarray(self.pairs, dtype=float).reshape(-1, 2)

    def __len__(self):
        return len(self.pairs)

    def finite(self) -> np.ndarray:
        return self.pairs[np.isfinite(self.pairs[:, 1])]


@dataclass
class TransformedDiagram:
    dim: int
    points: np.ndarray  # (m, 2)
    source_id: str = ""

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 2)


def _raw_pairs(fc: FilteredComplex):
    """Reduce the boundary matrix; return index pairs and essentials.

    Returns (order, pairs, essentials) where order is the filtration-sorted
    (simplex, value) list, pairs are (birth_simplex, death_simplex), and
    essentials are simplices of never-dying classes.
    """
    order = fc.simplices()
    per_dim = defaultdict(list)
    local = {}
    for simplex, _ in order:
        d = len(simplex) - 1
        local[simplex] = len(per_dim[d])
        per_dim[d].append(simplex)

    max_dim = fc.max_dim
    pairs = []
    cleared = set()
    for d in range(max_dim, 0, -1):
        pivot = {}
        reduced = {}
        for simplex in per_dim[d]:
            if simplex in cleared:
                continue
            col = 0
            for face in itertools.combinations(simplex, d):
                col |= 1 << local[face]
            while col:
                low = col.bit_length() - 1
                owner = pivot.get(low)
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
    essentials = [s for s, _ in order if s not in in_pair]
    return order, pairs, essentials


def reduce(fc: FilteredComplex, source_id: str = "") -> list:
    """Persistence diagrams of a filtered complex, one per dimension.

    Zero-persistence pairs are dropped. Classes alive at the end of the
    filtration appear with death = +inf.
    """
    report = validate_filtration(fc)
    if not report.ok:
        raise InvalidFiltration(report.message)
    _, pairs, essentials = _raw_pairs(fc)

    by_dim = defaultdict(list)
    for birth_s, death_s in pairs:
        birth = fc.value_of(birth_s)
        death = fc.value_of(death_s)
        if death > birth:
            by_dim[len(birth_s) - 1].append((birth, death))
    for simplex in essentials:
        by_dim[len(simplex) - 1].append((fc.value_of(simplex), math.inf))

    diagrams = []
    for d in range(fc.max_dim + 1):
        rows = sorted(by_dim.get(d, []))
        diagrams.append(PersistenceDiagram(
            dim=d, pairs=np.array(rows, dtype=float).reshape(-1, 2),
            source_id=source_id))
    return diagrams


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


def drop_essentials(diagram: PersistenceDiagram) -> PersistenceDiagram:
    return PersistenceDiagram(dim=diagram.dim, pairs=diagram.finite(),
                              source_id=diagram.source_id)


def transform(diagram: PersistenceDiagram) -> TransformedDiagram:
    """Birth-persistence map: (b,d) -> (b, d-b) for dim >= 1, (d, 0) for dim 0."""
    pairs = diagram.pairs
    if not np.all(np.isfinite(pairs)):
        raise ValueError("diagram has infinite pairs; drop essentials first")
    if diagram.dim == 0:
        points = np.column_stack([pairs[:, 1], np.zeros(len(pairs))])
    else:
        points = np.column_stack([pairs[:, 0], pairs[:, 1] - pairs[:, 0]])
    return TransformedDiagram(dim=diagram.dim, points=points,
                              source_id=diagram.source_id)


def _fmt(x: float) -> str:
    return "inf" if math.isinf(x) else repr(float(x))


def diagram_rows(source_id: str, diagrams) -> list:
    rows = []
    for dg in diagrams:
        for birth, death in dg.pairs:
            rows.append((source_id, dg.dim, birth, death))
    return rows


def write_diagram_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "dim", "birth", "death"])
    for sample_id, dim, birth, death in rows:
        writer.writerow([sample_id, dim, _fmt(birth), _fmt(death)])
    return buf.getvalue()


def write_transformed_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "dim", "u", "v"])
    for sample_id, dim, u, v in rows:
        writer.writerow([sample_id, dim, repr(float(u)), repr(float(v))])
    return buf.getvalue()


def read_transformed_csv(text: str) -> dict:
    """{id: {dim: (m, 2) array}} from a transformed-diagram CSV."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header[:4] != ["id", "dim", "u", "v"]:
        raise ValueError(f"unexpected transformed header: {header}")
    grouped = defaultdict(lambda: defaultdict(list))
    for row in reader:
        if not row:
            continue
        grouped[row[0]][int(row[1])].append((float(row[2]), float(row[3])))
    return {
        sample_id: {d: np.array(pts, dtype=float).reshape(-1, 2)
                    for d, pts in dims.items()}
        for sample_id, dims in grouped.items()
    }
