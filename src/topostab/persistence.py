"""Persistence diagrams of a filtered complex.

Every dimension comes from one reduction, persistent cohomology with
clearing (de Silva, Morozov & Vejdemo-Johansson, *Dualities in persistent
(co)homology*, 2011; Bauer, *Ripser*, 2021): the coboundary columns of the
d-simplices are reduced over Z/2 in reverse filtration order, skipping
every d-simplex already paired as a death in dimension d - 1. Columns are
Python integers used as bitsets of cofaces, so XOR merges are cheap. A
persistence pairing is unique for a given filtration order, so these are
the pairs of the boundary-matrix reduction, H0 included.

A complex lists each column's cofaces through `coboundary`, one stable
sort of the face table of the dimension above: a Rips build hands its
tables over, and any other complex finds them from its rows.
`reduce(fc, stop)` stops below dimension `stop`, so the diagrams a caller
drops are never built.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from .complexes import FilteredComplex, validate_filtration
from .errors import DataError
from .tables import csv_text, read_csv


def _cohomology_pairs(fc: FilteredComplex, d: int, cleared: np.ndarray):
    """(born d-simplices, killing (d+1)-simplices) by reducing coboundaries.

    The coboundary columns of the d-simplices not in `cleared` are reduced
    in reverse filtration order. Bit r of a column is the coface of
    filtration rank r, and the pivot is the lowest set bit: the first
    coface in filtration order. A column is built as a bitset only when
    its pivot collides with another column's; most pivots are free, and
    those columns are never built.
    """
    m = len(fc.values[d])
    order = np.argsort(fc.values[d + 1], kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    first, cofaces = fc.coboundary(d, rank)
    first = first.tolist()

    bitset = {}   # column -> its reduced column, built on demand

    def column(sigma):
        if sigma not in bitset:
            col = 0
            for r in cofaces(sigma).tolist():
                col |= 1 << r
            bitset[sigma] = col
        return bitset[sigma]

    skip = np.zeros(m, dtype=bool)
    skip[cleared] = True
    columns = np.argsort(fc.values[d], kind="stable")[::-1]
    owner = {}    # pivot -> the column that has it
    born, killers = [], []
    for sigma in columns[~skip[columns]].tolist():
        low, col = first[sigma], None
        while low in owner:
            col = (column(sigma) if col is None else col) ^ \
                column(owner[low])
            if not col:
                break
            low = (col & -col).bit_length() - 1
        else:
            # a free pivot; a column without cofaces (low -1) stays unpaired
            if low >= 0:
                owner[low] = sigma
                if col is not None:
                    bitset[sigma] = col
                born.append(sigma)
                killers.append(low)
    return (np.array(born, dtype=np.int64),
            order[np.array(killers, dtype=np.int64)])


def _diagram(pairs, essential):
    """Positive-persistence pairs plus essential classes, sorted."""
    pairs = np.concatenate([
        pairs[pairs[:, 1] > pairs[:, 0]],
        np.column_stack([essential, np.full(len(essential), math.inf)])])
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def reduce(fc: FilteredComplex, stop: int | None = None) -> list:
    """Persistence diagrams of a filtered complex: item d is the float
    (m, 2) array of dimension d's (birth, death) pairs, as Ripser returns
    them, for every dimension of the complex, or only for those below
    `stop`. Zero-persistence pairs are dropped. Classes alive at the end
    of the filtration appear with death = +inf: in the top dimension, every
    simplex that kills no class below.
    """
    validate_filtration(fc)
    diagrams = []
    cleared = np.zeros(0, dtype=np.int64)
    for d in range(fc.max_dim + 1)[:stop]:
        values = fc.values[d]
        unpaired = np.ones(len(values), dtype=bool)
        unpaired[cleared] = False
        pairs = np.zeros((0, 2))
        if d < fc.max_dim:
            born, cleared = _cohomology_pairs(fc, d, cleared)
            unpaired[born] = False
            pairs = np.column_stack([values[born],
                                     fc.values[d + 1][cleared]])
        diagrams.append(_diagram(pairs, values[unpaired]))
    return diagrams


def transform(diagram: np.ndarray, dim: int) -> np.ndarray:
    """(m, 2) points of the diagram's finite pairs, essential classes
    dropped: (b, d) -> (b, d - b) for dim >= 1, and (d, 0) for dim 0."""
    pairs = diagram[np.isfinite(diagram[:, 1])]
    if dim == 0:
        return np.column_stack([pairs[:, 1], np.zeros(len(pairs))])
    return np.column_stack([pairs[:, 0], pairs[:, 1] - pairs[:, 0]])


def diagram_rows(sample_id: str, diagrams) -> list:
    """(id, dim, birth, death) rows of Python ints and floats, whose str()
    csv.writer takes much faster than a numpy scalar's."""
    return [(sample_id, dim, birth, death)
            for dim, dg in enumerate(diagrams)
            for birth, death in dg.tolist()]


def write_diagram_csv(rows) -> str:
    return csv_text(["id", "dim", "birth", "death"], rows)


def write_transformed_csv(rows) -> str:
    return csv_text(["id", "dim", "u", "v"], rows)


def read_transformed_csv(text: str) -> dict:
    """{id: {dim: (m, 2) array}} from a transformed-diagram CSV."""
    _, (ids, dims, u, v, *_) = read_csv(text, ("id", "dim", "u", "v"),
                                        (2, 3))
    bad = [dim for dim in dims if not (dim.isascii() and dim.isdigit())]
    if bad:
        raise DataError(f"column 'dim': {bad[0]!r} is not a non-negative "
                        "integer")
    points = np.column_stack([u, v])
    grouped = defaultdict(lambda: defaultdict(list))
    for k, (sample_id, dim) in enumerate(zip(ids, dims)):
        grouped[sample_id][int(dim)].append(k)
    return {sample_id: {d: points[rows] for d, rows in per_dim.items()}
            for sample_id, per_dim in grouped.items()}
