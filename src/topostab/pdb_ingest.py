"""Parse PDB files into weighted atomic point clouds and join stability scores.

Only fixed-column ATOM records are ingested; HETATM, TER and every other
record type is skipped (the pipeline models designed protein chains only).
All ATOM records are kept as-is: the source files may or may not contain
hydrogens or duplicated alternate-location atoms, and no deduplication is
attempted here.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    DuplicateId,
    EmptyClass,
    MalformedLine,
    MissingId,
    MissingValue,
    NoAtoms,
    UnknownElement,
)

# van der Waals radii in angstroms, per element
VDW_RADII = {
    "H": 1.2,
    "N": 1.55,
    "O": 1.52,
    "C": 1.7,
    "S": 1.8,
}

STABLE = "stable"
UNSTABLE = "unstable"


@dataclass(frozen=True)
class AtomRecord:
    element: str
    position: tuple[float, float, float]
    serial: int


@dataclass
class WeightedPointCloud:
    """Points in R^3 with one nonnegative radius per point."""

    points: np.ndarray   # (n, 3) float
    weights: np.ndarray  # (n,) float

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights must have equal length")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")

    def __len__(self):
        return len(self.points)


def _extract_element(line: str) -> str:
    elem = line[76:78].strip() if len(line) >= 78 else ""
    if not elem:
        # legacy files without columns 77-78: first letter of the atom name
        for ch in line[12:16]:
            if ch.isalpha():
                elem = ch
                break
    return elem.capitalize()


def parse_pdb(text: str) -> list[AtomRecord]:
    """Extract one AtomRecord per ATOM line, in file order."""
    atoms = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line[:6].strip() != "ATOM":
            continue
        try:
            x = float(line[30:38])
            y = float(line[38:46])
            z = float(line[46:54])
        except (ValueError, IndexError) as exc:
            raise MalformedLine(line_no, str(exc)) from exc
        try:
            serial = int(line[6:11])
        except (ValueError, IndexError):
            serial = len(atoms) + 1
        atoms.append(AtomRecord(_extract_element(line), (x, y, z), serial))
    if not atoms:
        raise NoAtoms("no ATOM records found")
    return atoms


def assign_weights(atoms: list[AtomRecord]) -> WeightedPointCloud:
    """Look up the van der Waals radius of each atom, preserving order."""
    weights = []
    for atom in atoms:
        try:
            weights.append(VDW_RADII[atom.element])
        except KeyError:
            raise UnknownElement(atom.element) from None
    points = np.array([a.position for a in atoms], dtype=float)
    return WeightedPointCloud(points=points, weights=np.array(weights))


def label_samples(scores: dict, threshold: float) -> dict:
    """{id: stable/unstable} by strict threshold on {id: score}, in order."""
    return {i: STABLE if score > threshold else UNSTABLE
            for i, score in scores.items()}


def label_and_downsample(scores: dict, threshold: float, seed: int = 0,
                         mode: str = "extremes") -> dict:
    """Label by threshold, then downsample the majority class to balance.

    In "extremes" mode (default) the kept majority samples are the most
    extreme ones: lowest-scoring unstable, or highest-scoring stable. In
    "random" mode they are drawn uniformly with the given seed. Output is
    sorted by id, so reruns with the same seed are identical.
    """
    labels = label_samples(scores, threshold)
    stable = [i for i, label in labels.items() if label == STABLE]
    unstable = [i for i, label in labels.items() if label == UNSTABLE]
    if not stable or not unstable:
        raise EmptyClass("one class is empty after thresholding")

    keep = min(len(stable), len(unstable))
    rng = np.random.default_rng(seed)

    def trim(group, ascending):
        if len(group) == keep:
            return group
        if mode == "random":
            idx = rng.choice(len(group), size=keep, replace=False)
            return [group[i] for i in sorted(idx)]
        sign = 1 if ascending else -1
        return sorted(group, key=lambda i: (sign * scores[i], i))[:keep]

    kept = trim(stable, ascending=False)     # keep highest-scoring stable
    kept += trim(unstable, ascending=True)   # keep lowest-scoring unstable
    return {i: labels[i] for i in sorted(kept)}


@dataclass
class SmeFeatureTable:
    """Per-sample rows of named real-valued features, keyed by sample id."""

    columns: list[str]
    rows: dict  # id -> np.ndarray of len(columns)

    def matrix_for(self, ids) -> np.ndarray:
        missing = [i for i in ids if i not in self.rows]
        if missing:
            raise MissingId(f"ids absent from feature table: {missing[:5]}")
        return np.array([self.rows[i] for i in ids], dtype=float)


def load_sme_csv(text: str) -> SmeFeatureTable:
    """Load an RFC-4180 feature table whose first column is the sample id."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise MissingValue(0, "<header>") from None
    columns = header[1:]
    rows: dict = {}
    for row_no, row in enumerate(reader, start=1):
        if not row:
            continue
        sample_id = row[0]
        if sample_id in rows:
            raise DuplicateId(sample_id)
        if len(row) != len(header):
            raise MissingValue(row_no, header[min(len(row), len(header) - 1)])
        values = []
        for col_name, cell in zip(columns, row[1:]):
            cell = cell.strip()
            if not cell:
                raise MissingValue(row_no, col_name)
            try:
                value = float(cell)
            except ValueError:
                raise MissingValue(row_no, col_name) from None
            if not math.isfinite(value):
                raise DataError(f"non-finite value {cell!r} at row {row_no}, "
                                f"column {col_name!r}")
            values.append(value)
        rows[sample_id] = np.array(values, dtype=float)
    return SmeFeatureTable(columns=columns, rows=rows)


def load_scores_csv(text: str) -> dict:
    """Two-column (id, score) CSV with header; returns id -> float."""
    reader = csv.reader(io.StringIO(text))
    try:
        next(reader)
    except StopIteration:
        raise MissingValue(0, "<header>") from None
    scores: dict = {}
    for row_no, row in enumerate(reader, start=1):
        if not row:
            continue
        if len(row) < 2 or not row[1].strip():
            raise MissingValue(row_no, "score")
        if row[0] in scores:
            raise DuplicateId(row[0])
        try:
            scores[row[0]] = float(row[1])
        except ValueError:
            raise MissingValue(row_no, "score") from None
    return scores
