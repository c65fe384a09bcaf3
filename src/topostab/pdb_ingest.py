"""Parse PDB files into weighted atomic point clouds and join stability scores.

Only fixed-column ATOM records are ingested; HETATM, TER and every other
record type is skipped (the pipeline models designed protein chains only).
All ATOM records are kept as-is: the source files may or may not contain
hydrogens or duplicated alternate-location atoms, and no deduplication is
attempted here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .tables import keyed, read_csv

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
class WeightedPointCloud:
    """Atom positions (n, 3) and their van der Waals radii (n,), as read;
    `complexes.check_cloud` decides whether they are a valid cloud."""

    points: np.ndarray
    weights: np.ndarray

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


def parse_pdb(text: str) -> list[tuple]:
    """One (element, x, y, z) tuple per ATOM line, in file order."""
    atoms = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line[:6].strip() != "ATOM":
            continue
        try:
            x = float(line[30:38])
            y = float(line[38:46])
            z = float(line[46:54])
        except ValueError as exc:
            raise DataError(f"unparseable coordinates on line {line_no}: "
                            f"{exc}") from exc
        atoms.append((_extract_element(line), x, y, z))
    if not atoms:
        raise DataError("no ATOM records found")
    return atoms


def assign_weights(atoms: list[tuple]) -> WeightedPointCloud:
    """Look up the van der Waals radius of each (element, x, y, z) atom,
    preserving order."""
    weights = []
    for element, *_ in atoms:
        try:
            weights.append(VDW_RADII[element])
        except KeyError:
            raise DataError("no radius known for element "
                            f"{element!r}") from None
    return WeightedPointCloud(np.array([a[1:] for a in atoms], dtype=float),
                              np.array(weights))


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
        raise DataError("one class is empty after thresholding")

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
            raise DataError(f"ids absent from feature table: {missing[:5]}")
        return np.array([self.rows[i] for i in ids], dtype=float)


def load_sme_csv(text: str) -> SmeFeatureTable:
    """Load an RFC-4180 feature table whose first column is the sample id."""
    header, (ids, *columns) = read_csv(text, numbers=slice(1, None))
    matrix = np.array(columns, dtype=float).reshape(len(columns), len(ids))
    return SmeFeatureTable(columns=header[1:], rows=keyed(ids, matrix.T))


def load_scores_csv(text: str) -> dict:
    """Two-column (id, score) CSV with header; returns id -> float."""
    _, (ids, scores, *_) = read_csv(text, numbers=(1,))
    return keyed(ids, scores.tolist())
