"""Entropy-guided Gaussian coordinates on labeled diagram point sets.

Training pools every transformed-diagram point under per-point weights
w(x) = 1/(L * N_l * |X_i|), builds one cover tree over the pool, then
walks it breadth first. A node's region is the closed ball of radius
2^(level+1) around its center. Regions too light are pruned; regions whose
label entropy falls at or below the threshold emit one Gaussian coordinate
for the dominant label and end their branch; everything else descends.
A child's region lies inside its parent's, so each region measures only
the pooled points its parent's scan kept.

The walk goes a level at a time. The regions of a level are the queue of
a breadth-first walk in order, and `scan_level` measures a run of them in
one array pass: their candidates concatenated, one distance per candidate,
and one bincount over (region, label) bins, which adds each bin in pool
order as a scan of the region alone does. A run holds at most SCAN_CHUNK
candidates, so the pass's arrays stay small. One `entropy` call measures
the mass rows of the run's heavy regions. Regions are then pruned, emitted
and descended in queue order, so the coordinates come out in the order of a
region-by-region walk, bit for bit. An emitted region is measured once
more on its own by `region_entropy`, which gives the points and masses its
Gaussian is fitted to. A level keeps only the near points of the regions
that descend, once per region, for their kids to share. An empty pool, or
a descent that emits nothing, raises NoRegionsFound.

A sample's value on a coordinate g is the empirical integral (1/|X|) *
sum g(x) over its points X, zero for none; `feature_matrix` evaluates all
of a dim's coordinates on a sample in one stacked einsum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import covertree
from .errors import DataError, NoRegionsFound

COV_EIGENVALUE_FLOOR = 1e-4
# A region's scan keeps, for the regions below it, the pooled points within
# this factor of its radius. An explicit child at level l-1 lies within 2^l
# of its parent, so its region lies inside the parent's; a computed distance
# is off by a few ulps at most (while the squared differences stay normal
# floats), which the pad covers with room to spare.
REGION_PAD = 1 + 1e-9
# A level is scanned a run of regions at a time, with at most this many
# candidates in a run (a region with more is a run of its own), so the
# per-candidate arrays of a scan stay small
SCAN_CHUNK = 1 << 13


@dataclass
class LabeledDiagramSet:
    """Every point of every cloud, pooled in cloud order."""

    points: np.ndarray      # (n, 2)
    weights: np.ndarray     # (n,) per-point weights
    label_idx: np.ndarray   # (n,) index of each point's label in domain
    domain: list            # sorted distinct labels, length L

    @property
    def n_labels(self) -> int:
        return len(self.domain)

    def pooled(self):
        """(points, weights, label indices), not copied."""
        return self.points, self.weights, self.label_idx


@dataclass
class GaussianCoordinate:
    label: object
    mean: np.ndarray
    cov: np.ndarray
    weight: float

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(2)
        self.cov = np.asarray(self.cov, dtype=float).reshape(2, 2)


@dataclass
class CderModel:
    coordinates: list
    meta: dict

    def __len__(self):
        return len(self.coordinates)


def assign_weights(clouds, labels, domain=None) -> LabeledDiagramSet:
    """Pool the clouds and attach w(x) = 1/(L * N_l * |X_i|) to every point.

    Empty clouds add no point but count toward N_l, so the per-label
    sample counts stay honest.
    """
    clouds = [np.asarray(c, dtype=float).reshape(-1, 2) for c in clouds]
    if len(clouds) != len(labels):
        raise ValueError("one label per cloud required")
    if domain is None:
        domain = sorted(set(labels))
    else:
        domain = sorted(domain)
    if len(domain) < 2:
        raise DataError("need at least two labels")
    counts = {l: 0 for l in domain}
    for label in labels:
        if label not in counts:
            raise ValueError(f"label {label!r} outside domain {domain}")
        counts[label] += 1
    for label, n in counts.items():
        if n == 0:
            raise DataError(f"label {label!r} has no clouds")

    n_labels = len(domain)
    sizes = [len(cloud) for cloud in clouds]
    weights = [1.0 / (n_labels * counts[label] * m) if m else 0.0
               for label, m in zip(labels, sizes)]
    return LabeledDiagramSet(
        points=np.concatenate(clouds), weights=np.repeat(weights, sizes),
        label_idx=np.repeat([domain.index(l) for l in labels], sizes),
        domain=domain)


def entropy(masses, n_labels: int):
    """Label entropy, log base n_labels, of a mass vector (a float) or of
    each row of a (k, L) masses array (an array); zero mass -> 1. A row's
    terms p*log(p) are added in order from 0.0."""
    masses = np.asarray(masses, dtype=float)
    rows = np.atleast_2d(masses)
    totals = rows.sum(axis=1)
    row, col = np.nonzero(rows > 0)
    p = rows[row, col] / totals[row]
    sums = np.bincount(row, weights=p * np.log(p), minlength=len(rows))
    out = np.where(totals > 0, -sums / math.log(n_labels), 1.0)
    return float(out[0]) if masses.ndim == 1 else out


def region_entropy(dset: LabeledDiagramSet, center: np.ndarray,
                   radius: float, candidates: np.ndarray):
    """(inside, masses) of the closed ball of `radius` around `center`: the
    ascending pool indices of its points and their label masses.
    `candidates` holds, in ascending order, pool indices that include every
    point of the ball. This is `scan_level` on one ball."""
    scan = scan_level(dset, np.reshape(center, (1, -1)), radius, candidates,
                      np.array([len(candidates)]))
    return candidates[scan.inside], scan.masses[0]


@dataclass
class LevelScan:
    """The balls of one descent level, measured in one pass. Ball i owns
    the candidate segment of length counts[i] that follows the segments of
    the balls before it."""

    ball: np.ndarray        # per candidate: the ball it is measured for
    inside: np.ndarray      # per candidate: within the radius
    near: np.ndarray        # per candidate: within the padded radius
    masses: np.ndarray      # (balls, L) label masses
    totals: np.ndarray      # (balls,) row sums of masses


def scan_level(dset: LabeledDiagramSet, centers: np.ndarray, radius: float,
               candidates: np.ndarray, counts: np.ndarray) -> LevelScan:
    """Measure every ball of one radius against its own candidates.

    `candidates` concatenates one ascending segment of pool indices per
    center, each including every point of its ball. A distance is
    sqrt(dx*dx + dy*dy), np.linalg.norm(axis=1) bit for bit: norm adds the
    two squares to 0.0, which is exact. One bincount over (ball, label)
    bins adds each bin's weights in ascending pool order, so a ball gets
    the masses that measuring it alone gives."""
    points, weights, label_idx = dset.pooled()
    n_labels = dset.n_labels
    ball = np.repeat(np.arange(len(counts)), counts)
    dx = points[:, 0][candidates] - np.repeat(centers[:, 0], counts)
    dy = points[:, 1][candidates] - np.repeat(centers[:, 1], counts)
    dx *= dx
    dy *= dy
    dx += dy
    dist = np.sqrt(dx, out=dx)
    inside = dist <= radius
    picked = candidates[inside]
    masses = np.bincount(ball[inside] * n_labels + label_idx[picked],
                         weights=weights[picked],
                         minlength=len(counts) * n_labels)
    masses = masses.reshape(len(counts), n_labels)
    return LevelScan(ball=ball, inside=inside,
                     near=dist <= radius * REGION_PAD, masses=masses,
                     totals=masses.sum(axis=1))


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each segment of the given lengths starts in their
    concatenation."""
    return np.cumsum(counts) - counts


def _segments(pool: np.ndarray, starts: np.ndarray,
              counts: np.ndarray) -> np.ndarray:
    """pool[starts[i]:starts[i] + counts[i]] for every i, concatenated."""
    index = np.arange(counts.sum())
    index += np.repeat(starts - _starts(counts), counts)
    return pool[index]


def _runs(counts: np.ndarray) -> list:
    """Consecutive slices of the regions, each with at most SCAN_CHUNK
    candidates in all or a single region."""
    ends = np.cumsum(counts)
    runs, begin = [], 0
    while begin < len(counts):
        end = int(np.searchsorted(ends, ends[begin] - counts[begin]
                                  + SCAN_CHUNK, side="right"))
        runs.append(slice(begin, max(end, begin + 1)))
        begin = max(end, begin + 1)
    return runs


def _coordinate_from_region(dset, inside, masses) -> GaussianCoordinate:
    points, weights, label_idx = dset.pooled()
    dominant = int(np.argmax(masses))  # argmax takes smaller on ties
    pick = inside[label_idx[inside] == dominant]
    pts = points[pick]
    w = weights[pick]
    p = w / w.sum()
    mean = p @ pts
    diff = pts - mean
    cov = (diff * p[:, None]).T @ diff
    eigval, eigvec = np.linalg.eigh(cov)
    eigval = np.maximum(eigval, COV_EIGENVALUE_FLOOR)
    cov = (eigvec * eigval) @ eigvec.T
    return GaussianCoordinate(label=dset.domain[dominant], mean=mean,
                              cov=cov, weight=float(masses[dominant]))


def check_params(entropy_threshold: float, min_mass: float) -> None:
    """Raise ValueError for a parameter `fit` cannot use."""
    if not 0 < entropy_threshold < 1:
        raise ValueError("entropy_threshold must lie in (0, 1)")
    if min_mass <= 0:
        raise ValueError("min_mass must be positive")


def fit(dset: LabeledDiagramSet, *, entropy_threshold: float = 0.3,
        min_mass: float = 0.01) -> CderModel:
    """Breadth-first parsimonious descent emitting low-entropy coordinates.
    An empty pool or a descent that emits nothing is NoRegionsFound."""
    check_params(entropy_threshold, min_mass)
    if len(dset.points) == 0:
        raise NoRegionsFound("no diagram points to fit")
    tree = covertree.build(dset.points)

    points = tree.points
    coordinates = []
    # one level of the breadth-first walk at a time. Region i of a level is
    # node nodes[i]; its candidates are pool[starts[i]:starts[i] +
    # counts[i]], the `near` points of its parent's scan, which its siblings
    # share. The root, node 0, measures the whole pool. A level-l node's
    # descendants all lie within 2^(l+1) of it.
    level, nodes = tree.max_level, [0]
    pool = np.arange(len(dset.points))
    starts, counts = np.array([0]), np.array([len(pool)])
    while nodes:
        radius = 2.0 ** (level + 1)
        # the kids, and for each its parent's rank among the regions that
        # descend; those regions' near points, and how many each has
        next_nodes, parents, near, near_counts = [], [], [], []
        for run in _runs(counts):
            candidates = _segments(pool, starts[run], counts[run])
            scan = scan_level(dset, points[nodes[run]], radius, candidates,
                              counts[run])
            heavy = np.flatnonzero(scan.totals >= min_mass)
            pure = entropy(scan.masses[heavy],
                           dset.n_labels) <= entropy_threshold
            descending = []
            for i, emit in zip(heavy.tolist(), pure.tolist()):
                node = nodes[run.start + i]
                if emit:
                    # the region once more on its own, for the points its
                    # coordinate is fitted to
                    first = starts[run.start + i]
                    segment = pool[first:first + counts[run.start + i]]
                    inside, masses = region_entropy(dset, points[node],
                                                    radius, segment)
                    coordinates.append(
                        _coordinate_from_region(dset, inside, masses))
                    continue
                kids = covertree.descend(tree, node, level)
                if kids:
                    next_nodes += kids
                    parents += [len(near_counts) + len(descending)] * \
                        len(kids)
                    descending.append(i)
            keep = np.zeros(len(scan.totals), dtype=bool)
            keep[descending] = True
            keep = keep[scan.ball] & scan.near
            near.append(candidates[keep])
            near_counts += np.bincount(scan.ball[keep], minlength=len(
                scan.totals))[descending].tolist()
        pool = np.concatenate(near)
        near_counts = np.array(near_counts, dtype=int)
        starts = _starts(near_counts)[parents]
        counts = near_counts[parents]
        level, nodes = level - 1, next_nodes

    if not coordinates:
        raise NoRegionsFound(
            f"no region reached entropy <= {entropy_threshold} "
            f"with mass >= {min_mass}")
    return CderModel(coordinates=coordinates,
                     meta={"entropy_threshold": entropy_threshold,
                           "min_mass": min_mass,
                           "cov_floor": COV_EIGENVALUE_FLOOR})


def feature_names(models_by_dim: dict) -> list:
    names = []
    for dim in sorted(models_by_dim):
        for j, coord in enumerate(models_by_dim[dim].coordinates):
            names.append(f"cder_h{dim}_{j}_{coord.label}")
    return names


def feature_matrix(models_by_dim: dict, points_by_id: dict,
                   ids) -> np.ndarray:
    """The (len(ids), coordinates) matrix, columns as `feature_names`, of
    each sample's mean over its points {dim: (m, 2)} in points_by_id of
    exp(-0.5 * d' inv(cov) d), d = x - mean; zero where it has none."""
    X = np.zeros((len(ids), sum(map(len, models_by_dim.values()))))
    start = 0
    for dim in sorted(models_by_dim):
        coords = models_by_dim[dim].coordinates
        if not coords:
            continue
        cols = slice(start, start + len(coords))
        start = cols.stop
        means = np.array([c.mean for c in coords])[:, None]      # (C, 1, 2)
        inv = np.linalg.inv(np.array([c.cov for c in coords]))  # (C, 2, 2)
        for row, i in enumerate(ids):
            cloud = np.asarray(points_by_id[i].get(dim, ()),
                               dtype=float).reshape(-1, 2)
            if len(cloud):
                diff = cloud - means                             # (C, m, 2)
                quad = np.einsum("cij,cjk,cik->ci", diff, inv, diff)
                X[row, cols] = np.exp(-0.5 * quad).sum(axis=1) / len(cloud)
    return X


def models_to_json(models_by_dim: dict) -> str:
    payload = {"dims": {}}
    for dim in sorted(models_by_dim):
        model = models_by_dim[dim]
        payload["dims"][str(dim)] = {
            "meta": model.meta,
            "coordinates": [
                {
                    "label": coord.label,
                    "mean": [float(x) for x in coord.mean],
                    "cov": [[float(x) for x in row] for row in coord.cov],
                    "weight": float(coord.weight),
                }
                for coord in model.coordinates
            ],
        }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def models_from_json(text: str) -> dict:
    """The models of `models_to_json` text. A dim key that is not a
    non-negative integer, or a coordinate that is not a Gaussian (see
    `_coordinate_from_json`), is a ValueError."""
    dims = json.loads(text)["dims"]
    if not isinstance(dims, dict):
        raise ValueError("dims must be an object of dim: model")
    out = {}
    for dim, body in dims.items():
        if not (dim.isascii() and dim.isdigit()):
            raise ValueError(f"dim key {dim!r} is not a non-negative integer")
        coords = [_coordinate_from_json(c) for c in body["coordinates"]]
        out[int(dim)] = CderModel(coordinates=coords, meta=body["meta"])
    return out


def _coordinate_from_json(c: dict) -> GaussianCoordinate:
    """A coordinate whose mean, cov and weight are finite and whose cov is
    symmetric positive definite, so that its values lie in (0, 1]. The
    fitted covs are symmetric up to rounding, so symmetry is checked to a
    relative 1e-9."""
    mean = np.array(c["mean"], dtype=float).reshape(2)
    cov = np.array(c["cov"], dtype=float).reshape(2, 2)
    weight = float(c["weight"])
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()
            and math.isfinite(weight)):
        raise ValueError(f"coordinate mean, cov and weight must be finite: "
                         f"mean {mean.tolist()}, cov {cov.tolist()}, "
                         f"weight {weight}")
    if (np.abs(cov - cov.T).max() > 1e-9 * np.abs(cov).max()
            or np.linalg.eigvalsh(cov)[0] <= 0):
        raise ValueError(f"coordinate cov {cov.tolist()} is not symmetric "
                         f"positive definite")
    return GaussianCoordinate(label=c["label"], mean=mean, cov=cov,
                              weight=weight)
