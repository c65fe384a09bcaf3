"""Entropy-guided Gaussian coordinates on labeled diagram point sets.

Training pools every transformed-diagram point under per-point weights
w(x) = 1/(L * N_l * |X_i|), builds one cover tree over the pool, then
walks it breadth first. A node's region is the closed ball of radius
2^(level+1) around its center. Regions too light are pruned; regions whose
label entropy falls at or below the threshold emit one Gaussian coordinate
for the dominant label and end their branch; everything else descends.
A child's region lies inside its parent's, so each region measures only
the pooled points its parent's scan kept.

Evaluation of a sample against a coordinate g is the empirical integral
(1/|X|) * sum g(x), zero for empty samples.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field

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
class RegionStats:
    inside: np.ndarray      # ascending pool indices of the region's points
    near: np.ndarray        # ascending pool indices within the padded radius
    masses: np.ndarray      # per domain label
    total: float
    entropy: float


@dataclass
class GaussianCoordinate:
    label: object
    mean: np.ndarray
    cov: np.ndarray
    weight: float
    _inv: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(2)
        self.cov = np.asarray(self.cov, dtype=float).reshape(2, 2)
        if self._inv is None:
            self._inv = np.linalg.inv(self.cov)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        diff = np.asarray(points, dtype=float).reshape(-1, 2) - self.mean
        quad = np.einsum("ij,jk,ik->i", diff, self._inv, diff)
        return np.exp(-0.5 * quad)


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


def entropy(masses, n_labels: int) -> float:
    """Label entropy of mass vector, log base n_labels; empty mass -> 1."""
    masses = np.asarray(masses, dtype=float)
    total = masses.sum()
    if total <= 0:
        return 1.0
    p = masses[masses > 0] / total
    return float(-(p * np.log(p)).sum() / math.log(n_labels))


def region_entropy(dset: LabeledDiagramSet, center: np.ndarray,
                   radius: float,
                   candidates: np.ndarray | None = None) -> RegionStats:
    """Masses and entropy of the closed ball of `radius` around `center`.
    `candidates` holds, in ascending order, pool indices that include every
    point of the region; None measures the whole pool. Ascending indices
    make bincount add the weights in pool order, whatever the candidates."""
    points, weights, label_idx = dset.pooled()
    if candidates is None:
        candidates = np.arange(len(points))
    dist = np.linalg.norm(points[candidates] - center, axis=1)
    inside = candidates[dist <= radius]
    masses = np.bincount(label_idx[inside], weights=weights[inside],
                         minlength=dset.n_labels)
    return RegionStats(
        inside=inside,
        near=candidates[dist <= radius * REGION_PAD],
        masses=masses, total=float(masses.sum()),
        entropy=entropy(masses, dset.n_labels))


def _coordinate_from_region(dset, stats) -> GaussianCoordinate:
    points, weights, label_idx = dset.pooled()
    dominant = int(np.argmax(stats.masses))  # argmax takes smaller on ties
    pick = stats.inside[label_idx[stats.inside] == dominant]
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
                              cov=cov, weight=float(stats.masses[dominant]))


def check_params(entropy_threshold: float, min_mass: float) -> None:
    """Raise ValueError for a parameter `fit` cannot use."""
    if not 0 < entropy_threshold < 1:
        raise ValueError("entropy_threshold must lie in (0, 1)")
    if min_mass <= 0:
        raise ValueError("min_mass must be positive")


def fit(dset: LabeledDiagramSet, *, entropy_threshold: float = 0.3,
        min_mass: float = 0.01) -> CderModel:
    """Breadth-first parsimonious descent emitting low-entropy coordinates."""
    check_params(entropy_threshold, min_mass)
    tree = covertree.build(dset.points)

    coordinates = []
    # each queued (node, level) carries its parent's `near`, shared by the
    # siblings; the root, node 0, measures the whole pool. A level-i node's
    # descendants all lie within 2^(i+1) of it.
    queue = deque([(0, tree.max_level, None)])
    while queue:
        node, level, near = queue.popleft()
        stats = region_entropy(dset, tree.points[node], 2.0 ** (level + 1),
                               near)
        if stats.total < min_mass:
            continue
        if stats.entropy <= entropy_threshold:
            coordinates.append(_coordinate_from_region(dset, stats))
            continue
        queue.extend((child, level - 1, stats.near)
                     for child in covertree.descend(tree, node, level))

    if not coordinates:
        raise NoRegionsFound(
            f"no region reached entropy <= {entropy_threshold} "
            f"with mass >= {min_mass}")
    return CderModel(coordinates=coordinates,
                     meta={"entropy_threshold": entropy_threshold,
                           "min_mass": min_mass,
                           "cov_floor": COV_EIGENVALUE_FLOOR})


def evaluate(model: CderModel, cloud) -> np.ndarray:
    cloud = np.asarray(cloud, dtype=float).reshape(-1, 2)
    if len(cloud) == 0:
        return np.zeros(len(model.coordinates))
    return np.array([coord(cloud).sum() / len(cloud)
                     for coord in model.coordinates])


def vectorize_sample(models_by_dim: dict, points_by_dim: dict) -> np.ndarray:
    """Concatenate evaluate() outputs in ascending homological dimension."""
    blocks = []
    for dim in sorted(models_by_dim):
        cloud = points_by_dim.get(dim, np.zeros((0, 2)))
        blocks.append(evaluate(models_by_dim[dim], cloud))
    if not blocks:
        return np.zeros(0)
    return np.concatenate(blocks)


def feature_names(models_by_dim: dict) -> list:
    names = []
    for dim in sorted(models_by_dim):
        for j, coord in enumerate(models_by_dim[dim].coordinates):
            names.append(f"cder_h{dim}_{j}_{coord.label}")
    return names


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
