"""Synthetic point-cloud corpus: noisy spheres and figure-8s in R^3.

The figure-8 is two unit circles in the z = 0 plane, centered at
(0, +1, 0) and (0, -1, 0), tangent at the origin. Spheres carry score 0.0
and figure-8s score 2.0 so a stability threshold of 1.0 splits the corpus
into the two classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPHERE_SCORE = 0.0
FIGURE8_SCORE = 2.0


@dataclass
class ToyCloud:
    id: str
    score: float
    points: np.ndarray


def sample_sphere(n_points: int, noise: float, rng) -> np.ndarray:
    if n_points < 4:
        raise ValueError("need at least 4 points")
    g = rng.normal(size=(n_points, 3))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    # resample the (measure-zero) zero rows rather than dividing by 0
    while np.any(norms == 0):
        bad = norms[:, 0] == 0
        g[bad] = rng.normal(size=(int(bad.sum()), 3))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
    pts = g / norms
    return pts + noise * rng.normal(size=(n_points, 3))


def sample_figure8(n_points: int, noise: float, rng) -> np.ndarray:
    if n_points < 4:
        raise ValueError("need at least 4 points")
    which = rng.integers(0, 2, size=n_points)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n_points)
    cy = np.where(which == 0, 1.0, -1.0)
    pts = np.column_stack([np.cos(theta), cy + np.sin(theta),
                           np.zeros(n_points)])
    return pts + noise * rng.normal(size=(n_points, 3))


SAMPLERS = {"sphere": sample_sphere, "figure8": sample_figure8}
SHAPE_SCORES = {"sphere": SPHERE_SCORE, "figure8": FIGURE8_SCORE}


def make_shape_clouds(shape: str, n_samples: int, n_points: int,
                      noise: float, seed: int) -> list:
    """One independently seeded cloud per sample, ids <shape>_<k>."""
    if shape not in SAMPLERS:
        raise ValueError(f"unknown shape {shape!r}")
    children = np.random.SeedSequence(seed).spawn(n_samples)
    out = []
    for k in range(n_samples):
        rng = np.random.default_rng(children[k])
        pts = SAMPLERS[shape](n_points, noise, rng)
        out.append(ToyCloud(id=f"{shape}_{k:03d}",
                            score=SHAPE_SCORES[shape], points=pts))
    return out


def make_toy_corpus(n_per_class: int, n_points: int, noise: float,
                    seed: int) -> list:
    """Spheres and figure-8s with distinct derived seeds, sorted by id."""
    clouds = (make_shape_clouds("sphere", n_per_class, n_points, noise, seed)
              + make_shape_clouds("figure8", n_per_class, n_points, noise,
                                  seed + 1))
    return sorted(clouds, key=lambda c: c.id)


def maxmin_indices(points: np.ndarray, k: int) -> np.ndarray:
    """Row indices of a farthest-point subsample of size k, seeded at row 0.

    Deterministic: ties in argmax resolve to the lowest index. Returned
    sorted so the subsample preserves the input's row order. A stack of
    clouds (S, n, d) gives the (S, k) indices of each cloud in one pass,
    each row equal to that cloud's own.
    """
    points = np.asarray(points, dtype=float)
    stack = points if points.ndim == 3 else points[None]
    n_clouds, n = stack.shape[:2]
    if k >= n:
        chosen = np.tile(np.arange(n), (n_clouds, 1))
    else:
        clouds = np.arange(n_clouds)
        chosen = np.zeros((n_clouds, k), dtype=int)
        # np.linalg.norm's arithmetic, in buffers that every step reuses
        diff = stack - stack[:, :1]
        dist = np.sqrt(np.add.reduce(diff * diff, axis=2))
        step = np.empty_like(dist)
        for i in range(1, k):
            chosen[:, i] = dist.argmax(axis=1)
            np.subtract(stack, stack[clouds, chosen[:, i]][:, None], out=diff)
            np.multiply(diff, diff, out=diff)
            np.sqrt(np.add.reduce(diff, axis=2, out=step), out=step)
            np.minimum(dist, step, out=dist)
        chosen = np.sort(chosen, axis=1)
    return chosen if points.ndim == 3 else chosen[0]
