"""Evaluation and analysis utilities.

Average precision, Pearson correlation, a one-tailed paired t-test,
stratified splits, and hexagonal binning of labeled planar points.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, ZeroVariance, ZeroVarianceDiff


def average_precision(scores, truths) -> float:
    """Area under the precision-recall step function of a ranked binary prediction.

    Equal scores are grouped at a single threshold, so the result is invariant
    under any strictly monotone transform of the scores.
    """
    scores = np.asarray(scores, dtype=float)
    truths = np.asarray(truths, dtype=int)
    if scores.shape != truths.shape or scores.ndim != 1:
        raise ValueError("scores and truths must be 1-D of equal length")
    n_pos = int(truths.sum())
    if n_pos == 0:
        raise ValueError("average precision needs at least one positive")

    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    t = truths[order]
    # last index of each tie group: thresholds sweep distinct score values
    boundaries = np.nonzero(np.diff(s))[0]
    cuts = np.append(boundaries, len(s) - 1)
    tp = np.cumsum(t)[cuts]
    recall_steps = np.diff(tp / n_pos, prepend=0.0)
    # cumsum adds in order, as a running sum from 0.0 would
    return float(np.cumsum(recall_steps * (tp / (cuts + 1)))[-1])


def pearson_r(x, y) -> float:
    """Sample Pearson correlation of two equal-length vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("need two 1-D vectors of equal length >= 2")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = math.sqrt(float(dx @ dx))
    sy = math.sqrt(float(dy @ dy))
    if sx == 0.0 or sy == 0.0:
        raise ZeroVariance("pearson_r requires nonzero variance in both inputs")
    return float((dx @ dy) / (sx * sy))


def t_sf(t: float, df: int) -> float:
    """Upper-tail probability P(T_df > t) of the Student t distribution."""
    # imported here, so that only the paired t-test loads scipy
    from scipy.special import stdtr

    if df < 1:
        raise ValueError("df must be >= 1")
    return float(stdtr(df, -t))


def paired_t_one_tailed(a, b) -> tuple[float, float]:
    """One-tailed paired t-test of mean(a) > mean(b).

    Returns (t, p) with p the upper-tail probability under T_{n-1}.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise ValueError("need paired 1-D vectors of equal length >= 2")
    d = a - b
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise ZeroVarianceDiff("paired differences are constant")
    n = len(d)
    t = float(d.mean() / (sd / math.sqrt(n)))
    return t, t_sf(t, n - 1)


def stratified_split(ids, labels, fraction: float = 0.8, seed: int = 0):
    """Per-class proportional train/validation split, deterministic per seed.
    A class left with no training or no validation member is a DataError."""
    ids = list(ids)
    labels = list(labels)
    if len(ids) != len(labels):
        raise ValueError("ids and labels must align")
    classes = sorted(set(labels), key=repr)
    if len(classes) < 2:
        raise DataError("stratified_split needs both classes present")
    rng = np.random.default_rng(seed)
    train, valid = [], []
    for cls in classes:
        members = [i for i, lab in zip(ids, labels) if lab == cls]
        members.sort(key=repr)
        perm = rng.permutation(len(members))
        n_train = int(fraction * len(members) + 1e-9)
        if not 0 < n_train < len(members):
            side = "training" if n_train <= 0 else "validation"
            raise DataError(f"split fraction {fraction} leaves class {cls!r} "
                            f"with no {side} member")
        chosen = set(perm[:n_train].tolist())
        for k, m in enumerate(members):
            (train if k in chosen else valid).append(m)
    return train, valid


# -- hexagonal binning ------------------------------------------------------

SQRT3 = math.sqrt(3.0)


def signed_log(count: int) -> float:
    """Color value for a signed count: sign(c) * log(1 + |c|), natural log."""
    if count == 0:
        return 0.0
    return math.copysign(math.log1p(abs(count)), count)


def hexbin(points, stable, side: float) -> list:
    """Signed counts on a pointy-top hex lattice: each hex gains +1 per
    stable point and -1 per unstable point.

    Returns one (center_u, center_v, signed_count, signed_log) row per hex
    that holds a point, sorted by axial (q, r). A point goes to its hex by
    cube rounding, with np.rint's half-to-even ties. A point whose hex
    coordinates are not finite int64 values (a far point or a tiny side)
    is a DataError.
    """
    if side <= 0:
        raise ValueError("hex side must be positive")
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    u, v = points[:, 0], points[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        x = (SQRT3 / 3.0 * u - v / 3.0) / side
        z = (2.0 / 3.0 * v) / side
        y = -x - z
        rx, ry, rz = np.rint(x), np.rint(y), np.rint(z)
        dx, dy, dz = abs(rx - x), abs(ry - y), abs(rz - z)
        # the coordinate that rounded furthest is rebuilt from the other two
        fix_x = (dx > dy) & (dx > dz)
        fix_z = ~fix_x & ~(dy > dz)
        rx = np.where(fix_x, -ry - rz, rx)
        rz = np.where(fix_z, -rx - ry, rz)
    axial = np.column_stack([rx, rz])
    # false for nan, so this also rejects every non-finite coordinate
    if not (abs(axial) < 2.0 ** 63).all():
        raise DataError(f"hex side {side!r} puts a point outside the int64 "
                        "hex lattice")
    hexes, which = np.unique(axial.astype(np.int64), axis=0,
                             return_inverse=True)
    counts = np.bincount(which.ravel(), minlength=len(hexes),
                         weights=np.where(stable, 1, -1)).astype(np.int64)
    q, r = hexes[:, 0], hexes[:, 1]
    centers_u = side * SQRT3 * (q + r / 2.0)
    centers_v = side * 1.5 * r
    return [(cu, cv, c, signed_log(c)) for cu, cv, c in
            zip(centers_u.tolist(), centers_v.tolist(), counts.tolist())]
