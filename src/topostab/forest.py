"""Random forest built from scratch: Gini CART trees, bootstrap bagging,
per-node random feature subsets, MDI importances, and randomized
hyperparameter search with stratified k-fold cross-validation.

Binary targets only, encoded 0/1; predict_proba returns P(class 1).

A split goes to the lowest weighted Gini; ties go to the first feature of
the node's feature subset, and within a feature to the lowest cut. Nodes are
numbered in preorder (a node, its left subtree, then its right), so every
child has a higher id than its parent. Each node keeps its rows in ascending
order; a split sorts the node's block of the feature subset once, and its
children follow the chosen column's sort order, so the rows at or below the
threshold go left without comparing them again.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .stats import average_precision


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    feature_names: list
    ids: list

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=int).reshape(-1)
        if self.X.ndim != 2 or len(self.X) != len(self.y):
            raise ValueError("X must be (n_samples, n_features) matching y")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("features contain non-finite values")
        if not np.all((self.y == 0) | (self.y == 1)):
            raise ValueError("targets must be 0/1")
        if len(self.feature_names) != self.X.shape[1]:
            raise ValueError("one name per feature column required")

    def subset(self, idx) -> "Dataset":
        idx = list(idx)
        return Dataset(self.X[idx], self.y[idx], self.feature_names,
                       [self.ids[i] for i in idx])


def _n_subset_features(rule, n_features: int) -> int:
    if rule == "sqrt":
        return min(n_features, math.ceil(math.sqrt(n_features)))
    if rule == "log2":
        return min(n_features, max(1, math.ceil(math.log2(n_features + 1))))
    if rule == "all":
        return n_features
    if isinstance(rule, int) and not isinstance(rule, bool) and rule >= 1:
        return min(n_features, rule)
    raise ConfigError(f"bad max_features rule: {rule!r}")


@dataclass
class DecisionTree:
    """Flat-array CART tree; node 0 is the root, leaves have feature -1."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    proba: np.ndarray        # P(class 1) at leaves, nan elsewhere
    importance: np.ndarray   # summed weighted impurity decrease per feature

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Rows step down a level per pass; a row at a threshold goes left."""
        node = np.zeros(len(X), dtype=np.intp)
        rows = np.flatnonzero(self.feature[node] >= 0)   # not yet at a leaf
        while len(rows):
            at = node[rows]
            goes_left = X[rows, self.feature[at]] <= self.threshold[at]
            at = np.where(goes_left, self.left[at], self.right[at])
            node[rows] = at
            rows = rows[self.feature[at] >= 0]
        return self.proba[node]


@functools.lru_cache(maxsize=256)
def _cut_tables(n: int, min_samples_leaf: int):
    """Read-only tables for the n - 1 cuts of an n-row node: the sizes of
    the left and right sides stacked as (2, n - 1, 1), their squares, and
    (n - 1, 1) whether both sides hold min_samples_leaf rows."""
    left_n = np.arange(1, n)
    sizes = np.stack([left_n, n - left_n])[:, :, None]
    tables = sizes, sizes ** 2, (sizes >= min_samples_leaf).all(axis=0)
    for table in tables:
        table.flags.writeable = False
    return tables


def _best_split(X, rows, y, subset, min_samples_leaf):
    """(feature, threshold, gain, left rows, right rows) of the best split
    of the node X[rows] with targets y, or None. Every column of the node's
    feature subset is sorted and scored in one pass; invalid cuts score
    +inf. The children are read off the chosen column's sort order, so each
    holds at least one row, and keep the ascending order of rows."""
    n, m = len(rows), len(subset)
    if m == 0:
        return None
    total1 = int(np.count_nonzero(y))
    parent = 1.0 - ((total1 / n) ** 2 + ((n - total1) / n) ** 2)
    x = X[rows[:, None], subset]
    order = x.argsort(axis=0, kind="stable")
    xs = x[order, np.arange(m)]
    sizes, squares, leaf_ok = _cut_tables(n, min_samples_leaf)
    # row k of each (n - 1, m) block describes the cut after sorted
    # position k; block 0 is the left side, block 1 the right
    count1 = np.empty((2, n - 1, m), dtype=np.int64)
    y[order[:-1]].cumsum(axis=0, out=count1[0])
    np.subtract(total1, count1[0], out=count1[1])
    gini = 1.0 - (count1 ** 2 + (sizes - count1) ** 2) / squares
    side = sizes * gini
    weighted = np.where((xs[:-1] < xs[1:]) & leaf_ok,
                        (side[0] + side[1]) / n, np.inf)
    gains = parent - np.minimum.reduce(weighted, axis=0)
    j = int(gains.argmax())
    if gains[j] <= 0:
        return None
    k = int(weighted[:, j].argmin())
    lo, hi = xs.item(k, j), xs.item(k + 1, j)
    thr = 0.5 * (lo + hi)
    if not lo <= thr < hi:   # the midpoint rounded onto hi or overflowed
        thr = lo
    left, right = rows[order[:k + 1, j]], rows[order[k + 1:, j]]
    left.sort()
    right.sort()
    return int(subset[j]), thr, float(gains[j]), left, right


def _grow_tree(X, y, hp, rng, n_features) -> DecisionTree:
    """One tree grown from an explicit stack: each popped node takes the
    next id, so ids and the rng.choice draws come in preorder. A tree of
    n rows has at most 2n - 1 nodes, since every leaf holds a row."""
    importance = np.zeros(n_features)
    m = _n_subset_features(hp.get("max_features", "sqrt"), n_features)
    every_feature = np.arange(n_features)
    max_depth = hp.get("max_depth")
    min_leaf = hp.get("min_samples_leaf", 1)
    n_root = len(y)
    feature = np.full(2 * n_root - 1, -1)
    left, right = feature.copy(), feature.copy()
    threshold = np.full(2 * n_root - 1, np.nan)
    proba = threshold.copy()
    n_nodes = 0
    # (rows, depth, parent id, the parent's array for this node's id)
    stack = [(np.arange(n_root), 0, -1, None)]
    while stack:
        rows, depth, parent, link = stack.pop()
        node = n_nodes
        n_nodes += 1
        if parent >= 0:
            link[parent] = node
        ys = y[rows]
        n, n1 = len(ys), int(np.count_nonzero(ys))
        split = None
        if 0 < n1 < n and n >= 2 * min_leaf and \
                (max_depth is None or depth < max_depth):
            if m == n_features:
                subset = every_feature
            else:
                subset = rng.choice(n_features, size=m, replace=False)
                subset.sort()
            split = _best_split(X, rows, ys, subset, min_leaf)
        if split is None:
            proba[node] = n1 / n
            continue
        f, thr, gain, rows_l, rows_r = split
        feature[node], threshold[node] = f, thr
        importance[f] += (n / n_root) * gain
        stack.append((rows_r, depth + 1, node, right))
        stack.append((rows_l, depth + 1, node, left))
    return DecisionTree(feature[:n_nodes].copy(), threshold[:n_nodes].copy(),
                        left[:n_nodes].copy(), right[:n_nodes].copy(),
                        proba[:n_nodes].copy(), importance)


@dataclass
class RandomForest:
    trees: list
    hp: dict
    n_features: int
    feature_names: list = field(default_factory=list)


def fit(data: Dataset, hp: dict, seed=0) -> RandomForest:
    """Train a forest; hp keys: n_trees, max_depth, min_samples_leaf,
    max_features, bootstrap."""
    if len(np.unique(data.y)) < 2:
        raise DataError("training data has a single class")
    rng = np.random.default_rng(seed)
    n = len(data.y)
    n_features = data.X.shape[1]
    trees = []
    for _ in range(hp.get("n_trees", 100)):
        if hp.get("bootstrap", True):
            rows = rng.integers(0, n, size=n)
        else:
            rows = np.arange(n)
        trees.append(_grow_tree(data.X[rows], data.y[rows], hp, rng,
                                n_features))
    return RandomForest(trees=trees, hp=dict(hp), n_features=n_features,
                        feature_names=list(data.feature_names))


def predict_proba(forest: RandomForest, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise ValueError(
            f"expected {forest.n_features} features, got {X.shape}")
    acc = np.zeros(len(X))
    for tree in forest.trees:
        acc += tree.predict_proba(X)
    return acc / len(forest.trees)


def mdi_importance(forest: RandomForest) -> np.ndarray:
    """Per-feature mean decrease in impurity, normalized to sum 1."""
    acc = np.zeros(forest.n_features)
    for tree in forest.trees:
        acc += tree.importance
    acc /= len(forest.trees)
    total = acc.sum()
    return acc / total if total > 0 else acc


def stratified_folds(y: np.ndarray, k: int, rng) -> list:
    """k index lists, class ratios preserved; deterministic given rng."""
    fold_of = np.empty(len(y), dtype=int)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(len(idx))]
        fold_of[idx] = np.arange(len(idx)) % k
    return [np.flatnonzero(fold_of == f) for f in range(k)]


@dataclass
class SearchResult:
    best_params: dict
    best_score: float
    trials: list


def random_search_cv(data: Dataset, space: dict, n_iter: int,
                     k_folds: int = 10, seed=0) -> SearchResult:
    """Randomized hyperparameter search scored by mean fold APS."""
    n = len(data.y)
    if n < k_folds:
        raise ConfigError(f"{n} samples cannot fill {k_folds} folds")
    if len(np.unique(data.y)) < 2:
        raise DataError("cross-validation needs both classes")

    ss = np.random.SeedSequence(seed)
    children = ss.spawn(2 + n_iter * k_folds)
    fold_rng = np.random.default_rng(children[0])
    draw_rng = np.random.default_rng(children[1])
    folds = stratified_folds(data.y, k_folds, fold_rng)

    best = None
    trials = []
    for trial in range(n_iter):
        params = {}
        for name in sorted(space):
            options = space[name]
            params[name] = options[int(draw_rng.integers(len(options)))]
        fold_scores = []
        for f in range(k_folds):
            val_idx = folds[f]
            if data.y[val_idx].sum() == 0:
                continue
            train_idx = np.concatenate(
                [folds[g] for g in range(k_folds) if g != f])
            forest = fit(data.subset(train_idx), params,
                         seed=children[2 + trial * k_folds + f])
            scores = predict_proba(forest, data.X[val_idx])
            fold_scores.append(average_precision(scores, data.y[val_idx]))
        if not fold_scores:
            raise ValueError("no fold had a positive validation sample")
        mean_score = float(np.mean(fold_scores))
        trials.append((params, mean_score))
        if best is None or mean_score > best[1]:
            best = (params, mean_score)
    return SearchResult(best_params=best[0], best_score=best[1],
                        trials=trials)


# DecisionTree's arrays and their dtypes; a nan is null in forest json
_TREE_ARRAYS = {"feature": int, "threshold": float, "left": int,
                "right": int, "proba": float, "importance": float}


def forest_to_json(forest: RandomForest) -> str:
    payload = {
        "hp": dict(forest.hp),
        "n_features": forest.n_features,
        "feature_names": forest.feature_names,
        "trees": [{name: [None if v != v else v
                          for v in getattr(tree, name).tolist()]
                   for name in _TREE_ARRAYS} for tree in forest.trees],
    }
    return json.dumps(payload, sort_keys=True) + "\n"


def forest_from_json(text: str) -> RandomForest:
    """The forest in text, if every walk down each tree ends at a leaf with
    a probability: an inner node's children follow it in preorder."""
    payload = json.loads(text)
    n_features = payload["n_features"]
    if len(payload["feature_names"]) != n_features:
        raise ValueError(f"{len(payload['feature_names'])} feature names "
                         f"for {n_features} features")
    trees = []
    for i, t in enumerate(payload["trees"]):
        tree = DecisionTree(**{
            name: np.array([np.nan if v is None else v for v in t[name]],
                           dtype=dtype)
            for name, dtype in _TREE_ARRAYS.items()})
        n = len(tree.feature)
        shapes = {a.shape for a in (tree.feature, tree.threshold, tree.left,
                                    tree.right, tree.proba)}
        if n == 0 or shapes != {(n,)} or \
                tree.importance.shape != (n_features,):
            raise ValueError(f"tree {i} needs {n_features} importances and "
                             f"flat node arrays of one non-zero length")
        ids = np.arange(n)
        ok = np.where(tree.feature >= 0,
                      (ids < tree.left) & (tree.left < n) &
                      (ids < tree.right) & (tree.right < n) &
                      (tree.feature < n_features) &
                      np.isfinite(tree.threshold),
                      (tree.proba >= 0) & (tree.proba <= 1))
        if not ok.all():
            k = int(np.argmin(ok))
            raise ValueError(
                f"tree {i} node {k} of {n} is broken: feature "
                f"{tree.feature[k]}, threshold {tree.threshold[k]}, children "
                f"{tree.left[k]} and {tree.right[k]}, proba {tree.proba[k]}")
        trees.append(tree)
    return RandomForest(trees=trees, hp=payload["hp"], n_features=n_features,
                        feature_names=payload["feature_names"])
