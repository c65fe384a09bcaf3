"""Random forest built from scratch: Gini CART trees, bootstrap bagging,
per-node random feature subsets, MDI importances, and randomized
hyperparameter search with stratified k-fold cross-validation.

Binary targets only, encoded 0/1; predict_proba returns P(class 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SingleClass
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
    if isinstance(rule, int) and rule >= 1:
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
        out = np.empty(len(X))
        stack = [(0, np.arange(len(X)))]
        while stack:
            node, rows = stack.pop()
            if len(rows) == 0:
                continue
            f = self.feature[node]
            if f < 0:
                out[rows] = self.proba[node]
                continue
            goes_left = X[rows, f] <= self.threshold[node]
            stack.append((self.left[node], rows[goes_left]))
            stack.append((self.right[node], rows[~goes_left]))
        return out


def _best_split(X, y, feature_ids, min_samples_leaf):
    """Lowest weighted-Gini split; returns (feature, threshold, gain) or None."""
    n = len(y)
    total1 = int(y.sum())
    parent = 1.0 - ((total1 / n) ** 2 + ((n - total1) / n) ** 2)
    best = None
    for f in feature_ids:
        x = X[:, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = y[order]
        cut = np.flatnonzero(xs[:-1] < xs[1:])  # split after position k
        if len(cut) == 0:
            continue
        left_n = cut + 1
        right_n = n - left_n
        ok = (left_n >= min_samples_leaf) & (right_n >= min_samples_leaf)
        if not ok.any():
            continue
        cut = cut[ok]
        left_n = left_n[ok]
        right_n = right_n[ok]
        left1 = np.cumsum(ys)[cut]
        right1 = total1 - left1
        gini_l = 1.0 - (left1 ** 2 + (left_n - left1) ** 2) / left_n ** 2
        gini_r = 1.0 - (right1 ** 2 + (right_n - right1) ** 2) / right_n ** 2
        weighted = (left_n * gini_l + right_n * gini_r) / n
        k = int(np.argmin(weighted))
        gain = parent - float(weighted[k])
        if best is None or gain > best[2]:
            thr = 0.5 * (xs[cut[k]] + xs[cut[k] + 1])
            best = (f, float(thr), gain)
    if best is None or best[2] <= 0:
        return None
    return best


def _grow_tree(X, y, hp, rng, n_features) -> DecisionTree:
    feature, threshold, left, right, proba = [], [], [], [], []
    importance = np.zeros(n_features)
    m = _n_subset_features(hp.get("max_features", "sqrt"), n_features)
    max_depth = hp.get("max_depth")
    min_leaf = hp.get("min_samples_leaf", 1)
    n_root = len(y)

    def new_node():
        feature.append(-1)
        threshold.append(np.nan)
        left.append(-1)
        right.append(-1)
        proba.append(np.nan)
        return len(feature) - 1

    def build(rows, depth):
        node = new_node()
        ys = y[rows]
        n = len(ys)
        n1 = int(ys.sum())
        node_gini = 1.0 - ((n1 / n) ** 2 + ((n - n1) / n) ** 2)
        split = None
        if n1 not in (0, n) and n >= 2 * min_leaf and \
                (max_depth is None or depth < max_depth):
            if m == n_features:
                subset = range(n_features)
            else:
                subset = sorted(rng.choice(n_features, size=m, replace=False))
            split = _best_split(X[rows], ys, subset, min_leaf)
        if split is None:
            proba[node] = n1 / n
            return node
        f, thr, gain = split
        feature[node] = f
        threshold[node] = thr
        importance[f] += (n / n_root) * gain
        goes_left = X[rows, f] <= thr
        left[node] = build(rows[goes_left], depth + 1)
        right[node] = build(rows[~goes_left], depth + 1)
        return node

    build(np.arange(len(y)), 0)
    # build's closure refers to build itself; without this the cycle keeps
    # the node lists alive until the next full garbage collection
    del build
    return DecisionTree(feature=np.array(feature),
                        threshold=np.array(threshold),
                        left=np.array(left), right=np.array(right),
                        proba=np.array(proba), importance=importance)


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
        raise SingleClass("training data has a single class")
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
        raise SingleClass("cross-validation needs both classes")

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


def forest_to_json(forest: RandomForest) -> str:
    payload = {
        "hp": {k: v for k, v in forest.hp.items()},
        "n_features": forest.n_features,
        "feature_names": forest.feature_names,
        "trees": [
            {
                "feature": tree.feature.tolist(),
                "threshold": [None if np.isnan(t) else float(t)
                              for t in tree.threshold],
                "left": tree.left.tolist(),
                "right": tree.right.tolist(),
                "proba": [None if np.isnan(p) else float(p)
                          for p in tree.proba],
                "importance": tree.importance.tolist(),
            }
            for tree in forest.trees
        ],
    }
    return json.dumps(payload, sort_keys=True) + "\n"


def forest_from_json(text: str) -> RandomForest:
    payload = json.loads(text)
    trees = []
    for t in payload["trees"]:
        trees.append(DecisionTree(
            feature=np.array(t["feature"], dtype=int),
            threshold=np.array([np.nan if x is None else x
                                for x in t["threshold"]]),
            left=np.array(t["left"], dtype=int),
            right=np.array(t["right"], dtype=int),
            proba=np.array([np.nan if x is None else x
                            for x in t["proba"]]),
            importance=np.array(t["importance"]),
        ))
    return RandomForest(trees=trees, hp=payload["hp"],
                        n_features=payload["n_features"],
                        feature_names=payload["feature_names"])
