"""Random forest built from scratch: Gini CART trees, bootstrap bagging,
per-node random feature subsets, MDI importances, and randomized
hyperparameter search with stratified k-fold cross-validation.

Binary targets only, encoded 0/1; predict_proba returns P(class 1).

A split goes to the lowest weighted Gini; ties go to the first feature of
the node's feature subset, and within a feature to the lowest cut. All the
trees of one fit grow together, breadth first, the layout of PLANET (Panda,
Herbach, Basu & Bayardo, VLDB 2009): a pass scores every node of one depth in
every tree with one sort of its (node, feature) groups by value, and forms
all the children with one stable sort, so each node keeps its rows in
bootstrap order. At the end each tree is numbered in preorder (a node, its
left subtree, then its right), so every child has a higher id than its
parent.

fit(data, hp, seed) draws from one np.random.default_rng(seed), in order:
- the bootstrap, if hp["bootstrap"] (the default): one
  rng.integers(0, n, size=(n_trees, n)) block, row t for tree t;
- at each depth, the feature subsets of the J nodes that may split, taken in
  (tree, breadth-first position) order: one rng.random((J, n_features))
  block, whose row j argsorted (stable) gives node j's m features in its
  first m places, sorted before use.
No subset is drawn when m == n_features, so a forest with max_features "all"
and no bootstrap draws nothing, and all its trees are the same tree.

random_search_cv fits no forest per fold. A trial's folds grow together in
that pass, a few at a time (at most FUSE_ROOT_ROWS summed n_trees x training
rows), each on its own rows of X with its own generator, drawing in the
order a fit on those rows alone would: its bootstrap block, then at each
depth one subset block for its own nodes that may split. A node's gain is
weighted by its own fold's row count, and the ranks of the whole X order a
node's values as the fold's own would, so every split is the one fit grows.
Each fold's validation rows step down beside its training rows, a value
above the threshold going right, and take their leaves' P(class 1), which
the search sums tree by tree as predict_proba does.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .stats import average_precision

# the most root rows (n_trees x training rows, summed) of the folds of one
# search trial that grow together; more would hold larger split arrays
# than the grow of one fold does, for little saving
FUSE_ROOT_ROWS = 1 << 14


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


def _column_ranks(X):
    """(n_features, n) dense ranks of each column of X: equal values share
    a rank, and a lower rank holds a lower value."""
    order = X.argsort(axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    dense = np.zeros(X.shape, dtype=np.int64)
    np.cumsum(xs[1:] > xs[:-1], axis=0, out=dense[1:])
    ranks = np.empty_like(dense)
    np.put_along_axis(ranks, order, dense, axis=0)
    return ranks.T.copy()


def _best_splits(X, ranks, y, rows, counts, subsets, min_leaf):
    """(feature, threshold, gain) arrays of the best split of each node j,
    whose rows are the next counts[j] >= 2 items of rows, over the features
    in row j of subsets; the feature is -1 where no cut has a positive gain.

    Slot s of every node's subset makes row s of an (m, len(rows)) layout,
    in which group g = s * J + j holds node j's rows (J = len(counts)). One
    argsort of the keys (g, rank of the value) sorts every group by value,
    segment cumsums count the class-1 rows left of each cut, and a cut's
    place in its group is the same in every slot. The Gini arithmetic is
    that of a one-node search, in the same order; invalid cuts score +inf."""
    n_nodes, m = subsets.shape
    feature = np.full(n_nodes, -1)
    threshold = np.full(n_nodes, np.nan)
    if n_nodes == 0 or m == 0:
        return feature, threshold, np.full(n_nodes, -np.inf)
    n = len(X)
    sizes = np.tile(counts, m)
    starts = sizes.cumsum() - sizes
    r = np.tile(rows, m)
    key = ranks.ravel()[np.repeat(subsets.T.ravel() * n, sizes) + r]
    key += np.repeat(np.arange(len(sizes)) * n, sizes)
    order = key.argsort()
    r = r[order]
    key = key[order]
    del order
    rises = np.append(key[:-1] < key[1:], False).reshape(m, -1)
    del key
    # counts as floats: exact below 2 ** 26 rows, so the arithmetic equals
    # the integer one of a one-node search, at float speed
    left1 = y[r].astype(float)
    first1 = left1[starts]
    left1.cumsum(out=left1)
    left1 -= np.repeat(left1[starts] - first1, sizes)
    left1 = left1.reshape(m, -1)
    node_first = counts.cumsum() - counts
    total1 = left1[0, node_first + counts - 1]
    right1 = np.repeat(total1, counts) - left1
    left_n = np.arange(1.0, len(rows) + 1) - np.repeat(node_first, counts)
    size = np.repeat(counts.astype(float), counts)
    right_n = size - left_n
    # right_n is 0 after the last item of a group: there is no cut there
    with np.errstate(divide="ignore", invalid="ignore"):
        weighted = (left_n * (1.0 - (left1 ** 2 + (left_n - left1) ** 2)
                              / left_n ** 2)
                    + right_n * (1.0 - (right1 ** 2 + (right_n - right1) ** 2)
                                 / right_n ** 2)) / size
    del left1, right1
    rises &= np.minimum(left_n, right_n) >= max(min_leaf, 1)
    weighted = np.where(rises, weighted, np.inf).ravel()
    best = np.minimum.reduceat(weighted, starts)
    # Python's float ** 2 (libm pow), as in a one-node search; a numpy
    # square rounds differently on about 1 in 1,000 values
    parent = np.array([1.0 - ((a / b) ** 2 + ((b - a) / b) ** 2)
                       for a, b in zip(total1.tolist(), counts.tolist())])
    gains = parent[:, None] - best.reshape(m, n_nodes).T
    slot = gains.argmax(axis=1)
    gain = gains[np.arange(n_nodes), slot]
    split = np.flatnonzero(gain > 0)
    g = slot[split] * n_nodes + split
    # the lowest cut of each chosen group that reaches the group's minimum
    hits = np.flatnonzero(weighted == np.repeat(best, sizes))
    k = hits[np.searchsorted(hits, starts[g])]
    f = subsets[split, slot[split]]
    lo, hi = X[r[k], f], X[r[k + 1], f]
    with np.errstate(over="ignore"):
        thr = 0.5 * (lo + hi)
    # where the midpoint rounded onto hi or overflowed, cut at lo
    threshold[split] = np.where((lo <= thr) & (thr < hi), thr, lo)
    feature[split] = f
    return feature, threshold, gain


def _grow_forest(X, y, hp, fits, rngs, val=None):
    """The hp["n_trees"] trees of each fit f, grown on the rows fits[f] of X
    with the draws of rngs[f], all fits together a depth at a time. A depth's
    nodes come in (fit, tree, breadth-first position) order, and node j holds
    the next counts[j] items of rows; rows index X, so neither a bootstrap
    nor a fit copies data. Returns the per-depth node tables (tree, feature,
    threshold, proba, gain), with tree f * n_trees + t for tree t of fit f,
    and for each fit f the (n_trees, len(val[f])) P(class 1) at the leaf
    each row val[f] of X reaches in each tree; val None is no rows."""
    n_trees = hp.get("n_trees", 100)
    n_features = X.shape[1]
    # the faults of fitting on each fit's rows alone, in that order
    for fit_rows in fits:
        if not 0 < y[fit_rows].sum() < len(fit_rows):
            raise DataError("training data has a single class")
        if n_trees < 1:
            raise ConfigError(f"n_trees must be >= 1, got {n_trees}")
        m = _n_subset_features(hp.get("max_features", "sqrt"), n_features)
    max_depth = hp.get("max_depth")
    min_leaf = hp.get("min_samples_leaf", 1)
    n_fit = np.array([len(fit_rows) for fit_rows in fits])
    if hp.get("bootstrap", True):
        rows = np.concatenate([
            fit_rows[rng.integers(0, n, size=(n_trees, n))].ravel()
            for fit_rows, rng, n in zip(fits, rngs, n_fit.tolist())])
    else:
        rows = np.concatenate([np.tile(fit_rows, n_trees)
                               for fit_rows in fits])
    ranks = _column_ranks(X)
    tree, counts = np.arange(len(fits) * n_trees), np.repeat(n_fit, n_trees)
    # one item per (tree, validation row) pair: its node at this depth, its
    # row of X, and its place in the flat leaf probabilities
    val = [np.asarray(v, dtype=int) for v in val or [()] * len(fits)]
    n_val = np.array([len(v) for v in val])
    v_row = np.concatenate([np.tile(v, n_trees) for v in val])
    v_node = np.repeat(tree, np.repeat(n_val, n_trees))
    v_at = np.arange(len(v_row))
    leaf_proba = np.empty(len(v_row))
    levels = []
    depth = 0
    while len(counts):
        ones = np.add.reduceat(y[rows], counts.cumsum() - counts)
        can = (ones > 0) & (ones < counts) & (counts >= 2 * min_leaf) & \
            (max_depth is None or depth < max_depth)
        fit_of = tree // n_trees
        if m < n_features:
            # one block per fit, for its nodes that may split
            draws = [rngs[f].random((j, n_features)) for f, j in
                     enumerate(np.bincount(fit_of[can], minlength=len(fits)))]
            subsets = np.concatenate(draws).argsort(
                axis=1, kind="stable")[:, :m]
            subsets.sort(axis=1)
        else:
            subsets = np.broadcast_to(np.arange(n_features),
                                      (int(can.sum()), n_features))
        feature = np.full(len(counts), -1)
        threshold = np.full(len(counts), np.nan)
        gain = np.zeros(len(counts))
        feature[can], threshold[can], gain[can] = _best_splits(
            X, ranks, y, rows[np.repeat(can, counts)], counts[can], subsets,
            min_leaf)
        split = feature >= 0
        proba = np.where(split, np.nan, ones / counts)
        gain = np.where(split, (counts / n_fit[fit_of]) * gain, 0.0)
        levels.append((tree, feature, threshold, proba, gain))
        # a pair at a leaf takes its probability; the rest step to a child
        inner = split[v_node]
        leaf_proba[v_at[~inner]] = proba[v_node[~inner]]
        v_node, v_row, v_at = v_node[inner], v_row[inner], v_at[inner]
        # the children, left then right, keep their rows in parent order
        n_split = int(split.sum())
        rows = rows[np.repeat(split, counts)]
        kids = np.repeat(np.arange(0, 2 * n_split, 2), counts[split])
        kids += X[rows, np.repeat(feature[split], counts[split])] > \
            np.repeat(threshold[split], counts[split])
        rows = rows[kids.argsort(kind="stable")]
        counts = np.bincount(kids, minlength=2 * n_split)
        v_node = 2 * (np.cumsum(split) - 1)[v_node] + (
            X[v_row, feature[v_node]] > threshold[v_node])
        tree = np.repeat(tree[split], 2)
        depth += 1
    blocks = np.split(leaf_proba, np.cumsum(n_trees * n_val)[:-1])
    return levels, [b.reshape(n_trees, -1) for b in blocks]


def _preorder_trees(levels, n_trees, n_features) -> list:
    """The DecisionTrees of per-depth node tables, in which split k of a
    depth has nodes 2k and 2k + 1 of the next depth as its children. Each
    tree is renumbered in preorder and sums its importances in that order."""
    tree, feature, threshold, proba, gain = (
        np.concatenate(column) for column in zip(*levels))
    firsts = np.cumsum([0] + [len(level[0]) for level in levels])
    splits = [first + np.flatnonzero(level[1] >= 0)
              for first, level in zip(firsts, levels)]
    left = np.full(len(tree), -1)
    for first, s in zip(firsts[1:], splits):
        left[s] = first + 2 * np.arange(len(s))
    size = np.ones(len(tree), dtype=int)
    for s in reversed(splits):
        size[s] += size[left[s]] + size[left[s] + 1]
    pre = np.zeros(len(tree), dtype=int)
    for s in splits:
        pre[left[s]] = pre[s] + 1
        pre[left[s] + 1] = pre[s] + 1 + size[left[s]]
    tree_size = size[:n_trees]
    at = (tree_size.cumsum() - tree_size)[tree] + pre

    def in_preorder(values):
        out = np.empty_like(values)
        out[at] = values
        return out

    inner = feature >= 0
    feature, gain, tree = (in_preorder(a) for a in (feature, gain, tree))
    importance = np.zeros((n_trees, n_features))
    s = feature >= 0
    np.add.at(importance, (tree[s], feature[s]), gain[s])
    columns = (feature, in_preorder(threshold),
               in_preorder(np.where(inner, pre[left], -1)),
               in_preorder(np.where(inner, pre[left + 1], -1)),
               in_preorder(proba))
    ends = tree_size.cumsum().tolist()
    return [DecisionTree(*(a[start:end] for a in columns), importance[t])
            for t, (start, end) in enumerate(zip([0] + ends, ends))]


@dataclass
class RandomForest:
    trees: list
    hp: dict
    n_features: int
    feature_names: list = field(default_factory=list)


def fit(data: Dataset, hp: dict, seed=0) -> RandomForest:
    """Train a forest; hp keys: n_trees, max_depth, min_samples_leaf,
    max_features, bootstrap."""
    levels, _ = _grow_forest(data.X, data.y, hp, [np.arange(len(data.y))],
                             [np.random.default_rng(seed)])
    trees = _preorder_trees(levels, hp.get("n_trees", 100), data.X.shape[1])
    return RandomForest(trees=trees, hp=dict(hp), n_features=data.X.shape[1],
                        feature_names=list(data.feature_names))


def _leaf_proba(trees, X) -> np.ndarray:
    """(len(trees), len(X)) P(class 1) at the leaf each row reaches in each
    tree. The trees' node arrays are concatenated with per-tree offsets, and
    every (tree, row) pair steps down a level per pass; a row at a threshold
    goes left."""
    sizes = np.array([len(tree.feature) for tree in trees])
    first = sizes.cumsum() - sizes
    shift = np.repeat(first, sizes)
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    left = np.concatenate([tree.left for tree in trees]) + shift
    right = np.concatenate([tree.right for tree in trees]) + shift
    node = np.repeat(first, len(X))
    walking = np.flatnonzero(feature[node] >= 0)   # not yet at a leaf
    while len(walking):
        at = node[walking]
        goes_left = X[walking % len(X), feature[at]] <= threshold[at]
        at = np.where(goes_left, left[at], right[at])
        node[walking] = at
        walking = walking[feature[at] >= 0]
    proba = np.concatenate([tree.proba for tree in trees])
    return proba[node].reshape(len(trees), len(X))


def predict_proba(forest: RandomForest, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise ValueError(
            f"expected {forest.n_features} features, got {X.shape}")
    acc = np.zeros(len(X))
    for proba in _leaf_proba(forest.trees, X):   # tree by tree, in order
        acc += proba
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
    if n_iter < 1:
        raise ConfigError("forest n_iter must be positive")
    if k_folds < 2:
        raise ConfigError("forest k_folds must be >= 2")
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
    # the folds with a positive to score, and the rows each trains on
    scored = [f for f in range(k_folds) if data.y[folds[f]].sum() > 0]
    train = {f: np.concatenate([folds[g] for g in range(k_folds) if g != f])
             for f in scored}

    best = None
    trials = []
    for trial in range(n_iter):
        params = {}
        for name in sorted(space):
            options = space[name]
            params[name] = options[int(draw_rng.integers(len(options)))]
        n_trees = params.get("n_trees", 100)
        fold_scores = []
        for group in _fused_folds(scored, [n_trees * len(train[f])
                                           for f in scored]):
            _, leaf_proba = _grow_forest(
                data.X, data.y, params, [train[f] for f in group],
                [np.random.default_rng(children[2 + trial * k_folds + f])
                 for f in group], [folds[f] for f in group])
            for f, proba in zip(group, leaf_proba):
                # summed tree by tree, in order, as predict_proba sums
                acc = np.add.accumulate(proba)[-1]
                fold_scores.append(average_precision(acc / n_trees,
                                                     data.y[folds[f]]))
        if not fold_scores:
            raise ValueError("no fold had a positive validation sample")
        mean_score = float(np.mean(fold_scores))
        trials.append((params, mean_score))
        if best is None or mean_score > best[1]:
            best = (params, mean_score)
    return SearchResult(best_params=best[0], best_score=best[1],
                        trials=trials)


def _fused_folds(folds, root_rows) -> list:
    """folds cut into consecutive groups that grow together: a group takes
    the next fold while its summed root rows stay at most FUSE_ROOT_ROWS, so
    a fold above the bound grows alone."""
    groups, load = [], 0
    for f, rows in zip(folds, root_rows):
        if groups and load + rows <= FUSE_ROOT_ROWS:
            groups[-1].append(f)
            load += rows
        else:
            groups.append([f])
            load = rows
    return groups


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
