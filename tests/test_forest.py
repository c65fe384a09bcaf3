from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import weakref

import numpy as np
import pytest

from topostab import forest
from topostab.errors import ConfigError, DataError
from topostab.forest import Dataset

from oracles import (gini, reference_best_split, reference_grow_forest,
                     reference_grow_tree, reference_predict,
                     reference_random_search_cv)


def make_data(rng, n=120, n_features=6, planted=2):
    X = rng.normal(size=(n, n_features))
    y = (X[:, planted] > 0).astype(int)
    names = [f"f{i}" for i in range(n_features)]
    return Dataset(X, y, names, [f"s{i}" for i in range(n)])


class TestGini:
    def test_values(self):
        assert gini([1, 1]) == pytest.approx(0.5)
        assert gini([5, 0]) == 0.0
        assert gini([3, 1]) == pytest.approx(0.375)
        assert gini([1, 1, 1]) == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gini([0, 0])


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2)), [0, 1], ["a", "b"], list("xyz"))
        with pytest.raises(ValueError):
            Dataset([[np.nan, 0.0]], [1], ["a", "b"], ["x"])
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), [0, 2], ["a"], ["x", "y"])
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), [0, 1], ["a"], ["x", "y"])


class TestFeatureSubsetRule:
    def test_rules(self):
        assert forest._n_subset_features("sqrt", 10) == 4
        assert forest._n_subset_features("sqrt", 4) == 2
        assert forest._n_subset_features("all", 7) == 7
        assert forest._n_subset_features(3, 7) == 3
        assert forest._n_subset_features(99, 7) == 7

    def test_bad_rule(self):
        with pytest.raises(ConfigError):
            forest._n_subset_features("most", 7)

    @pytest.mark.parametrize("rule", [True, False])
    def test_bool_is_not_a_count(self, rule):
        with pytest.raises(ConfigError, match="max_features"):
            forest._n_subset_features(rule, 7)


class TestFit:
    def exact_hp(self, **extra):
        hp = {"n_trees": 1, "bootstrap": False, "max_features": "all"}
        hp.update(extra)
        return hp

    def test_single_clean_split(self):
        data = Dataset([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1],
                       ["x"], list("abcd"))
        rf = forest.fit(data, self.exact_hp())
        tree = rf.trees[0]
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(1.5)
        got = forest.predict_proba(rf, [[1.0], [2.0]])
        assert got.tolist() == [0.0, 1.0]

    def test_threshold_is_midpoint(self):
        data = Dataset([[0.0], [0.2], [0.8], [1.0]], [0, 0, 1, 1],
                       ["x"], list("abcd"))
        rf = forest.fit(data, self.exact_hp())
        assert rf.trees[0].threshold[0] == pytest.approx(0.5)

    def test_min_samples_leaf_limits_cuts(self):
        data = Dataset([[0.0], [1.0], [2.0], [3.0]], [0, 1, 1, 1],
                       ["x"], list("abcd"))
        rf = forest.fit(data, self.exact_hp(min_samples_leaf=2))
        assert rf.trees[0].threshold[0] == pytest.approx(1.5)

    def test_max_depth_zero_is_a_stump(self):
        rng = np.random.default_rng(60)
        data = make_data(rng, n=40)
        rf = forest.fit(data, self.exact_hp(max_depth=0))
        got = forest.predict_proba(rf, data.X)
        assert np.allclose(got, data.y.mean())

    def test_no_bootstrap_all_features_gives_identical_trees(self):
        rng = np.random.default_rng(61)
        data = make_data(rng, n=60)
        rf = forest.fit(data, self.exact_hp(n_trees=4))
        first = forest.forest_to_json(
            forest.RandomForest([rf.trees[0]], {}, rf.n_features))
        for tree in rf.trees[1:]:
            other = forest.forest_to_json(
                forest.RandomForest([tree], {}, rf.n_features))
            assert other == first

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(62)
        data = make_data(rng, n=50)
        hp = {"n_trees": 5}
        a = forest.forest_to_json(forest.fit(data, hp, seed=3))
        b = forest.forest_to_json(forest.fit(data, hp, seed=3))
        c = forest.forest_to_json(forest.fit(data, hp, seed=4))
        assert a == b
        assert a != c

    def test_single_class_rejected(self):
        data = Dataset(np.zeros((4, 1)), [1, 1, 1, 1], ["x"], list("abcd"))
        with pytest.raises(DataError,
                           match="^training data has a single class$"):
            forest.fit(data, {"n_trees": 1})

    def test_zero_trees_rejected(self):
        data = Dataset(np.zeros((2, 1)), [0, 1], ["x"], ["a", "b"])
        with pytest.raises(ConfigError, match="^n_trees must be >= 1, got 0$"):
            forest.fit(data, {"n_trees": 0})

    def test_fits_training_data_well(self):
        rng = np.random.default_rng(63)
        data = make_data(rng, n=100)
        rf = forest.fit(data, {"n_trees": 30}, seed=0)
        proba = forest.predict_proba(rf, data.X)
        acc = ((proba > 0.5).astype(int) == data.y).mean()
        assert acc > 0.95


    def test_trees_freed_without_garbage_collection(self):
        data = make_data(np.random.default_rng(7))
        gc.collect()
        gc.disable()
        try:
            model = forest.fit(data, {"n_trees": 20}, seed=0)
            refs = [weakref.ref(tree.importance) for tree in model.trees]
            del model
            assert all(ref() is None for ref in refs)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestPredict:
    def test_range_and_shape(self):
        rng = np.random.default_rng(64)
        data = make_data(rng, n=80)
        rf = forest.fit(data, {"n_trees": 10}, seed=0)
        proba = forest.predict_proba(rf, data.X)
        assert proba.shape == (80,)
        assert ((proba >= 0) & (proba <= 1)).all()

    def test_feature_width_mismatch(self):
        rng = np.random.default_rng(65)
        data = make_data(rng, n=30)
        rf = forest.fit(data, {"n_trees": 2}, seed=0)
        with pytest.raises(ValueError):
            forest.predict_proba(rf, np.zeros((3, 2)))


class TestImportance:
    def test_planted_feature_dominates(self):
        rng = np.random.default_rng(66)
        data = make_data(rng, n=200, planted=2)
        rf = forest.fit(data, {"n_trees": 30}, seed=0)
        imp = forest.mdi_importance(rf)
        assert imp.shape == (6,)
        assert imp.sum() == pytest.approx(1.0)
        assert int(np.argmax(imp)) == 2
        assert imp[2] > 0.5

    def test_stump_forest_has_zero_importance(self):
        rng = np.random.default_rng(67)
        data = make_data(rng, n=40)
        rf = forest.fit(data, {"n_trees": 3, "max_depth": 0}, seed=0)
        assert forest.mdi_importance(rf).tolist() == [0.0] * 6


class TestStratifiedFolds:
    def test_balance_and_partition(self):
        y = np.array([0] * 20 + [1] * 10)
        folds = forest.stratified_folds(y, 5, np.random.default_rng(0))
        assert sorted(np.concatenate(folds).tolist()) == list(range(30))
        for f in folds:
            assert (y[f] == 0).sum() == 4
            assert (y[f] == 1).sum() == 2

    def test_per_class_counts_within_one(self):
        y = np.array([0] * 7 + [1] * 5)
        folds = forest.stratified_folds(y, 3, np.random.default_rng(1))
        assert sorted(np.concatenate(folds).tolist()) == list(range(12))
        for cls in (0, 1):
            counts = [(y[f] == cls).sum() for f in folds]
            assert max(counts) - min(counts) <= 1


class TestRandomSearch:
    def space(self):
        return {"n_trees": [10], "max_depth": [None, 2],
                "min_samples_leaf": [1, 3], "max_features": ["sqrt"]}

    def test_too_few_samples(self):
        rng = np.random.default_rng(68)
        data = make_data(rng, n=6)
        with pytest.raises(ConfigError):
            forest.random_search_cv(data, self.space(), n_iter=1, k_folds=10)

    def test_single_class_rejected(self):
        data = Dataset(np.zeros((20, 1)), [0] * 20, ["x"],
                       [str(i) for i in range(20)])
        with pytest.raises(DataError,
                           match="^cross-validation needs both classes$"):
            forest.random_search_cv(data, self.space(), n_iter=1, k_folds=4)

    @pytest.mark.parametrize("n_iter, k_folds, message", [
        (0, 4, "^forest n_iter must be positive$"),
        (-1, 4, "^forest n_iter must be positive$"),
        (1, 1, "^forest k_folds must be >= 2$"),
        (1, 0, "^forest k_folds must be >= 2$"),
    ])
    def test_bad_arguments(self, n_iter, k_folds, message):
        data = make_data(np.random.default_rng(68), n=20)
        with pytest.raises(ConfigError, match=message):
            forest.random_search_cv(data, self.space(), n_iter=n_iter,
                                    k_folds=k_folds)

    def test_no_trees_rejected(self):
        data = make_data(np.random.default_rng(68), n=20)
        space = dict(self.space(), n_trees=[0])
        with pytest.raises(ConfigError,
                           match="^n_trees must be >= 1, got 0$"):
            forest.random_search_cv(data, space, n_iter=1, k_folds=4)

    def test_single_class_fold_rejected(self):
        # the one positive's fold is scored, and trains on negatives only
        y = [0] * 11 + [1]
        data = Dataset(np.arange(12.0).reshape(-1, 1), y, ["x"],
                       [str(i) for i in range(12)])
        with pytest.raises(DataError,
                           match="^training data has a single class$"):
            forest.random_search_cv(data, self.space(), n_iter=1, k_folds=3)

    def test_deterministic(self):
        rng = np.random.default_rng(69)
        data = make_data(rng, n=60)
        a = forest.random_search_cv(data, self.space(), n_iter=3, k_folds=4,
                                    seed=7)
        b = forest.random_search_cv(data, self.space(), n_iter=3, k_folds=4,
                                    seed=7)
        assert a.best_params == b.best_params
        assert a.best_score == b.best_score
        assert a.trials == b.trials

    def test_selection_and_sampling(self):
        rng = np.random.default_rng(70)
        data = make_data(rng, n=60)
        res = forest.random_search_cv(data, self.space(), n_iter=4, k_folds=4,
                                      seed=0)
        assert len(res.trials) == 4
        assert res.best_score == max(score for _, score in res.trials)
        for params, _ in res.trials:
            assert set(params) == set(self.space())
            for name, value in params.items():
                assert value in self.space()[name]

    def test_learns_planted_signal(self):
        rng = np.random.default_rng(71)
        data = make_data(rng, n=100)
        res = forest.random_search_cv(data, self.space(), n_iter=2, k_folds=5,
                                      seed=0)
        assert res.best_score > 0.9


class TestJson:
    @pytest.mark.parametrize("hp", [
        {"n_trees": 5, "max_depth": 4},
        {"n_trees": 4, "max_depth": 0},
        {"n_trees": 4, "max_depth": 2, "min_samples_leaf": 3,
         "max_features": "all", "bootstrap": False},
    ])
    def test_round_trip(self, hp):
        rng = np.random.default_rng(72)
        data = make_data(rng, n=60)
        rf = forest.fit(data, hp, seed=0)
        text = forest.forest_to_json(rf)
        back = forest.forest_from_json(text)
        assert back.hp == rf.hp
        assert back.n_features == rf.n_features
        assert back.feature_names == rf.feature_names
        np.testing.assert_array_equal(
            forest.predict_proba(back, data.X),
            forest.predict_proba(rf, data.X))
        assert forest.forest_to_json(back) == text

    def test_nan_thresholds_survive(self):
        data = Dataset([[0.0], [1.0]], [0, 1], ["x"], ["a", "b"])
        rf = forest.fit(data, {"n_trees": 1, "bootstrap": False,
                               "max_features": "all"}, seed=0)
        back = forest.forest_from_json(forest.forest_to_json(rf))
        tree = back.trees[0]
        leaves = tree.feature < 0
        assert np.isnan(tree.threshold[leaves]).all()
        assert not np.isnan(tree.proba[leaves]).any()


def split_hex(split):
    """A split with its floats as float.hex, so equality is bit for bit."""
    if split is None:
        return None
    f, thr, gain = split[:3]
    return int(f), float(thr).hex(), float(gain).hex()


def best_split(X, y, ids, leaf):
    """forest._best_splits on one node holding every row of X, as
    (feature, threshold, gain) or None, after checking that the threshold
    leaves min_samples_leaf rows on each side."""
    feature, threshold, gain = forest._best_splits(
        X, forest._column_ranks(X), y, np.arange(len(y)),
        np.array([len(y)]), np.array(ids, dtype=int).reshape(1, -1), leaf)
    if feature[0] < 0:
        return None
    f, thr = int(feature[0]), float(threshold[0])
    n_left = int(np.count_nonzero(X[:, f] <= thr))
    assert min(n_left, len(y) - n_left) >= leaf
    return f, thr, float(gain[0])


def random_split_case(rng):
    n = int(rng.integers(2, 13))
    m = int(rng.integers(1, 6))
    kind = int(rng.integers(3))
    if kind == 0:      # integer values: many equal neighbours and tied gains
        X = rng.integers(0, 3, size=(n, m)).astype(float)
    else:
        X = rng.normal(size=(n, m))
        if kind == 1:  # a constant column
            X[:, rng.integers(m)] = 1.5
    y = rng.integers(0, 2, size=n)
    ids = sorted(rng.choice(m, size=int(rng.integers(0, m + 1)),
                            replace=False).tolist())
    return X, y, ids, int(rng.integers(1, 4))


class TestBestSplitOracle:
    def test_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(80)
        found = 0
        for _ in range(10_000):
            X, y, ids, leaf = random_split_case(rng)
            want = split_hex(reference_best_split(X, y, ids, leaf))
            assert split_hex(best_split(X, y, ids, leaf)) == want
            found += want is not None
        # both outcomes are well represented
        assert 2_000 < found < 8_000

    @pytest.mark.parametrize("X, y, ids, leaf", [
        ([[0.0], [1.0]], [0, 1], [0], 1),              # n = 2, one feature
        ([[0.0], [1.0]], [0, 1], [0], 2),              # leaf too big
        ([[0.0, 1.0], [1.0, 0.0]], [0, 1], [], 1),     # no feature
        ([[2.0, 0.0], [2.0, 1.0], [2.0, 2.0]], [0, 1, 1], [0], 1),  # constant
        ([[0.0, 0.0], [1.0, 1.0]], [0, 1], [0, 1], 1),  # tied features
        ([[0.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1], [0], 1),  # tied cuts
    ])
    def test_edge_cases(self, X, y, ids, leaf):
        X = np.array(X)
        y = np.array(y)
        want = reference_best_split(X, y, ids, leaf)
        assert split_hex(best_split(X, y, ids, leaf)) == split_hex(want)

    @pytest.mark.parametrize("lo, hi", [
        (1 + 2 ** -52, 1 + 2 ** -51),   # the midpoint rounds onto hi
        (1.7e308, 1.75e308),            # the sum overflows
        (-1.75e308, -1.7e308),
    ])
    def test_threshold_separates_the_children(self, lo, hi):
        X = np.array([[lo], [hi]])
        assert best_split(X, np.array([0, 1]), [0], 1)[1] == lo
        data = Dataset(X, [0, 1], ["x"], ["a", "b"])
        rf = forest.fit(data, {"n_trees": 1, "bootstrap": False,
                               "max_features": "all"})
        assert forest.predict_proba(rf, X).tolist() == [0.0, 1.0]

    def test_tie_rule(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert best_split(X, np.array([0, 1]), [1, 0], 1)[0] == 1
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        split = best_split(X, np.array([0, 1, 0, 1]), [0], 1)
        assert split[1] == 0.5


def assert_same_trees(got, want):
    assert len(got.trees) == len(want.trees)
    for a, b in zip(got.trees, want.trees):
        for field in dataclasses.fields(forest.DecisionTree):
            x, y = getattr(a, field.name), getattr(b, field.name)
            assert x.dtype == y.dtype, field.name
            assert np.array_equal(x, y, equal_nan=True), field.name


def draws_nothing(hp, n_features):
    return not hp.get("bootstrap", True) and n_features == \
        forest._n_subset_features(hp.get("max_features", "sqrt"), n_features)


def reference_fit(data, hp, seed):
    """forest.fit with its trees from an oracle: reference_grow_tree for
    each tree of a fit that draws nothing, else reference_grow_forest."""
    rng = np.random.default_rng(seed)
    n_features = data.X.shape[1]
    if draws_nothing(hp, n_features):
        trees = [reference_grow_tree(data.X, data.y, hp, rng, n_features)
                 for _ in range(hp.get("n_trees", 100))]
    else:
        trees = reference_grow_forest(data.X, data.y, hp, rng)
    return forest.RandomForest(trees, dict(hp), n_features,
                               list(data.feature_names))


class TestGrowTreeOracle:
    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("max_features", ["sqrt", "all", 1])
    @pytest.mark.parametrize("min_samples_leaf", [1, 3])
    @pytest.mark.parametrize("max_depth", [None, 2])
    def test_fit_matches_reference(self, max_depth, min_samples_leaf,
                                   max_features, bootstrap):
        rng = np.random.default_rng(81)
        data = make_data(rng, n=70, n_features=5)
        data.X[:, 1] = np.round(data.X[:, 1])   # ties within a feature
        data.X[:, 3] = data.X[:, 2]             # ties between features
        hp = {"n_trees": 6, "max_depth": max_depth,
              "min_samples_leaf": min_samples_leaf,
              "max_features": max_features, "bootstrap": bootstrap}
        got = forest.fit(data, hp, seed=9)
        assert_same_trees(got, reference_fit(data, hp, 9))
        if draws_nothing(hp, 5):
            # the level-by-level oracle agrees with the recursive one
            trees = reference_grow_forest(data.X, data.y, hp,
                                          np.random.default_rng(9))
            assert_same_trees(got, forest.RandomForest(trees, hp, 5))

    @pytest.mark.parametrize("n", range(2, 15))
    def test_few_rows_many_features(self, n):
        # the shape of a small cross-validation fold
        rng = np.random.default_rng(83 + n)
        X = rng.random(size=(n, 28))
        X[:, :9] = np.round(X[:, :9] * 3)
        y = np.arange(n) % 2
        data = Dataset(X, y, [f"f{i}" for i in range(28)],
                       [str(i) for i in range(n)])
        hp = {"n_trees": 8, "max_features": "sqrt"}
        got = forest.fit(data, hp, seed=n)
        assert_same_trees(got, reference_fit(data, hp, n))

    @pytest.mark.parametrize("max_features, min_samples_leaf",
                             [("log2", 3), ("log2", 5), (7, 1), (7, 3)])
    def test_log2_and_integer_subsets(self, max_features, min_samples_leaf):
        rng = np.random.default_rng(84)
        data = make_data(rng, n=60, n_features=40, planted=11)
        data.X[:, 20:30] = np.round(data.X[:, 20:30])
        hp = {"n_trees": 6, "max_depth": 8,
              "min_samples_leaf": min_samples_leaf,
              "max_features": max_features}
        got = forest.fit(data, hp, seed=3)
        assert_same_trees(got, reference_fit(data, hp, 3))

    @pytest.mark.parametrize("tied", [28, 20])
    def test_columns_of_ties(self, tied):
        # the first `tied` columns hold one value each, the rest two
        rng = np.random.default_rng(85)
        X = np.tile(rng.normal(size=28), (40, 1))
        X[:, tied:] = rng.integers(0, 2, size=(40, 28 - tied))
        y = np.arange(40) % 2
        data = Dataset(X, y, [f"f{i}" for i in range(28)],
                       [str(i) for i in range(40)])
        hp = {"n_trees": 8, "max_features": "sqrt"}
        got = forest.fit(data, hp, seed=4)
        if tied == 28:
            assert all(len(tree.feature) == 1 for tree in got.trees)
        assert_same_trees(got, reference_fit(data, hp, 4))

    def test_zero_feature_fit_gives_leaf_only_trees(self):
        data = Dataset(np.zeros((5, 0)), [0, 1, 0, 1, 1], [], list("abcde"))
        got = forest.fit(data, {"n_trees": 3}, seed=1)
        assert [tree.feature.tolist() for tree in got.trees] == [[-1]] * 3
        text = forest.forest_to_json(got)
        assert forest.forest_to_json(forest.forest_from_json(text)) == text
        assert_same_trees(got, reference_fit(data, {"n_trees": 3}, 1))


def one_tree_proba(tree, X):
    """predict_proba of a forest of tree alone."""
    return forest.predict_proba(
        forest.RandomForest([tree], {}, len(tree.importance)), X)


class TestPredictOracle:
    def test_matches_reference_with_rows_at_thresholds(self):
        rng = np.random.default_rng(82)
        data = make_data(rng, n=80)
        rf = forest.fit(data, {"n_trees": 5}, seed=0)
        at = []
        for tree in rf.trees:
            for node in np.flatnonzero(tree.feature >= 0):
                row = data.X[int(rng.integers(len(data.X)))].copy()
                row[tree.feature[node]] = tree.threshold[node]
                at.append(row)
        X = np.vstack([data.X, at, rng.normal(size=(20, 6))])
        for tree in rf.trees:
            got = one_tree_proba(tree, X)
            assert got.tolist() == reference_predict(tree, X).tolist()

    def test_row_at_threshold_goes_left(self):
        data = Dataset([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1],
                       ["x"], list("abcd"))
        rf = forest.fit(data, {"n_trees": 1, "bootstrap": False,
                               "max_features": "all"})
        X = np.array([[1.5], [1.5 + 1e-12]])
        assert one_tree_proba(rf.trees[0], X).tolist() == [0.0, 1.0]
        assert reference_predict(rf.trees[0], X).tolist() == [0.0, 1.0]

    def test_forest_adds_its_trees_in_order(self):
        rng = np.random.default_rng(86)
        data = make_data(rng, n=80)
        rf = forest.fit(data, {"n_trees": 7}, seed=2)
        X = np.vstack([data.X, rng.normal(size=(30, 6))])
        want = np.zeros(len(X))
        for tree in rf.trees:
            want += reference_predict(tree, X)
        got = forest.predict_proba(rf, X)
        assert got.tolist() == (want / len(rf.trees)).tolist()

    def test_trees_add_in_order_then_divide(self):
        # 0.1 + 0.2 + 0.3 rounds to another double than 0.3 + 0.2 + 0.1
        trees = [forest.DecisionTree(
            feature=np.array([-1]), threshold=np.array([np.nan]),
            left=np.array([-1]), right=np.array([-1]),
            proba=np.array([p]), importance=np.zeros(1))
            for p in (0.1, 0.2, 0.3)]
        want = (0.1 + 0.2 + 0.3) / 3
        assert want != (0.3 + 0.2 + 0.1) / 3
        got = forest.predict_proba(forest.RandomForest(trees, {}, 1),
                                   np.zeros((2, 1)))
        assert got.tolist() == [want] * 2

    def test_root_leaf_tree(self):
        tree = forest.DecisionTree(
            feature=np.array([-1]), threshold=np.array([np.nan]),
            left=np.array([-1]), right=np.array([-1]),
            proba=np.array([0.25]), importance=np.zeros(2))
        X = np.zeros((3, 2))
        assert one_tree_proba(tree, X).tolist() == [0.25] * 3
        assert reference_predict(tree, X).tolist() == [0.25] * 3
        assert one_tree_proba(tree, np.zeros((0, 2))).tolist() == []


def search_data(seed, n_pos, n=40):
    """n rows, n_pos of them positive, whose first three features hold the
    integers 0 to 3 (heavy ties) and the last three normal noise."""
    rng = np.random.default_rng(seed)
    X = np.hstack([rng.integers(0, 4, size=(n, 3)).astype(float),
                   rng.normal(size=(n, 3))])
    y = np.zeros(n, dtype=int)
    y[np.argsort(X[:, 0] + X[:, 3], kind="stable")[-n_pos:]] = 1
    return Dataset(X, y, [f"f{i}" for i in range(6)],
                   [f"s{i}" for i in range(n)])


SEARCH_SPACES = [
    {"bootstrap": [True], "max_features": ["sqrt"], "max_depth": [None],
     "min_samples_leaf": [1], "n_trees": [10]},
    {"bootstrap": [False], "max_features": ["log2"], "max_depth": [2],
     "min_samples_leaf": [3], "n_trees": [10]},
    {"bootstrap": [True], "max_features": ["all"], "max_depth": [0],
     "min_samples_leaf": [1], "n_trees": [1]},
    {"bootstrap": [False], "max_features": [2], "max_depth": [None],
     "min_samples_leaf": [3], "n_trees": [1]},
    {"bootstrap": [True], "max_features": [2], "max_depth": [2],
     "min_samples_leaf": [3], "n_trees": [10]},
    {"bootstrap": [False], "max_features": ["all"], "max_depth": [None],
     "min_samples_leaf": [1], "n_trees": [10]},
    {"bootstrap": [True, False], "max_features": ["sqrt", "log2", "all", 2],
     "max_depth": [None, 0, 2], "min_samples_leaf": [1, 3],
     "n_trees": [1, 10]},
]


def trials_hex(result):
    return [(params, float(score).hex()) for params, score in result.trials]


class TestSearchOracle:
    # 1: every fold grows alone; 700: folds of 10 trees grow in pairs and
    # folds of 1 tree all together; 2 ** 40: every fold of a trial together
    @pytest.mark.parametrize("fuse", [1, 700, 2 ** 40])
    @pytest.mark.parametrize("k_folds", [2, 3, 4, 5])
    @pytest.mark.parametrize("n_pos", [3, 16])
    @pytest.mark.parametrize("space", range(len(SEARCH_SPACES)))
    def test_matches_reference(self, monkeypatch, space, n_pos, k_folds,
                               fuse):
        monkeypatch.setattr(forest, "FUSE_ROOT_ROWS", fuse)
        data = search_data(87 + k_folds, n_pos)
        space = SEARCH_SPACES[space]
        n_iter = 6 if len(space["n_trees"]) > 1 else 2
        got = forest.random_search_cv(data, space, n_iter, k_folds, seed=5)
        want = reference_random_search_cv(data, space, n_iter, k_folds,
                                          seed=5)
        assert trials_hex(got) == trials_hex(want)
        assert got.best_params == want.best_params
        assert float(got.best_score).hex() == float(want.best_score).hex()

    def test_sparse_positives_skip_folds(self):
        # so the n_pos 3, k_folds 5 cases above skip two folds
        data = search_data(92, 3)
        children = np.random.SeedSequence(5).spawn(2)
        folds = forest.stratified_folds(data.y, 5,
                                        np.random.default_rng(children[0]))
        assert sum(data.y[f].sum() == 0 for f in folds) == 2

    @pytest.mark.parametrize("hp", [
        {"n_trees": 4},
        {"n_trees": 3, "bootstrap": False, "max_features": 2,
         "min_samples_leaf": 2},
    ])
    def test_each_fit_grows_its_own_forest(self, hp):
        # the fused grow gives each fit the trees, importances included,
        # that forest.fit grows on a copy of that fit's rows
        data = search_data(93, 16)
        fits = [np.arange(0, 40, 2), np.arange(1, 40, 3),
                np.arange(15, 40)]
        n_trees = hp["n_trees"]
        levels = forest._grow_forest(
            data.X, data.y, hp, fits,
            [np.random.default_rng(s) for s in range(3)])
        for f, rows in enumerate(fits):
            mine = [tuple(a[level[0] // n_trees == f] for a in level)
                    for level in levels]
            mine = [(tree - f * n_trees, *rest)
                    for tree, *rest in mine if len(tree)]
            got = forest.RandomForest(
                forest._preorder_trees(mine, n_trees, 6), hp, 6)
            copy = Dataset(data.X[rows], data.y[rows], data.feature_names,
                           [data.ids[i] for i in rows])
            assert_same_trees(got, forest.fit(copy, hp, seed=f))


def one_tree_json(**edits):
    """A one-feature, three-node forest json with the given tree arrays
    replaced."""
    tree = {"feature": [0, -1, -1], "threshold": [0.15, None, None],
            "left": [1, -1, -1], "right": [2, -1, -1],
            "proba": [None, 0.0, 1.0], "importance": [0.5]}
    tree.update(edits)
    return json.dumps({"hp": {}, "n_features": 1, "feature_names": ["f"],
                       "trees": [tree]})


class TestJsonChecks:
    def test_well_formed_tree_loads(self):
        tree = forest.forest_from_json(one_tree_json()).trees[0]
        X = np.array([[0.1], [0.2]])
        assert one_tree_proba(tree, X).tolist() == [0.0, 1.0]

    def test_cycle_is_rejected(self):
        # a walk from node 0 back to node 0 would never end
        with pytest.raises(ValueError, match="node 0"):
            forest.forest_from_json(one_tree_json(left=[0, -1, -1]))

    @pytest.mark.parametrize("edits", [
        {"right": [7, -1, -1]},                  # child out of range
        {"feature": [3, -1, -1]},                # feature out of range
        {"threshold": [None, None, None]},       # split without a threshold
        {"proba": [None, None, 1.0]},            # leaf without a proba
        {"proba": [None, 1.5, 1.0]},             # leaf proba above 1
        {"left": [1, -1]},                       # arrays of unequal length
        {"importance": [0.5, 0.5]},              # one importance too many
        {"feature": [], "threshold": [], "left": [], "right": [],
         "proba": []},                           # no node at all
        {"feature": [[0, -1, -1]], "threshold": [[0.15, None, None]],
         "left": [[1, -1, -1]], "right": [[2, -1, -1]],
         "proba": [[None, 0.0, 1.0]]},           # nested node arrays
    ])
    def test_broken_tree_is_rejected(self, edits):
        with pytest.raises(ValueError, match="tree 0"):
            forest.forest_from_json(one_tree_json(**edits))

    def test_forest_without_trees_is_rejected(self):
        payload = json.loads(one_tree_json())
        payload["trees"] = []
        with pytest.raises(ValueError, match="no trees"):
            forest.forest_from_json(json.dumps(payload))

    def test_forest_needs_trees(self):
        with pytest.raises(ValueError, match="the forest has no trees"):
            forest.RandomForest([], {}, 2)

    def test_feature_names_must_match(self):
        payload = json.loads(one_tree_json())
        payload["feature_names"] = ["f", "g"]
        with pytest.raises(ValueError, match="feature names"):
            forest.forest_from_json(json.dumps(payload))


# sha256 of forest_to_json(golden_forest()) and of its mdi_importance as
# little-endian float64 bytes
FOREST_SHA256 = \
    "885aec623561adeb0b6a9975f9f4a8381074bb02744bbcaf95b15f239f18f58c"
IMPORTANCE_SHA256 = \
    "4d23c0e8f8e1d6157a97d08f5df54bdf21ca2c0dc37fbf202c182d9b7403b3a8"


def golden_forest():
    """A seeded 144 x 10 forest of the cli-stages shape, with tied columns."""
    rng = np.random.default_rng(90)
    X = rng.normal(size=(144, 10))
    X[:, :3] = np.round(X[:, :3])
    y = (X[:, 4] + rng.normal(scale=0.8, size=144) > 0).astype(int)
    data = Dataset(X, y, [f"f{i}" for i in range(10)],
                   [str(i) for i in range(144)])
    return forest.fit(data, {"n_trees": 30, "max_depth": None,
                             "min_samples_leaf": 1, "max_features": "sqrt"},
                      seed=5)


def test_forest_digest_is_pinned():
    # the oracles replay the draws forest.fit documents; this pins the
    # bytes of one seeded forest and its importances
    rf = golden_forest()
    digest = hashlib.sha256(forest.forest_to_json(rf).encode()).hexdigest()
    assert digest == FOREST_SHA256
    importance = forest.mdi_importance(rf).astype("<f8").tobytes()
    assert hashlib.sha256(importance).hexdigest() == IMPORTANCE_SHA256
