from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from topostab import forest
from topostab.errors import ConfigError, SingleClass
from topostab.forest import Dataset

from oracles import gini


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

    def test_subset(self):
        d = Dataset(np.arange(8).reshape(4, 2), [0, 1, 0, 1],
                    ["a", "b"], list("wxyz"))
        s = d.subset([2, 0])
        assert s.X.tolist() == [[4.0, 5.0], [0.0, 1.0]]
        assert s.y.tolist() == [0, 0]
        assert s.ids == ["y", "w"]


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
        with pytest.raises(SingleClass):
            forest.fit(data, {"n_trees": 1})

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
        with pytest.raises(SingleClass):
            forest.random_search_cv(data, self.space(), n_iter=1, k_folds=4)

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
    def test_round_trip(self):
        rng = np.random.default_rng(72)
        data = make_data(rng, n=60)
        rf = forest.fit(data, {"n_trees": 5, "max_depth": 4}, seed=0)
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
