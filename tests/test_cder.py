from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from topostab import cder
from topostab.cder import CderModel, GaussianCoordinate
from topostab.errors import DataError, NoRegionsFound

from oracles import reference_cder_features, reference_cder_fit


def blob_set(rng, centers_by_label, n_clouds=8, n_points=30, spread=0.5):
    clouds, labels = [], []
    for label, center in centers_by_label.items():
        for _ in range(n_clouds):
            clouds.append(center + spread * rng.normal(size=(n_points, 2)))
            labels.append(label)
    return cder.assign_weights(clouds, labels)


class TestEntropy:
    def test_balanced_is_one(self):
        assert cder.entropy([0.5, 0.5], 2) == pytest.approx(1.0)
        assert cder.entropy([1.0, 1.0, 1.0], 3) == pytest.approx(1.0)

    def test_pure_is_zero(self):
        assert cder.entropy([1.0, 0.0], 2) == 0.0
        assert cder.entropy([0.0, 0.3, 0.0], 3) == 0.0

    def test_three_quarters(self):
        assert cder.entropy([0.75, 0.25], 2) == \
            pytest.approx(0.811278, abs=1e-6)

    def test_zero_mass_is_one(self):
        assert cder.entropy([0.0, 0.0], 2) == 1.0

    def test_scale_invariant(self):
        a = cder.entropy([3.0, 1.0], 2)
        b = cder.entropy([0.3, 0.1], 2)
        assert a == pytest.approx(b)


class TestAssignWeights:
    def test_point_weight_formula(self):
        clouds = [np.zeros((4, 2)), np.zeros((2, 2)), np.zeros((5, 2))]
        dset = cder.assign_weights(clouds, ["a", "a", "b"])
        # L=2; label a has 2 clouds, b has 1; the pool keeps cloud order
        want = [1 / (2 * 2 * 4)] * 4 + [1 / (2 * 2 * 2)] * 2 + \
            [1 / (2 * 1 * 5)] * 5
        assert dset.weights.tolist() == want

    def test_total_weight_is_one_on_random_sets(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            n_labels = int(rng.integers(2, 5))
            domain = [f"l{i}" for i in range(n_labels)]
            clouds, labels = [], []
            for label in domain:
                for _ in range(int(rng.integers(1, 6))):
                    m = int(rng.integers(1, 40))
                    clouds.append(rng.normal(size=(m, 2)))
                    labels.append(label)
            dset = cder.assign_weights(clouds, labels)
            total = sum(w.sum() for w in dset.weights)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_empty_cloud_kept_but_contributes_nothing(self):
        dset = cder.assign_weights(
            [np.zeros((3, 2)), np.zeros((0, 2)), np.zeros((3, 2))],
            ["a", "a", "b"])
        assert dset.points.shape == (6, 2)
        assert dset.label_idx.tolist() == [0, 0, 0, 1, 1, 1]
        # the empty cloud still counts toward N_a, so its share is lost
        assert dset.weights.sum() == pytest.approx(0.75)

    def test_domain_sorted(self):
        dset = cder.assign_weights([np.zeros((1, 2))] * 2, ["z", "a"])
        assert dset.domain == ["a", "z"]

    def test_single_label_rejected(self):
        with pytest.raises(DataError, match="^need at least two labels$"):
            cder.assign_weights([np.zeros((1, 2))] * 2, ["a", "a"])

    def test_domain_label_with_no_clouds_rejected(self):
        with pytest.raises(DataError, match="^label 'c' has no clouds$"):
            cder.assign_weights([np.zeros((1, 2))] * 2, ["a", "b"],
                                domain=["a", "b", "c"])

    def test_label_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            cder.assign_weights([np.zeros((1, 2))] * 2, ["a", "x"],
                                domain=["a", "b"])

    def test_pooled(self):
        dset = cder.assign_weights(
            [np.ones((2, 2)), np.zeros((0, 2)), 3 * np.ones((3, 2))],
            ["b", "b", "a"])
        pts, wts, idx = dset.pooled()
        assert pts.tolist() == [[1.0, 1.0]] * 2 + [[3.0, 3.0]] * 3
        assert wts.tolist() == [1 / (2 * 2 * 2)] * 2 + [1 / (2 * 1 * 3)] * 3
        assert idx.tolist() == [1, 1, 0, 0, 0]  # a=0, b=1 after sorting
        # the pool is built once and handed out without a copy
        assert all(a is b for a, b in zip((pts, wts, idx), dset.pooled()))

    def test_pool_matches_per_cloud_weights_bit_for_bit(self):
        rng = np.random.default_rng(57)
        for _ in range(30):
            sizes = rng.integers(0, 12, size=int(rng.integers(2, 9)))
            labels = [f"l{k % 3}" for k in range(len(sizes))]
            clouds = [rng.normal(size=(int(m), 2)) for m in sizes]
            dset = cder.assign_weights(clouds, labels)
            n = {l: labels.count(l) for l in dset.domain}
            want = [np.full(len(c), 1.0 / (len(dset.domain) * n[l] * len(c)))
                    for c, l in zip(clouds, labels) if len(c)]
            want_idx = [np.full(len(c), dset.domain.index(l))
                        for c, l in zip(clouds, labels) if len(c)]
            assert dset.weights.tobytes() == \
                np.concatenate([np.zeros(0)] + want).tobytes()
            assert dset.label_idx.tolist() == \
                np.concatenate([np.zeros(0, int)] + want_idx).tolist()
            assert dset.points.tobytes() == \
                np.concatenate([np.zeros((0, 2))] + clouds).tobytes()


class TestRegionEntropy:
    def test_inside_and_masses(self):
        rng = np.random.default_rng(58)
        dset = blob_set(rng, {"a": np.zeros(2), "b": np.full(2, 3.0)})
        center = np.array([0.5, 0.5])
        inside, masses = cder.region_entropy(
            dset, center, 4.0, np.arange(len(dset.points)))
        dist = np.linalg.norm(dset.points - center, axis=1)
        assert inside.tolist() == np.flatnonzero(dist <= 4.0).tolist()
        for k in range(2):
            pick = inside[dset.label_idx[inside] == k]
            assert masses[k] == pytest.approx(dset.weights[pick].sum())

    def test_candidates_give_the_same_region(self):
        rng = np.random.default_rng(59)
        dset = blob_set(rng, {"a": np.zeros(2), "b": np.full(2, 3.0)})
        center = np.array([0.5, 0.5])
        full = cder.region_entropy(dset, center, 2.0,
                                   np.arange(len(dset.points)))
        dist = np.linalg.norm(dset.points - center, axis=1)
        candidates = np.flatnonzero(dist <= 3.0)
        part = cder.region_entropy(dset, center, 2.0, candidates)
        assert part[0].tolist() == full[0].tolist()
        assert part[1].tobytes() == full[1].tobytes()


class TestLevelScan:
    def test_each_ball_as_measured_alone(self):
        rng = np.random.default_rng(66)
        dset = blob_set(rng, {"a": np.zeros(2), "b": np.full(2, 2.0),
                              "c": np.array([4.0, 0.0])})
        centers = dset.points[[0, 100, 200, 300, 0]]
        segments = [np.sort(rng.choice(len(dset.points), size, replace=False))
                    for size in (0, 1, 150, len(dset.points), 60)]
        scan = cder.scan_level(dset, centers, 1.5, np.concatenate(segments),
                               np.array([len(s) for s in segments]))
        start = 0
        for i, (center, segment) in enumerate(zip(centers, segments)):
            inside, masses = cder.region_entropy(dset, center, 1.5, segment)
            dist = np.linalg.norm(dset.points[segment] - center, axis=1)
            part = slice(start, start + len(segment))
            start += len(segment)
            assert (scan.ball[part] == i).all()
            assert segment[scan.inside[part]].tolist() == inside.tolist()
            assert segment[scan.near[part]].tolist() == \
                segment[dist <= 1.5 * cder.REGION_PAD].tolist()
            assert scan.masses[i].tobytes() == masses.tobytes()
            assert scan.totals[i] == masses.sum()

    @pytest.mark.parametrize("n_labels", [2, 3, 7, 8, 11])
    def test_row_entropies_are_entropy_bit_for_bit(self, n_labels):
        # the entropy of each row of a masses array is that of the row
        # alone, whose terms are added in order from 0.0
        rng = np.random.default_rng(67)
        masses = rng.random((400, n_labels)) * \
            (rng.random((400, n_labels)) < 0.6)
        masses[:, n_labels // 2] += 1e-3
        masses[:5] = 0.0
        masses[:5, 0] = 1.0     # pure rows
        masses[5:8] = 0.0       # empty rows
        got = cder.entropy(masses, n_labels)
        alone = [cder.entropy(row, n_labels) for row in masses]
        assert got.tolist() == alone
        want = []
        for row in masses:
            p = row[row > 0] / row.sum()
            acc = 0.0
            for term in (p * np.log(p)).tolist():
                acc += term
            want.append(-acc / math.log(n_labels) if len(p) else 1.0)
        assert alone == want


class TestFit:
    def test_separated_blobs(self):
        rng = np.random.default_rng(51)
        dset = blob_set(rng, {"a": np.zeros(2), "b": np.full(2, 10.0)})
        model = cder.fit(dset)
        assert len(model) > 0
        assert {c.label for c in model.coordinates} == {"a", "b"}
        for coord in model.coordinates:
            target = np.zeros(2) if coord.label == "a" else np.full(2, 10.0)
            assert np.linalg.norm(coord.mean - target) < 3.0
            assert coord.weight > 0
            eig = np.linalg.eigvalsh(coord.cov)
            assert (eig >= 1e-4 - 1e-12).all()

    def test_meta(self):
        rng = np.random.default_rng(52)
        dset = blob_set(rng, {"a": np.zeros(2), "b": np.full(2, 10.0)})
        model = cder.fit(dset, entropy_threshold=0.25, min_mass=0.02)
        assert model.meta["entropy_threshold"] == 0.25
        assert model.meta["min_mass"] == 0.02
        assert model.meta["cov_floor"] == 1e-4

    def test_deterministic(self):
        rng = np.random.default_rng(53)
        dset = blob_set(rng, {"a": np.zeros(2), "b": np.full(2, 10.0)})
        a = cder.models_to_json({0: cder.fit(dset)})
        b = cder.models_to_json({0: cder.fit(dset)})
        assert a == b

    def test_coincident_mixed_points_find_nothing(self):
        dset = cder.assign_weights(
            [np.zeros((1, 2)), np.zeros((1, 2))], ["a", "b"])
        with pytest.raises(NoRegionsFound):
            cder.fit(dset)

    def test_empty_pool_finds_nothing_before_a_tree(self, monkeypatch):
        dset = cder.assign_weights([np.zeros((0, 2))] * 2, ["a", "b"])

        def no_tree(points):
            raise AssertionError("a tree was built")
        monkeypatch.setattr(cder.covertree, "build", no_tree)
        with pytest.raises(NoRegionsFound, match="^no diagram points to "
                           "fit$"):
            cder.fit(dset)

    def test_min_mass_prunes_everything(self):
        rng = np.random.default_rng(54)
        dset = blob_set(rng, {"a": np.zeros(2), "b": np.full(2, 10.0)})
        # each blob holds mass 0.5, so no pure region can reach 0.9
        with pytest.raises(NoRegionsFound):
            cder.fit(dset, min_mass=0.9)

    def test_param_validation(self):
        rng = np.random.default_rng(55)
        dset = blob_set(rng, {"a": np.zeros(2), "b": np.full(2, 10.0)})
        with pytest.raises(ValueError):
            cder.fit(dset, entropy_threshold=0.0)
        with pytest.raises(ValueError):
            cder.fit(dset, entropy_threshold=1.0)
        with pytest.raises(ValueError):
            cder.fit(dset, min_mass=0.0)


def lattice_set(rng):
    """Integer lattice points, so that many distances from a region's
    center are exactly a power of two, labeled at random."""
    axis = np.arange(-8, 9, dtype=float)
    grid = np.array([[x, y] for x in axis for y in axis])
    clouds = [grid[rng.permutation(len(grid))[:40]] for _ in range(12)]
    return cder.assign_weights(clouds, ["a", "b"] * 6)


def power_of_two_set():
    """Points at distance exactly 2^j from the origin, the first pooled
    point and so the root's center, so they sit on the rims of the regions
    centered there."""
    radii = 2.0 ** np.arange(-3, 4)
    rim = np.concatenate([np.column_stack([radii, np.zeros_like(radii)]),
                          np.column_stack([np.zeros_like(radii), -radii])])
    a = [np.vstack([[0.0, 0.0], rim[k::2]]) for k in range(2)]
    b = [rim[k::2] + [32.0, 0.0] for k in range(2)]
    mixed = np.array([[-8.0, 0.0], [0.0, 8.0]])
    return cder.assign_weights(a + b + [mixed, mixed],
                               ["a", "a", "b", "b", "a", "b"])


class TestMatchesReferenceFit:
    def assert_same(self, dset, **params):
        got = cder.fit(dset, **params)
        want = reference_cder_fit(dset, **params)
        assert got.meta == want.meta
        assert len(got) == len(want)
        for g, w in zip(got.coordinates, want.coordinates):
            assert g.label == w.label
            assert g.mean.tobytes() == w.mean.tobytes()
            assert g.cov.tobytes() == w.cov.tobytes()
            assert np.float64(g.weight).tobytes() == \
                np.float64(w.weight).tobytes()

    def test_blob_sets(self):
        rng = np.random.default_rng(60)
        for spread in (0.5, 2.0, 5.0):
            dset = blob_set(rng, {"a": np.zeros(2), "b": np.full(2, 3.0),
                                  "c": np.array([6.0, 0.0])},
                            spread=spread)
            self.assert_same(dset)
            self.assert_same(dset, entropy_threshold=0.5, min_mass=0.001)

    def test_near_duplicates(self):
        rng = np.random.default_rng(61)
        near = rng.normal(size=(2, 2)) + rng.normal(size=(30, 1, 2)) * 1e-13
        clouds = np.vstack([near.reshape(-1, 2),
                            rng.normal(size=(60, 2))]).reshape(12, 10, 2)
        dset = cder.assign_weights(list(clouds), ["a", "b", "b"] * 4)
        self.assert_same(dset, entropy_threshold=0.6, min_mass=0.001)
        assert cder.covertree.build(dset.points).min_level < -40

    def test_points_on_region_rims(self):
        self.assert_same(lattice_set(np.random.default_rng(62)),
                         entropy_threshold=0.9, min_mass=0.001)
        self.assert_same(power_of_two_set(), min_mass=0.001)

    def test_child_region_at_the_parent_rim(self):
        # c is the root's child at level -1, 1e-12 inside the root's level-0
        # ball; x lies in c's region and 2e-12 inside the root's level-0
        # region of radius 2, so a scan that keeps less than the whole
        # parent region misses it
        root, c, x = [0.0, 0.0], [1 - 1e-12, 0.0], [2 - 2e-12, 1e-7]
        dset = cder.assign_weights([np.array([root, c]), np.array([x])],
                                   ["a", "b"])
        self.assert_same(dset, min_mass=1e-6)
        self.assert_same(dset, entropy_threshold=0.9, min_mass=1e-6)

    def test_integer_grid_pools(self):
        # on a grid of spacing 2^j, region radii 2^(l+1) and the distances
        # from a parent's center to its children's points are often exact,
        # so points sit on rims; the halves lean to a label, the middle
        # column holds both
        rng = np.random.default_rng(64)
        axis = np.arange(-6, 7, dtype=float)
        grid = np.array([[x, y] for x in axis for y in axis])
        sides = {"a": grid[grid[:, 0] <= 0], "b": grid[grid[:, 0] >= 0],
                 "c": grid}
        for spacing in (1.0, 0.25, 4.0):
            labels = ["a", "b", "c"] * 4
            clouds = [sides[label][rng.permutation(len(sides[label]))[:25]]
                      * spacing for label in labels]
            dset = cder.assign_weights(clouds, labels)
            self.assert_same(dset, entropy_threshold=0.7, min_mass=0.001)
            self.assert_same(dset, entropy_threshold=0.9, min_mass=0.001)

    def test_zero_mass_label_and_empty_clouds(self):
        # label c's only cloud is empty, so its mass is 0 in every region,
        # and a and b each have an empty cloud that still counts toward N_l
        rng = np.random.default_rng(65)
        empty = np.zeros((0, 2))
        clouds = [rng.normal(size=(30, 2)), empty,
                  rng.normal(size=(30, 2)) + 3.0, empty, empty,
                  rng.normal(size=(20, 2)) * 2.0]
        dset = cder.assign_weights(clouds, ["a", "a", "b", "b", "c", "b"])
        assert dset.n_labels == 3
        assert dset.weights[dset.label_idx == 2].sum() == 0
        self.assert_same(dset)
        self.assert_same(dset, entropy_threshold=0.5, min_mass=0.001)

    def test_subnormal_separations(self):
        # label a on distinct subnormal points, whose distances underflow
        # to 0 once squared; label b where the squares are subnormal; a
        # mixed cloud across both
        rng = np.random.default_rng(68)
        a = rng.integers(0, 40, size=(2, 20, 2)) * 5e-324
        b = rng.integers(0, 40, size=(2, 20, 2)) * 1e-160 + [1e-158, 0.0]
        mixed = np.vstack([a[0, :5], b[0, :5]])
        dset = cder.assign_weights([*a, *b, mixed], ["a", "a", "b", "b", "a"])
        self.assert_same(dset, min_mass=0.001)
        self.assert_same(dset, entropy_threshold=0.9, min_mass=0.001)

    @pytest.mark.parametrize("chunk", [1, 40, 300])
    def test_levels_scanned_in_short_runs(self, monkeypatch, chunk):
        # a level split into many runs of regions, most regions larger
        # than a run, gives the same coordinates
        monkeypatch.setattr(cder, "SCAN_CHUNK", chunk)
        rng = np.random.default_rng(69)
        self.assert_same(lattice_set(rng), entropy_threshold=0.9,
                         min_mass=0.001)
        self.assert_same(blob_set(rng, {"a": np.zeros(2),
                                        "b": np.full(2, 3.0)}, spread=1.5),
                         min_mass=0.001)

    def test_no_region_found(self):
        # every point carries both labels with equal mass, so the descent
        # reaches every leaf and no region is pure enough
        cloud = np.random.default_rng(63).normal(size=(30, 2))
        dset = cder.assign_weights([cloud, cloud], ["a", "b"])
        for fit in (cder.fit, reference_cder_fit):
            with pytest.raises(NoRegionsFound):
                fit(dset, min_mass=1e-6)


def features(models_by_dim, points_by_dim):
    """feature_matrix's row for one sample with the given points."""
    return cder.feature_matrix(models_by_dim, {"s": points_by_dim}, ["s"])[0]


def evaluate(model, cloud):
    """One model's feature values on one cloud, through feature_matrix."""
    return features({0: model}, {0: np.asarray(cloud, dtype=float)})


class TestEvaluate:
    def hand_model(self):
        coord = GaussianCoordinate(label="a", mean=np.zeros(2),
                                   cov=np.eye(2), weight=0.5)
        return CderModel(coordinates=[coord], meta={})

    def test_gaussian_at_mean(self):
        model = self.hand_model()
        assert evaluate(model, [[0.0, 0.0]])[0] == pytest.approx(1.0)

    def test_gaussian_at_unit_distance(self):
        model = self.hand_model()
        got = evaluate(model, [[1.0, 0.0]])[0]
        assert got == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_mean_over_cloud(self):
        model = self.hand_model()
        got = evaluate(model, [[0.0, 0.0], [1.0, 0.0]])[0]
        assert got == pytest.approx((1.0 + math.exp(-0.5)) / 2)

    def test_empty_cloud_gives_zeros(self):
        model = self.hand_model()
        assert evaluate(model, np.zeros((0, 2))).tolist() == [0.0]

    def test_anisotropic_covariance(self):
        coord = GaussianCoordinate(label="a", mean=np.zeros(2),
                                   cov=np.diag([4.0, 1.0]), weight=1.0)
        model = CderModel(coordinates=[coord], meta={})
        along = evaluate(model, [[2.0, 0.0]])[0]
        across = evaluate(model, [[0.0, 2.0]])[0]
        assert along == pytest.approx(math.exp(-0.5))
        assert across == pytest.approx(math.exp(-2.0))
        assert along > across


def two_dim_models():
    c0 = GaussianCoordinate(label="a", mean=np.zeros(2),
                            cov=np.eye(2), weight=1.0)
    c1 = GaussianCoordinate(label="b", mean=np.ones(2),
                            cov=np.eye(2), weight=1.0)
    return {0: CderModel(coordinates=[c0], meta={}),
            1: CderModel(coordinates=[c1, c0], meta={})}


class TestVectorize:
    def test_concatenation_order(self):
        models = two_dim_models()
        vec = features(models, {0: np.zeros((1, 2)), 1: np.zeros((0, 2))})
        assert vec.shape == (3,)
        assert vec[0] == pytest.approx(1.0)
        assert vec[1] == 0.0 and vec[2] == 0.0

    def test_missing_dim_treated_as_empty(self):
        models = two_dim_models()
        vec = features(models, {0: np.zeros((1, 2))})
        assert vec.tolist() == [1.0, 0.0, 0.0]

    def test_no_models(self):
        assert features({}, {}).shape == (0,)

    def test_feature_names(self):
        models = two_dim_models()
        assert cder.feature_names(models) == \
            ["cder_h0_0_a", "cder_h1_0_b", "cder_h1_1_a"]


class TestFeaturesMatchReference:
    """feature_matrix against the one-coordinate-at-a-time formula of
    reference_cder_features, bit for bit."""

    def assert_same(self, models, points_by_id, ids):
        got = cder.feature_matrix(models, points_by_id, ids)
        want = reference_cder_features(models, points_by_id, ids)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        return got

    def test_diagram_pool_fits(self):
        h0, h1, _ = diagram_clouds()
        h0_set, h1_set = diagram_pools()
        models = {0: cder.fit(h0_set), 1: cder.fit(h1_set)}
        points = {k: {0: a, 1: b} for k, (a, b) in enumerate(zip(h0, h1))}
        got = self.assert_same(models, points, range(len(points)))
        assert got.shape == (20, len(models[0]) + len(models[1]))

    def test_hand_made_models(self):
        rng = np.random.default_rng(92)
        models = two_dim_models()
        models[2] = CderModel(coordinates=[], meta={})    # no coordinate
        models[3] = CderModel(coordinates=[GaussianCoordinate(
            label="c", mean=[0.5, -0.2], cov=[[2.0, 0.3], [0.3, 0.5]],
            weight=0.4)], meta={})
        points = {
            "full": {d: rng.normal(size=(7 + d, 2)) for d in range(4)},
            "empty": {0: np.zeros((0, 2)), 1: rng.normal(size=(3, 2)),
                      3: np.zeros((0, 2))},
            "missing": {1: rng.normal(size=(5, 2))},
            "none": {},
        }
        got = self.assert_same(models, points, sorted(points))
        # rows empty, full, missing, none; columns h0 c0, h1 c1, h1 c0, h3
        assert (got > 0).tolist() == [[False, True, True, False],
                                      [True, True, True, True],
                                      [False, True, True, False],
                                      [False, False, False, False]]

    def test_no_models_gives_no_columns(self):
        points = {"x": {0: np.ones((2, 2))}, "y": {}}
        got = self.assert_same({}, points, ["x", "y"])
        assert got.shape == (2, 0)

    def test_no_ids_gives_no_rows(self):
        got = self.assert_same(two_dim_models(), {}, [])
        assert got.shape == (0, 3)


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(56)
        dset = blob_set(rng, {"a": np.zeros(2), "b": np.full(2, 10.0)})
        models = {0: cder.fit(dset), 1: cder.fit(dset, min_mass=0.05)}
        text = cder.models_to_json(models)
        back = cder.models_from_json(text)
        assert sorted(back) == [0, 1]
        for dim in models:
            assert back[dim].meta == models[dim].meta
            assert len(back[dim]) == len(models[dim])
            for got, want in zip(back[dim].coordinates,
                                 models[dim].coordinates):
                assert got.label == want.label
                np.testing.assert_allclose(got.mean, want.mean)
                np.testing.assert_allclose(got.cov, want.cov)
                assert got.weight == pytest.approx(want.weight)
        assert cder.models_to_json(back) == text

    def test_text_shape(self):
        coord = GaussianCoordinate(label="a", mean=np.zeros(2),
                                   cov=np.eye(2), weight=1.0)
        text = cder.models_to_json(
            {0: CderModel(coordinates=[coord], meta={"min_mass": 0.01})})
        assert text.endswith("\n")
        assert '"dims"' in text and '"0"' in text


# sha256 of models_to_json({0: fit(h0 pool), 1: fit(h1 pool)}) for the
# seeded pools of diagram_pools(); it pins the coordinates the cover tree
# leads the descent to, bit for bit
MODELS_SHA256 = \
    "c9aee6017321b24258345f4762a19d94995ebc724c06bc6c62f7e08c725bb666"


def diagram_clouds():
    """Twenty seeded H0 clouds of (0, persistence) rounded to 3 decimals,
    so with exact ties and duplicates, twenty H1 clouds of (birth,
    persistence) floats, and their labels, shaped like transformed
    diagrams."""
    rng = np.random.default_rng(91)
    labels = ["a", "b"] * 10
    h0 = [np.column_stack([np.zeros(40),
                           np.round(rng.gamma(2.0, 0.4 + 0.3 * (k % 2),
                                              size=40), 3)])
          for k in range(20)]
    h1 = [np.column_stack([rng.uniform(0.5, 1.5 + 0.5 * (k % 2), size=30),
                           rng.gamma(1.5, 0.2, size=30)])
          for k in range(20)]
    return h0, h1, labels


def diagram_pools():
    """The two-label pools of the clouds of `diagram_clouds`."""
    h0, h1, labels = diagram_clouds()
    return (cder.assign_weights(h0, labels), cder.assign_weights(h1, labels))


def test_model_digest_is_pinned():
    h0, h1 = diagram_pools()
    text = cder.models_to_json({0: cder.fit(h0), 1: cder.fit(h1)})
    assert hashlib.sha256(text.encode()).hexdigest() == MODELS_SHA256
