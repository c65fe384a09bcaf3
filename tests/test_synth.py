from __future__ import annotations

import numpy as np
import pytest

from topostab import pipeline, synth

from oracles import reference_maxmin


class TestSphere:
    def test_noiseless_points_sit_on_unit_sphere(self):
        rng = np.random.default_rng(80)
        pts = synth.sample_sphere(500, 0.0, rng)
        assert pts.shape == (500, 3)
        norms = np.linalg.norm(pts, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_noise_perturbs(self):
        rng = np.random.default_rng(81)
        pts = synth.sample_sphere(200, 0.05, rng)
        norms = np.linalg.norm(pts, axis=1)
        assert norms.std() > 0.01
        assert abs(norms.mean() - 1.0) < 0.05


class TestFigure8:
    def test_noiseless_points_lie_on_the_two_circles(self):
        rng = np.random.default_rng(82)
        pts = synth.sample_figure8(400, 0.0, rng)
        assert pts.shape == (400, 3)
        np.testing.assert_allclose(pts[:, 2], 0.0, atol=1e-12)
        d_up = np.abs(np.hypot(pts[:, 0], pts[:, 1] - 1.0) - 1.0)
        d_dn = np.abs(np.hypot(pts[:, 0], pts[:, 1] + 1.0) - 1.0)
        assert (np.minimum(d_up, d_dn) < 1e-9).all()
        # both lobes drawn
        assert (d_up < 1e-9).any() and (d_dn < 1e-9).any()

    def test_lobes_meet_at_origin(self):
        rng = np.random.default_rng(83)
        pts = synth.sample_figure8(2000, 0.0, rng)
        nearest = np.linalg.norm(pts, axis=1).min()
        assert nearest < 0.1


class TestCorpus:
    def test_shape_clouds(self):
        clouds = synth.make_shape_clouds("sphere", 3, 50, 0.0, seed=0)
        assert [c.id for c in clouds] == \
            ["sphere_000", "sphere_001", "sphere_002"]
        assert all(c.score == synth.SPHERE_SCORE for c in clouds)
        assert all(c.points.shape == (50, 3) for c in clouds)
        # per-cloud seeds differ
        assert not np.array_equal(clouds[0].points, clouds[1].points)

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            synth.make_shape_clouds("torus", 1, 10, 0.0, seed=0)

    def test_toy_corpus_composition(self):
        corpus = synth.make_toy_corpus(4, 30, 0.05, seed=1)
        assert len(corpus) == 8
        assert [c.id for c in corpus] == sorted(c.id for c in corpus)
        scores = {c.id: c.score for c in corpus}
        assert scores["sphere_000"] == synth.SPHERE_SCORE
        assert scores["figure8_000"] == synth.FIGURE8_SCORE

    def test_deterministic(self):
        a = synth.make_toy_corpus(3, 25, 0.02, seed=5)
        b = synth.make_toy_corpus(3, 25, 0.02, seed=5)
        for ca, cb in zip(a, b):
            assert ca.id == cb.id
            np.testing.assert_array_equal(ca.points, cb.points)

    def test_seed_changes_points(self):
        a = synth.make_toy_corpus(2, 25, 0.02, seed=5)
        b = synth.make_toy_corpus(2, 25, 0.02, seed=6)
        assert not np.array_equal(a[0].points, b[0].points)


class TestMaxmin:
    def test_indices_sorted_unique_and_seeded_at_zero(self):
        rng = np.random.default_rng(84)
        pts = rng.normal(size=(40, 3))
        idx = synth.maxmin_indices(pts, 10)
        assert idx.shape == (10,)
        assert len(set(idx.tolist())) == 10
        assert np.array_equal(idx, np.sort(idx))
        assert 0 in idx

    def test_k_at_least_n_keeps_everything(self):
        rng = np.random.default_rng(85)
        pts = rng.normal(size=(7, 3))
        assert synth.maxmin_indices(pts, 7).tolist() == list(range(7))
        assert synth.maxmin_indices(pts, 99).tolist() == list(range(7))

    def test_spreads_better_than_prefix(self):
        # maxmin picks should cover a two-cluster set from both sides,
        # where the raw prefix stays inside the first cluster
        rng = np.random.default_rng(86)
        pts = np.vstack([rng.normal(size=(30, 3)),
                         rng.normal(size=(30, 3)) + 20])
        idx = synth.maxmin_indices(pts, 6)
        picked = pts[idx]
        assert (picked[:, 0] > 10).any() and (picked[:, 0] < 10).any()

    def test_subsample_matches_indices(self):
        rng = np.random.default_rng(87)
        pts = rng.normal(size=(25, 3))
        idx = synth.maxmin_indices(pts, 9)
        sample = pipeline.Sample(id="a", score=0.0, label="stable",
                                 points=pts, weights=np.arange(25.0))
        pipeline.farthest_point_subsample([sample], 9)
        np.testing.assert_array_equal(sample.points, pts[idx])
        np.testing.assert_array_equal(sample.weights, idx.astype(float))

    def test_stack_equals_one_cloud_at_a_time(self):
        rng = np.random.default_rng(88)
        stack = rng.normal(size=(6, 30, 3))
        # repeated points tie in distance, and a cloud of one repeated
        # point ties everywhere
        stack[1, 10:20] = stack[1, :10]
        stack[2] = stack[2, 0]
        stack[3] = np.round(stack[3])
        for k in (1, 4, 12, 29, 30, 40):
            got = synth.maxmin_indices(stack, k)
            assert got.shape == (6, min(k, 30))
            for cloud, idx in zip(stack, got):
                assert idx.tolist() == reference_maxmin(cloud, k).tolist()

    def test_subsample_groups_mixed_sizes(self):
        rng = np.random.default_rng(89)
        clouds = [rng.normal(size=(n, 3)) for n in (40, 25, 9, 40, 25, 12)]
        clouds[3][20:] = clouds[3][:20]
        samples = [pipeline.Sample(id=f"s{i}", score=0.0, label="stable",
                                   points=c, weights=np.arange(len(c)) + 0.5)
                   for i, c in enumerate(clouds)]
        pipeline.farthest_point_subsample(samples, 12)
        for s, cloud in zip(samples, clouds):
            idx = reference_maxmin(cloud, 12)
            np.testing.assert_array_equal(s.points, cloud[idx])
            np.testing.assert_array_equal(s.weights, idx + 0.5)

    def test_greedy_maximizes_min_distance_step(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        idx = synth.maxmin_indices(pts, 2)
        assert idx.tolist() == [0, 2]
