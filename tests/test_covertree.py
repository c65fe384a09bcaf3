from __future__ import annotations

import numpy as np
import pytest

from topostab import covertree
from topostab.covertree import _distance, build, descend
from topostab.errors import DataError

from oracles import (check_axioms, cover_ancestor_at, cover_members, level_set,
                     reference_cover_tree)


class TestBuild:
    def test_single_point(self):
        tree = build([[0.0, 0.0]])
        assert len(tree.points) == 1
        assert check_axioms(tree).ok

    def test_duplicates_collapse_with_multiplicity(self):
        pts = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        tree = build(pts)
        assert len(tree.points) == 2

    def test_empty_raises(self):
        with pytest.raises(DataError, match="^cover tree needs at least "
                           "one point$"):
            build(np.zeros((0, 2)))

    @pytest.mark.parametrize("shape", [(), (2, 2, 2), (1, 3, 2, 1), (3, 0),
                                       (0, 0)])
    def test_bad_shape_raises(self, shape):
        with pytest.raises(ValueError, match="shape"):
            build(np.zeros(shape))

    def test_non_finite_raises(self):
        # a data fault, where a bad shape is a ValueError
        for bad in (np.nan, np.inf):
            with pytest.raises(DataError, match="finite"):
                build([[0.0, 0.0], [bad, 1.0]])
        # finite points whose distance overflows once squared
        for pts in ([[1e308, 0.0], [-1e308, 0.0]],
                    [[0.0, 0.0], [1.0, 1.0], [0.0, 1e200]],
                    [[0.0, 0.0, 0.0], [1e160, 1e160, 1e160]]):
            with pytest.raises(DataError, match="finite"):
                build(pts)

    def test_deterministic(self):
        rng = np.random.default_rng(40)
        pts = rng.normal(size=(80, 2))
        a, b = build(pts), build(pts)
        assert a.top.tolist() == b.top.tolist()
        assert a.parent.tolist() == b.parent.tolist()

    def test_axioms_on_varied_inputs(self):
        rng = np.random.default_rng(41)
        inputs = [
            rng.normal(size=(120, 2)),
            rng.normal(size=(60, 2)) * 100,          # spread out
            rng.normal(size=(60, 2)) * 0.001,        # tightly packed
            np.vstack([rng.normal(size=(40, 2)),     # two clusters
                       rng.normal(size=(40, 2)) + 50]),
            np.column_stack([np.arange(30) * 3.0,    # collinear, spacing 3
                             np.zeros(30)]),
        ]
        for pts in inputs:
            report = check_axioms(build(pts))
            assert report.ok, report.message

    def test_root_region_contains_everything(self):
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(100, 3)) * 5
        tree = build(pts)
        d = np.linalg.norm(tree.points - tree.points[0], axis=1)
        assert (d < 2.0 ** (tree.max_level + 1)).all()

    def test_distance_equals_numpy_norm_bit_for_bit(self):
        rng = np.random.default_rng(50)
        for k in range(1, 8):
            scales = 10.0 ** rng.integers(-13, 7, size=(400, 1))
            pts = rng.normal(size=(400, k)) * scales
            want = np.linalg.norm(pts - pts[0], axis=1)
            got = [_distance(row, pts[0].tolist()) for row in pts.tolist()]
            assert np.array(got).tobytes() == want.tobytes()

    def test_equals_reference_insertion(self):
        rng = np.random.default_rng(49)
        near = rng.normal(size=(2, 2)) + rng.normal(size=(30, 1, 2)) * 1e-13
        inputs = [
            rng.normal(size=200),
            rng.normal(size=(300, 2)) * 3,
            rng.normal(size=(200, 3)),
            np.repeat(rng.normal(size=(40, 2)), 3, axis=0),
            np.vstack([near.reshape(-1, 2), rng.normal(size=(50, 2))]),
        ]
        # every distance on these is a power of two or far from one; where
        # it is one, build must still make the reference's choices
        lattice = np.array([[x, y] for x in range(8) for y in range(8)],
                           dtype=float)
        powers = [
            lattice,
            rng.permutation(lattice * 0.5),
            np.column_stack([2.0 ** np.arange(-12, 13), np.zeros(25)]),
            # distinct rows at distance 0: a top level of -1075
            np.array([[0.0, 0.0], [-0.0, 0.0], [1.0, 0.0], [-0.0, -0.0]]),
        ]
        # diagram-shaped: an H0 pool of (0, persistence) with exact ties and
        # duplicates, and a pool deep enough that nodes hold several child
        # groups
        h0 = np.column_stack([np.zeros(400),
                              np.round(rng.gamma(2.0, 0.5, size=400), 3)])
        pool = rng.normal(size=(1500, 2)) * rng.gamma(1.0, 1.0, (1500, 1))
        for pts in inputs + powers + [h0, pool]:
            tree, ref = build(pts), reference_cover_tree(pts)
            assert tree.points.tobytes() == ref.points.tobytes()
            assert tree.top.tolist() == ref.top.tolist()
            assert tree.parent.tolist() == ref.parent.tolist()
            assert {(q, level): kids for q, groups in enumerate(tree.groups)
                    for level, kids in groups} == ref.children
            assert {q: groups[-1][0] for q, groups in enumerate(tree.groups)
                    if groups} == ref.min_child_level
            assert tree.max_level == ref.max_level
            # the dicts cannot see group order: levels strictly decrease,
            # and each kid sits at its group's level below that node
            for q, groups in enumerate(tree.groups):
                levels = [level for level, _ in groups]
                assert levels == sorted(set(levels), reverse=True)
                for level, kids in groups:
                    assert (tree.top[kids] == level).all()
                    assert (tree.parent[kids] == q).all()
        deep = build(inputs[-1])
        assert deep.max_level - deep.min_level > 40
        assert len(build(h0).points) < len(h0)
        assert max(len(groups) for groups in build(pool).groups) >= 3

    def assert_reference_tree(self, pts):
        tree, ref = build(pts), reference_cover_tree(pts)
        assert tree.points.tobytes() == ref.points.tobytes()
        assert tree.top.tolist() == ref.top.tolist()
        assert tree.parent.tolist() == ref.parent.tolist()
        assert {(q, level): kids for q, groups in enumerate(tree.groups)
                for level, kids in groups} == ref.children
        assert tree.max_level == ref.max_level
        return tree

    @pytest.mark.parametrize("spacing", [1.0, 0.125, 8.0])
    def test_integer_grids_equal_the_reference(self, spacing):
        # the insert compares distances against 2^top and 2^(level+2)
        # instead of computing levels; on a grid many distances are
        # exactly such a power of two
        rng = np.random.default_rng(51)
        axis = np.arange(-7, 8, dtype=float)
        grid = np.array([[x, y] for x in axis for y in axis]) * spacing
        self.assert_reference_tree(grid)
        self.assert_reference_tree(rng.permutation(grid))
        self.assert_reference_tree(rng.permutation(grid)[:, :1].ravel())

    def test_subnormal_separations_equal_the_reference(self):
        rng = np.random.default_rng(52)
        # distinct subnormal points: every distance underflows to 0 once
        # squared, so each top is -1075
        tiny = rng.integers(0, 30, size=(40, 2)) * 5e-324
        tree = self.assert_reference_tree(tiny)
        assert len(tree.points) > 1 and tree.min_level == -1075
        # subnormal squares; along the line they are exact, k^2 * 2^-1074,
        # so the distances are exact multiples of 2^-537, the smallest
        # nonzero distance a sqrt gives
        self.assert_reference_tree(rng.integers(0, 30, size=(40, 2)) * 1e-160)
        # deeper, the rounding of a squared gap is so coarse that a point
        # past the best distance in one coordinate can measure nearer: the
        # sweep must not stop at such a gap (this draw has one)
        deep = np.random.default_rng(1).integers(0, 30, size=(40, 2))
        self.assert_reference_tree(deep * 1e-162)
        line = np.column_stack([np.arange(40) * 2.0 ** -537, np.zeros(40)])
        tree = self.assert_reference_tree(rng.permutation(line))
        assert tree.min_level == -537

    def test_swapped_columns_give_the_same_tree(self):
        # the insert sweeps the column with the larger median gap, so
        # swapping the columns sweeps the other one; dx*dx + dy*dy is
        # commutative, so the tree must not change
        rng = np.random.default_rng(54)
        inputs = [
            rng.normal(size=(120, 2)),
            rng.normal(size=(60, 2)) * [100.0, 0.001],
            np.vstack([rng.normal(size=(40, 2)),
                       rng.normal(size=(40, 2)) + 50]),
            np.column_stack([np.arange(30) * 3.0, np.zeros(30)]),
            np.column_stack([np.zeros(400),
                             np.round(rng.gamma(2.0, 0.5, size=400), 3)]),
            rng.normal(size=(1500, 2)) * rng.gamma(1.0, 1.0, (1500, 1)),
        ]
        for pts in inputs:
            gaps = np.sort(np.diff(np.sort(pts, axis=0), axis=0), axis=0)
            assert gaps[len(pts) // 2 - 1, 0] != gaps[len(pts) // 2 - 1, 1]
            tree = self.assert_reference_tree(pts)
            swapped = self.assert_reference_tree(pts[:, ::-1])
            assert swapped.top.tolist() == tree.top.tolist()
            assert swapped.parent.tolist() == tree.parent.tolist()
            assert swapped.groups == tree.groups

    def test_sweep_worst_cases_equal_the_reference(self):
        rng = np.random.default_rng(55)
        # a thin band with one far outlier: the outlier stretches the
        # band's range across, not its median gap
        band = np.column_stack([rng.uniform(0, 100, 600),
                                rng.normal(size=600) * 0.05])
        band[rng.integers(600)] = [50.0, 1e5]
        # two parallel lines: every point shares its y with half the pool
        lines = np.vstack([np.column_stack([rng.uniform(0, 50, 300),
                                            np.full(300, y)])
                           for y in (0.0, 3.0)])
        # an integer lattice: every point shares both keys with a whole row
        lattice = np.array([[x, y] for x in range(45) for y in range(45)],
                           dtype=float)
        for pts in (band, rng.permutation(lines), lattice):
            self.assert_reference_tree(pts)

    def test_a_long_tight_chain_is_checked_exactly(self, monkeypatch):
        # each step is just under 2^(l+1) past the last, so down a path of
        # about 40 levels the rounding margin outgrows the room the slack
        # bound certifies; the insert must then replay the reach tests
        calls = []
        reachable = covertree._reachable

        def spy(pts, top, parent, q, k):
            calls.append((q, k))
            return reachable(pts, top, parent, q, k)

        monkeypatch.setattr(covertree, "_reachable", spy)
        steps = 2.0 ** -np.arange(45) - np.spacing(64.0)
        chain = np.concatenate([[0.0, 64.0], 64.0 + np.cumsum(steps)])
        tree = self.assert_reference_tree(chain)
        assert tree.parent.tolist() == [-1, *range(len(chain) - 1)]
        assert calls


class TestQueries:
    def test_ancestor_of_self_at_own_level(self):
        rng = np.random.default_rng(43)
        tree = build(rng.normal(size=(40, 2)))
        for q in range(len(tree.points)):
            assert cover_ancestor_at(tree, q, int(tree.top[q])) == q

    def test_level_sets_nest(self):
        rng = np.random.default_rng(44)
        tree = build(rng.normal(size=(70, 2)))
        for level in range(tree.min_level, tree.max_level):
            assert set(level_set(tree, level + 1)) <= \
                set(level_set(tree, level))

    def test_members_partition_at_each_level(self):
        rng = np.random.default_rng(45)
        tree = build(rng.normal(size=(50, 2)))
        n = len(tree.points)
        for level in range(tree.min_level, tree.max_level + 1):
            nodes = level_set(tree, level)
            claimed = []
            for node in nodes:
                claimed.extend(cover_members(tree, node, level))
            assert sorted(claimed) == list(range(n))


class TestDescend:
    def test_children_plus_self_last(self):
        rng = np.random.default_rng(46)
        tree = build(rng.normal(size=(30, 2)))
        kids = descend(tree, 0, tree.max_level)
        assert kids, "root of a 30-point tree has structure below"
        assert kids[-1] == 0
        assert all(tree.top[c] == tree.max_level - 1 for c in kids[:-1])

    def test_leaf_yields_nothing(self):
        rng = np.random.default_rng(47)
        tree = build(rng.normal(size=(30, 2)))
        leaf = int(np.argmin(tree.top))
        level = int(tree.top[leaf])
        # walk down through pure self-descents until the tree is exhausted
        for _ in range(200):
            nxt = descend(tree, leaf, level)
            if not nxt:
                break
            leaf, level = nxt[-1], level - 1
        else:
            pytest.fail("descent never terminated")

    def test_full_descent_visits_every_point(self):
        rng = np.random.default_rng(48)
        tree = build(rng.normal(size=(40, 2)))
        seen = set()
        queue = [(0, tree.max_level)]
        while queue:
            node, level = queue.pop()
            seen.add(node)
            queue.extend((c, level - 1) for c in descend(tree, node, level))
        assert seen == set(range(len(tree.points)))
