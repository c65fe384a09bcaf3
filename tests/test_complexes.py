from __future__ import annotations

import gc
import re
import warnings
import weakref

import numpy as np
import pytest
from scipy.spatial import ConvexHull, Delaunay, QhullError

from topostab import complexes
from topostab.complexes import (_ortho_ball, _ortho_balls, _top_cells,
                                _unique_rows, build_rips,
                                build_weighted_alpha, validate_filtration)
from topostab.errors import DataError
from topostab.persistence import reduce

from oracles import (brute_rips_simplices, complex_from_text,
                     complex_from_values, complex_rows, complex_to_text,
                     complex_values, filtration_order,
                     reference_lower_hull_cells, reference_rips,
                     reference_weighted_alpha)


class TestFilteredComplex:
    def test_from_values_sorts_and_rejects_repeats(self):
        fc = complex_from_values({(2, 0, 1): 1.5})
        assert fc.simplices[2].tolist() == [[0, 1, 2]]
        assert complex_values(fc) == {(0, 1, 2): 1.5}
        with pytest.raises(ValueError):
            complex_from_values({(0, 0, 1): 2.0})

    def test_filtration_order(self):
        fc = complex_from_values({
            (1, 2): 1.0, (2,): 0.0, (0, 1): 1.0, (1,): 0.0, (0,): 0.0})
        # rows are lexicographic, so a stable argsort of the values
        # breaks ties by vertex tuple
        assert fc.simplices[0].tolist() == [[0], [1], [2]]
        assert fc.simplices[1].tolist() == [[0, 1], [1, 2]]
        assert np.argsort(fc.values[1], kind="stable").tolist() == [0, 1]
        assert len(fc) == 5 and fc.max_dim == 1

    def test_faces_index_the_dimension_below(self):
        fc = complex_from_values({
            (0,): 0.0, (1,): 0.0, (2,): 0.0, (0, 1): 1.0, (1, 2): 1.0,
            (0, 1, 2): 2.0})
        # faces in combinations order: without vertex 1, then vertex 0
        assert fc.faces(1).tolist() == [[0, 1], [1, 2]]
        # (0, 1) is row 0, (0, 2) is absent, (1, 2) is row 1
        assert fc.faces(2).tolist() == [[0, -1, 1]]

    def test_text_round_trip(self):
        fc = build_rips(np.random.default_rng(0).normal(size=(6, 3)),
                        max_scale=2.0, max_dim=2)
        back = complex_from_text(complex_to_text(fc))
        assert complex_values(back) == complex_values(fc)

    def test_from_text_reports_line(self):
        with pytest.raises(DataError, match="^line 2: "):
            complex_from_text("0 0 0.0\n1 0 oops 1.0\n")

    def test_validate_catches_missing_face(self):
        fc = complex_from_values({(0,): 0.0, (1,): 0.0,
                                  (0, 1, 2): 1.0})
        with pytest.raises(DataError, match=re.escape(
                "face (0, 1) of (0, 1, 2) missing")):
            validate_filtration(fc)

    def test_validate_catches_value_inversion(self):
        # the constructor does not check monotonicity; validation does
        fc = complex_from_values({(0,): 0.0, (1,): 0.0,
                                  (0, 1): -1.0})
        with pytest.raises(DataError, match=re.escape(
                "face (0,) at 0.0 above coface (0, 1) at -1.0")):
            validate_filtration(fc)


class TestRips:
    def test_triangle_values(self):
        pts = np.array([[0.0, 0, 0], [3.0, 0, 0], [0.0, 4.0, 0]])
        values = complex_values(build_rips(pts, max_scale=10.0, max_dim=2))
        assert values[(0,)] == 0.0
        assert values[(0, 1)] == 3.0
        assert values[(0, 2)] == 4.0
        assert values[(1, 2)] == 5.0
        assert values[(0, 1, 2)] == 5.0

    def test_max_scale_is_inclusive(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        assert (0, 1) in complex_values(build_rips(pts, 1.0, 1))
        assert (0, 1) not in complex_values(build_rips(pts, 0.999, 1))

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(1, 10))
            pts = rng.normal(size=(n, 3))
            scale = float(rng.uniform(0.5, 3.0))
            fc = build_rips(pts, max_scale=scale, max_dim=3)
            want = brute_rips_simplices(pts, scale, 3)
            got = complex_values(fc)
            assert set(got) == set(want)
            for s, v in want.items():
                assert got[s] == pytest.approx(v, abs=1e-12)

    def test_always_valid_filtration(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(15, 3))
        validate_filtration(build_rips(pts, max_scale=1.5, max_dim=3))

    def test_empty_and_bad_params(self):
        with pytest.raises(DataError, match="^Rips input has no points$"):
            build_rips(np.zeros((0, 3)), 1.0, 1)
        with pytest.raises(ValueError):
            build_rips(np.zeros((2, 3)), -1.0, 1)
        with pytest.raises(ValueError):
            build_rips(np.zeros((2, 3)), 1.0, -1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_is_a_data_error(self, bad):
        # not an isolated extra vertex, and no RuntimeWarning on the way
        pts = np.array([[bad, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError,
                               match="^a coordinate is not finite$"):
                build_rips(pts, 1.5, 2)

    def test_nan_max_scale_is_a_value_error(self):
        with pytest.raises(ValueError, match="^max_scale must be positive"):
            build_rips(np.zeros((2, 3)), np.nan, 1)

    def test_max_dim_zero_is_vertices_only(self):
        fc = build_rips(np.random.default_rng(1).normal(size=(5, 3)),
                        max_scale=10.0, max_dim=0)
        assert len(fc) == 5 and fc.max_dim == 0

    @pytest.mark.parametrize("seed, n, grid", [
        (15, 40, False), (16, 25, True), (17, 60, False)])
    def test_equals_reference_expansion(self, seed, n, grid):
        rng = np.random.default_rng(seed)
        pts = rng.integers(0, 4, size=(n, 2)).astype(float) if grid \
            else rng.normal(size=(n, 3))
        for max_dim in (0, 1, 2, 3):
            for scale in (0.7, 1.5):
                got = complex_values(build_rips(pts, scale, max_dim))
                want = reference_rips(pts, scale, max_dim)
                assert _hex(got) == _hex(want)

    def test_chunked_enumeration_is_unchanged(self, monkeypatch):
        pts = np.random.default_rng(18).normal(size=(30, 3))
        whole = complex_values(build_rips(pts, 1.6, 3))
        # chunks of one and of three rows: 30 and 90 mask entries
        for entries in (1, 90):
            monkeypatch.setattr(complexes, "CHUNK_ENTRIES", entries)
            assert _hex(complex_values(build_rips(pts, 1.6, 3))) == \
                _hex(whole)

    @pytest.mark.parametrize("rows_per_chunk", [None, 1, 3])
    def test_face_tables_equal_faces_of_the_explicit_rows(
            self, monkeypatch, rows_per_chunk):
        # integer grids repeat points and tie values
        rng = np.random.default_rng(27)
        for n, grid in ((6, True), (16, True), (30, True), (9, False),
                        (20, False), (40, False)):
            pts = rng.integers(0, 4, size=(n, 2)).astype(float) if grid \
                else rng.normal(size=(n, 3))
            if rows_per_chunk:
                monkeypatch.setattr(complexes, "CHUNK_ENTRIES",
                                    rows_per_chunk * n)
            for max_dim in (1, 2, 3, 4):
                fc = build_rips(pts, 1.5, max_dim)
                # the build hands over every table, the top's included
                tables = dict(fc._faces)
                assert sorted(tables) == list(range(1, fc.max_dim + 1))
                want = complex_from_values(reference_rips(pts, 1.5, max_dim))
                assert want.max_dim == fc.max_dim
                for d, table in tables.items():
                    assert np.array_equal(table, want.faces(d)), (n, d)

    @pytest.mark.parametrize("rows_per_chunk", [None, 1, 3])
    def test_first_is_the_first_coface_in_filtration_order(
            self, monkeypatch, rows_per_chunk):
        # integer grids tie many values, which the filtration order breaks
        # by the lexicographic order of the cofaces
        rng = np.random.default_rng(19)
        for n in (6, 16, 30):
            pts = rng.integers(0, 4, size=(n, 2)).astype(float)
            if rows_per_chunk:
                monkeypatch.setattr(complexes, "CHUNK_ENTRIES",
                                    rows_per_chunk * n)
            for max_dim in (1, 2, 3):
                fc = build_rips(pts, 2.0, max_dim)
                first = {}
                for s, _ in filtration_order(reference_rips(pts, 2.0,
                                                            max_dim)):
                    for v in s if len(s) == max_dim + 1 else ():
                        first.setdefault(tuple(u for u in s if u != v), v)
                assert first, (n, max_dim)
                # the k of each (max_dim - 1)-row's lowest-ranked coface
                order = np.argsort(fc.values[max_dim], kind="stable")
                rank = np.empty_like(order)
                rank[order] = np.arange(len(order))
                got, _ = fc.coboundary(max_dim - 1, rank)
                top = complex_rows(fc)[max_dim][order].tolist()
                rows = fc.simplices[max_dim - 1].tolist()
                assert [-1 if j < 0 else max(set(top[j]) - set(r))
                        for j, r in zip(got.tolist(), rows)] == \
                    [first.get(tuple(r), -1) for r in rows]

    def test_sixteen_points_build_the_full_simplex_at_max_dim_15(self):
        # every one of the 2^16 - 1 vertex subsets is a simplex; the top,
        # the one 15-simplex, is held as its value and face table
        pts = np.random.default_rng(20).normal(size=(16, 3))
        fc = build_rips(pts, 100.0, 15)
        assert len(fc) == 2 ** 16 - 1 and fc.max_dim == 15
        got = reduce(fc)[:14]
        want = reduce(build_rips(pts, 100.0, 14), stop=14)
        assert [d.tobytes() for d in got] == [d.tobytes() for d in want]

    def test_complex_freed_without_garbage_collection(self):
        pts = np.random.default_rng(14).normal(size=(12, 3))
        gc.disable()
        try:
            fc = build_rips(pts, max_scale=1.5, max_dim=2)
            ref = weakref.ref(fc)
            del fc
            assert ref() is None
        finally:
            gc.enable()


def _alpha(points, radii, max_dim=3):
    return build_weighted_alpha(points, radii, max_dim=max_dim)


class TestWeightedAlphaSmallCases:
    def test_single_point(self):
        fc = _alpha([[0.0, 0, 0]], [0.5])
        assert complex_values(fc) == {(0,): -0.25}

    def test_two_points_closed_form(self):
        # orthocenter at x = (d^2 + w_p - w_q) / (2 d) from p
        d, rp, rq = 2.0, 0.5, 0.8
        wp, wq = rp ** 2, rq ** 2
        values = complex_values(_alpha([[0.0, 0, 0], [d, 0, 0]], [rp, rq]))
        x = (d * d + wp - wq) / (2 * d)
        assert values[(0,)] == pytest.approx(-wp)
        assert values[(1,)] == pytest.approx(-wq)
        assert values[(0, 1)] == pytest.approx(x * x - wp, abs=1e-12)

    def test_unweighted_edge_is_half_distance_squared(self):
        fc = _alpha([[0.0, 0, 0], [3.0, 0, 0]], [0.0, 0.0])
        assert complex_values(fc)[(0, 1)] == pytest.approx(2.25)

    def test_regular_tetrahedron_values(self):
        # vertices of a regular tetrahedron with edge a = 2*sqrt(2)
        pts = np.array([[1.0, 1, 1], [1.0, -1, -1], [-1.0, 1, -1],
                        [-1.0, -1, 1]])
        a2 = 8.0
        values = complex_values(_alpha(pts, np.zeros(4)))
        for e in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
            assert values[e] == pytest.approx(a2 / 4, abs=1e-9)
        for t in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]:
            assert values[t] == pytest.approx(a2 / 3, abs=1e-9)
        assert values[(0, 1, 2, 3)] == pytest.approx(3 * a2 / 8, abs=1e-9)

    @pytest.mark.parametrize("points, radii, message", [
        (np.zeros((4, 3)), [0.1, 0.1, -0.1, 0.1], "nonnegative"),
        (np.zeros((4, 3)), [0.1, 0.1, float("nan"), 0.1], "nonnegative"),
        (np.zeros((4, 3)), [0.1], "1 weights for 4 points"),
        (np.zeros((4, 3)), 0.1, "1 weights for 4 points"),
        (np.zeros((4, 3)), [0.1] * 5, "5 weights for 4 points"),
        (np.zeros((4, 2)), [0.1] * 4, r"shape \(4, 2\)"),
        ([[0.0, 0, float("inf")]], [0.1], "not finite"),
    ])
    def test_bad_cloud_is_a_data_error(self, points, radii, message):
        with pytest.raises(DataError, match=message):
            _alpha(points, radii)

    def test_degenerate_inputs_raise(self):
        with pytest.raises(DataError, match=re.escape(
                "points of shape (0, 3), expected n >= 1")):
            _alpha(np.zeros((0, 3)), [])
        with pytest.raises(DataError, match="^coincident points$"):
            _alpha([[0.0, 0, 0], [0.0, 0, 0]], [0.1, 0.2])
        with pytest.raises(DataError, match="^three collinear points$"):
            _alpha([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]], [0.0] * 3)
        with pytest.raises(DataError, match="^four coplanar points$"):
            _alpha([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [1.0, 1, 0]],
                   [0.0] * 4)
        with pytest.raises(DataError,
                           match="^degenerate point configuration: "):
            # five coplanar points stay degenerate under the weight retry
            _alpha([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [1.0, 1, 0],
                    [0.5, 0.5, 0]], [0.0] * 5)


class TestWeightedAlphaGeneral:
    def test_matches_scipy_delaunay_when_unweighted(self):
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(30, 3))
        fc = _alpha(pts, np.zeros(30))
        got = {tuple(s) for s in fc.simplices[3].tolist()}
        want = {tuple(sorted(int(v) for v in s))
                for s in Delaunay(pts).simplices}
        assert got == want

    def test_valid_filtration_on_random_weighted_clouds(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = int(rng.integers(5, 35))
            pts = rng.normal(size=(n, 3)) * 2
            radii = rng.uniform(0.0, 0.8, size=n)
            fc = _alpha(pts, radii)
            validate_filtration(fc)

    def test_vertices_enter_at_minus_radius_squared(self):
        rng = np.random.default_rng(23)
        pts = rng.normal(size=(12, 3))
        radii = rng.uniform(0.1, 0.5, size=12)
        values = complex_values(_alpha(pts, radii))
        for (v,), value in ((s, x) for s, x in values.items() if len(s) == 1):
            assert value == pytest.approx(-radii[v] ** 2)

    def test_hidden_vertex_is_absent(self):
        # big radii at the tetrahedron corners swallow the centroid
        pts = np.array([[1.0, 1, 1], [1.0, -1, -1], [-1.0, 1, -1],
                        [-1.0, -1, 1], [0.0, 0, 0]])
        radii = np.array([2.0, 2.0, 2.0, 2.0, 0.0])
        fc = _alpha(pts, radii)
        assert fc.simplices[0][:, 0].tolist() == [0, 1, 2, 3]

    def test_cospherical_input_uses_original_weights_for_values(self):
        # 6 points of an octahedron are cospherical: the lift needs the
        # deterministic perturbation, values still come from w = 0
        pts = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0.0, 1, 0],
                        [0.0, -1, 0], [0.0, 0, 1], [0.0, 0, -1]])
        one = complex_values(_alpha(pts, np.zeros(6)))
        two = complex_values(_alpha(pts, np.zeros(6)))
        assert one == two
        for v in range(6):
            assert one[(v,)] == 0.0
        # every edge of the octahedron has length sqrt(2); Gabriel value 1/2
        assert one[(0, 2)] == pytest.approx(0.5, abs=1e-9)

    def test_max_dim_truncation(self):
        rng = np.random.default_rng(24)
        pts = rng.normal(size=(15, 3))
        fc = _alpha(pts, np.zeros(15), max_dim=2)
        assert fc.max_dim == 2
        validate_filtration(fc)


def _hex(values: dict) -> dict:
    return {simplex: float(value).hex() for simplex, value in values.items()}


def _bits(fc):
    return _hex(complex_values(fc))


HIDDEN_VERTEX = ([[1.0, 1, 1], [1.0, -1, -1], [-1.0, 1, -1], [-1.0, -1, 1],
                  [0.0, 0, 0]], [2.0, 2.0, 2.0, 2.0, 0.0])
OCTAHEDRON = ([[1.0, 0, 0], [-1.0, 0, 0], [0.0, 1, 0], [0.0, -1, 0],
               [0.0, 0, 1], [0.0, 0, -1]], [0.0] * 6)
# a cube grid: each face of its hull holds nine points, so the lift has
# vertical facets, which are not lower-hull cells
GRID = (np.stack(np.meshgrid(*[np.arange(3.0)] * 3), -1).reshape(-1, 3),
        [0.0] * 27)


class TestUniqueRows:
    def _check(self, rows):
        got, want = _unique_rows(rows), np.unique(rows, axis=0)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_equals_numpy_unique_on_repeated_rows(self, width):
        rng = np.random.default_rng(30 + width)
        # 600 rows over at most 5^width distinct ones, so most repeat
        rows = rng.integers(-2, 3, size=(600, width)).astype(np.int64)
        self._check(rows)
        self._check(rows * 10 ** 15)

    def test_one_row_and_no_rows(self):
        self._check(np.array([[3, 1, 2]], dtype=np.int64))
        self._check(np.empty((0, 3), dtype=np.int64))

    def test_closure_equals_numpy_unique_closure(self):
        rng = np.random.default_rng(32)
        pts = rng.normal(size=(150, 3)) * 2
        radii = rng.uniform(0.0, 0.9, size=150)
        fc = build_weighted_alpha(pts, radii)
        rows = [_top_cells(pts, radii ** 2)]
        for d in range(rows[0].shape[1] - 1, 0, -1):
            rows.insert(0, np.unique(np.concatenate(
                [np.delete(rows[0], c, axis=1) for c in range(d + 1)]),
                axis=0))
        assert fc.max_dim == 3
        for got, want in zip(fc.simplices, rows, strict=True):
            assert np.array_equal(got, want)


def _random_cloud(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3)) * 2, rng.uniform(0.0, 0.9, size=n)


class TestLowerHullCells:
    @pytest.mark.parametrize("pts, radii", [
        _random_cloud(5, 45), _random_cloud(17, 57), _random_cloud(40, 80),
        _random_cloud(150, 190), HIDDEN_VERTEX, OCTAHEDRON, GRID])
    def test_equal_the_facet_at_a_time_reference(self, pts, radii):
        pts = np.asarray(pts, dtype=float)
        sqw = np.asarray(radii, dtype=float) ** 2
        cells = _top_cells(pts, sqw)
        assert cells.dtype == np.int64 and cells.shape[1] == 4
        assert [tuple(c) for c in cells.tolist()] == \
            reference_lower_hull_cells(pts, sqw)

    def test_octahedron_lift_needs_the_retry(self):
        pts = np.array(OCTAHEDRON[0])
        with pytest.raises(QhullError):
            ConvexHull(np.column_stack([pts, (pts ** 2).sum(axis=1)]),
                       qhull_options="Qt")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_small_clouds_are_one_cell(self, n):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]])
        cells = _top_cells(pts[:n], np.zeros(n))
        assert cells.dtype == np.int64
        assert cells.tolist() == [list(range(n))]


class TestWeightedAlphaMatchesReference:
    @pytest.mark.parametrize("pts, radii", [
        # hidden vertex: the corners' balls swallow the centroid
        HIDDEN_VERTEX,
        # cospherical octahedron: the lift needs the weight perturbation
        OCTAHEDRON,
        # five points: the smallest input that goes through the hull
        ([[0.0, 0, 0], [1.0, 0.1, 0], [0.2, 1, 0.1], [0.1, 0.3, 1],
          [0.9, 0.8, 0.7]], [0.1, 0.3, 0.2, 0.0, 0.4]),
    ])
    def test_small_clouds(self, pts, radii):
        assert _bits(build_weighted_alpha(pts, radii)) == \
            _hex(reference_weighted_alpha(pts, radii))

    def test_random_weighted_clouds(self):
        rng = np.random.default_rng(25)
        # n = 1 to 4 and max_dim 0 and 1 reach every shape of _top_cells
        for n in (6, 17, 40, 150, 1, 2, 3, 4):
            cloud = (rng.normal(size=(n, 3)) * 2,
                     rng.uniform(0.0, 0.9, size=n))
            for max_dim in (3, 2, 1, 0):
                assert _bits(build_weighted_alpha(*cloud, max_dim)) == \
                    _hex(reference_weighted_alpha(*cloud, max_dim))

    def test_stacked_balls_match_single_balls(self):
        rng = np.random.default_rng(26)
        pts = rng.normal(size=(6, 3, 3))
        pts[2, 1] = pts[2, 0]                   # repeated vertex
        sqw = rng.uniform(0.0, 0.5, size=(6, 3))
        a = pts[2, 1:] - pts[2, 0]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a @ a.T, np.ones(2))
        # with the singular Gram matrix (lstsq path) and without it
        for keep in (np.arange(6), np.array([0, 1, 3, 4, 5])):
            centers, r2 = _ortho_balls(pts[keep], sqw[keep])
            for i, k in enumerate(keep):
                center, want = _ortho_ball(pts[k], sqw[k])
                assert centers[i].tobytes() == center.tobytes()
                assert r2[i].hex() == float(want).hex()
