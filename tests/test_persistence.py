from __future__ import annotations

import hashlib
import math
import re
from itertools import combinations

import numpy as np
import pytest

from topostab import complexes, pipeline
from topostab.complexes import (FilteredComplex, build_rips,
                                build_weighted_alpha, validate_filtration)
from topostab.errors import DataError
from topostab.persistence import (diagram_rows, read_transformed_csv,
                                  reduce, transform, write_diagram_csv,
                                  write_transformed_csv)

from oracles import (betti_at, betti_numbers, brute_rips_simplices,
                     complex_from_values, complex_rows, complex_values,
                     read_diagram_csv, reference_reduce, reference_rips,
                     reference_weighted_alpha, transformed_rows)


def _square():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0], [0.0, 1, 0]])
    return build_rips(pts, max_scale=2.0, max_dim=2)


def _finite(dg):
    return dg[np.isfinite(dg[:, 1])]


class TestReduce:
    def test_unit_square(self):
        dgs = reduce(_square())
        h0, h1, h2 = dgs
        finite0 = _finite(h0)
        assert finite0.tolist() == [[0.0, 1.0]] * 3
        assert np.isinf(h0[:, 1]).sum() == 1
        assert h1.tolist() == [[1.0, math.sqrt(2.0)]]

    @pytest.mark.parametrize("fc", [
        _square(),
        build_rips(np.eye(3) * 5.0, 1.0, 2),           # vertices only
        build_rips(np.arange(12.0).reshape(4, 3), 6.0, 3),   # no triangle
        build_weighted_alpha(np.random.default_rng(39).normal(size=(30, 3)),
                             np.zeros(30))],
        ids=["square", "vertices", "path", "alpha"])
    def test_one_float_array_per_dimension(self, fc):
        dgs = reduce(fc)
        assert isinstance(dgs, list) and len(dgs) == fc.max_dim + 1
        for dg in dgs:
            assert type(dg) is np.ndarray
            assert dg.dtype == np.float64 and dg.ndim == 2
            assert dg.shape[1] == 2

    def test_zero_persistence_pairs_dropped(self):
        fc = complex_from_values({
            (0,): 0.0, (1,): 0.0, (2,): 0.0,
            (0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0,
            (0, 1, 2): 1.0})  # kills the loop the instant it is born
        dgs = reduce(fc)
        assert len(dgs[1]) == 0

    def test_h0_count_conservation(self):
        h0 = reduce(_square())[0]
        assert len(_finite(h0)) == 3
        assert np.isinf(h0[:, 1]).sum() == 1

    def test_invalid_filtration_rejected(self):
        # vertex 1 missing
        fc = complex_from_values({(0,): 0.0, (0, 1): 1.0})
        with pytest.raises(DataError,
                           match=re.escape("face (1,) of (0, 1) missing")):
            reduce(fc)

    def test_matches_rank_oracle_on_random_clouds(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            pts = rng.normal(size=(n, 3))
            fc = build_rips(pts, max_scale=3.0, max_dim=3)
            dgs = reduce(fc)
            simplices = brute_rips_simplices(pts, 3.0, 3)
            for scale in sorted({v for v in simplices.values()}):
                got = betti_at(dgs, scale)
                got += [0] * (4 - len(got))  # dims the complex never reaches
                assert got == betti_numbers(simplices, scale, 3)

    def test_diagram_invariant_under_point_relabeling(self):
        rng = np.random.default_rng(32)
        pts = rng.normal(size=(12, 3))
        perm = rng.permutation(12)
        a = reduce(build_rips(pts, 2.0, 2))
        b = reduce(build_rips(pts[perm], 2.0, 2))
        for da, db in zip(a, b):
            assert np.allclose(da, db)

    def test_small_perturbation_moves_pairs_little(self):
        # a soft stability check: diagrams of nearby clouds stay close
        rng = np.random.default_rng(33)
        pts = rng.normal(size=(20, 3))
        eps = 1e-4
        a = _finite(reduce(build_rips(pts, 2.5, 2))[1])
        b = _finite(reduce(build_rips(pts + eps * rng.normal(size=pts.shape),
                                      2.5, 2))[1])
        if len(a) and len(a) == len(b):
            a = a[np.lexsort(a.T[::-1])]
            b = b[np.lexsort(b.T[::-1])]
            assert np.abs(a - b).max() < 50 * eps


def _hex(diagrams) -> list:
    return [(dim, [(b.hex(), d.hex()) for b, d in dg.tolist()])
            for dim, dg in enumerate(diagrams)]


def _toy_rips_samples():
    cfg = pipeline.parse_config({
        "corpus": {"kind": "synthetic", "n_per_class": 2,
                   "n_points": 300, "noise": 0.05},
        "filtration": {"kind": "rips", "max_scale": 1.9, "max_dim": 2},
        "subsample_points": 60})
    return pipeline.build_corpus(cfg)


def _alpha_cloud():
    rng = np.random.default_rng(38)
    return rng.normal(size=(150, 3)) * 2, rng.uniform(0.0, 0.9, size=150)


# sha256 of write_diagram_csv(diagram_rows(...)) for each toy-rips cloud
# at max_scale 1.9, max_dim 2, and for the weighted-alpha _alpha_cloud()
DIAGRAM_CSV_SHA256 = {
    "figure8_000":
        "5f41534ac8922c36e1f1ee2ee5a416b4eb16834733bcf60a18d6d94264fffa1b",
    "figure8_001":
        "93eafda539828070c0a4fd466c6f5d23ece37f4e6d47d6868064b386ac030d0a",
    "sphere_000":
        "b9797928475e8926c93378b7e09cb4484079d1e9f1e79c3eab9dadf1ff6d6fa4",
    "sphere_001":
        "d53440561d7a9cbe04dfad624be23a4a121b3b5b3ccdd681c0ebc24cb353e4d6",
    "alpha":
        "c84f2ff025025b7c38bee38be1c43e67fc329e12ef3d9db71f16935c88ae0118",
}


def _csv_sha256(sample_id, fc):
    text = write_diagram_csv(diagram_rows(sample_id, reduce(fc)))
    return hashlib.sha256(text.encode()).hexdigest()


_SQUARE = np.array([[0.0, 0], [1.0, 0], [1.0, 1], [0.0, 1]])


def _pipeline_diagrams(pts, scale, max_dim):
    """The pipeline's diagrams of one Rips cloud, padded to 3-D with zero
    coordinates: the dimensions below max_dim."""
    pts = np.column_stack([pts, np.zeros((len(pts), 3 - pts.shape[1]))])
    sample = pipeline.Sample("c", 0.0, "stable", pts)
    filtration = {"kind": "rips", "max_scale": scale, "max_dim": max_dim}
    return pipeline.compute_diagrams([sample], filtration)["c"]


class TestReduceMatchesReference:
    """reduce (cohomology with clearing in every dimension, H0 included)
    against the column-by-column boundary reduction of tests/oracles.py,
    bit for bit."""

    def _check(self, fc):
        got = reduce(fc)
        assert len(got) == fc.max_dim + 1
        assert _hex(got) == _hex(reference_reduce(complex_values(fc)))

    def _check_rips(self, pts, scale, max_dim):
        """Also against reference_rips: the whole diagrams and, stopped
        below max_dim, the pipeline's; the top dimension, built without
        rows, is counted, and its rows read from its face table are the
        reference's and a valid filtration."""
        want = reference_rips(pts, scale, max_dim)
        reference = reference_reduce(want)
        fc = build_rips(pts, scale, max_dim)
        assert len(fc) == len(want)
        assert _hex(reduce(fc)) == _hex(reference)
        assert _hex(_pipeline_diagrams(pts, scale, max_dim)) == \
            _hex(reference[:max_dim])
        assert {s: v.hex() for s, v in complex_values(fc).items()} == \
            {s: v.hex() for s, v in want.items()}
        validate_filtration(FilteredComplex(complex_rows(fc), fc.values))
        return fc

    def test_toy_rips_clouds(self):
        samples = _toy_rips_samples()
        assert len(samples) == 4
        # a smaller scale at max_dim 3 keeps the reference's tetrahedra few
        for s in samples:
            for max_dim, scale in ((1, 1.9), (2, 1.9), (3, 1.2)):
                self._check_rips(s.points, scale, max_dim)

    def test_diagram_csv_digests_are_pinned(self):
        # the oracle tests see the pairs; this also pins the CSV bytes the
        # pipeline writes as diagrams.csv
        got = {s.id: _csv_sha256(s.id, build_rips(s.points, 1.9, 2))
               for s in _toy_rips_samples()}
        got["alpha"] = _csv_sha256("alpha",
                                   build_weighted_alpha(*_alpha_cloud()))
        assert got == DIAGRAM_CSV_SHA256

    def test_vertex_only_complex(self):
        # no edge within max_scale: the complex stops at its vertices, and
        # every vertex is essential
        pts = np.array([[0.0, 0, 0], [5.0, 0, 0], [0.0, 5, 0], [0.0, 0, 5]])
        for max_dim in (1, 2, 3):
            fc = self._check_rips(pts, 1.0, max_dim)
            assert fc.max_dim == 0
            h0 = reduce(fc)[0]
            assert h0.tolist() == [[0.0, math.inf]] * 4
        # one edge and no triangle, and two vertices without cofaces in the
        # H0 reduction
        for max_dim in (1, 2, 3):
            fc = self._check_rips(pts[:3] * [[0.1, 1, 1]], 1.0, max_dim)
            assert fc.max_dim == 1
            assert reduce(fc)[0].tolist() == \
                [[0.0, 0.5], [0.0, math.inf], [0.0, math.inf]]

    def test_far_apart_unit_squares(self):
        # two components whose edges all tie at 1.0, then at sqrt(2)
        pts = np.vstack([_SQUARE, _SQUARE + 10.0])
        for max_dim in (1, 2, 3):
            fc = self._check_rips(pts, 1.5, max_dim)
            h0 = reduce(fc)[0]
            assert h0.tolist() == \
                [[0.0, 1.0]] * 6 + [[0.0, math.inf]] * 2

    def test_random_clouds(self):
        rng = np.random.default_rng(34)
        for n in (2, 3, 5, 8, 13, 21, 30, 40):
            pts = rng.normal(size=(n, 3))
            for max_dim, scale in ((1, 2.5), (2, 1.5), (3, 1.1)):
                self._check_rips(pts, scale, max_dim)

    def test_octahedral_shells_with_h2_classes(self):
        rng = np.random.default_rng(37)
        octahedron = np.vstack([np.eye(3), -np.eye(3)])
        for shells in (1, 2, 4):
            pts = np.vstack([octahedron * (1 + 0.1 * k)
                             for k in range(shells)])
            pts += 0.02 * rng.normal(size=pts.shape)
            for max_dim in (1, 2, 3):
                fc = self._check_rips(pts, 2.1, max_dim)
            assert len(_finite(reduce(fc)[2])) == 1

    def test_face_ids_past_two_to_the_sixteen(self):
        # 16,500 squares, each with a diagonal and its two triangles:
        # 66,000 vertices and 82,500 edges, so coboundary sorts face ids
        # too wide for 16 bits in dimensions 0 and 1
        local = [(0,), (1,), (2,), (3,), (0, 1), (1, 2), (2, 3), (0, 3),
                 (0, 2), (0, 1, 2), (0, 2, 3)]
        rng = np.random.default_rng(40)
        values = {}
        for b, ups in enumerate(
                rng.integers(0, 3, size=(16_500, len(local))).tolist()):
            block = {}
            for s, up in zip(local, ups):
                block[s] = up + max([block[f] for f in combinations(
                    s, len(s) - 1) if f], default=0)
            values.update({tuple(4 * b + v for v in s): float(x)
                           for s, x in block.items()})
        fc = complex_from_values(values)
        assert [len(v) for v in fc.values] == [66_000, 82_500, 33_000]
        self._check(fc)

    def test_integer_grid_clouds_with_tied_values(self):
        rng = np.random.default_rng(35)
        for n in (6, 16, 30):
            pts = rng.integers(0, 4, size=(n, 2)).astype(float)
            for max_dim in (1, 2, 3):
                self._check_rips(pts, 2.0, max_dim)

    def test_weighted_alpha_with_hidden_vertex(self):
        # the corners' balls swallow the centroid, vertex 4
        hidden = (np.array([[1.0, 1, 1], [1.0, -1, -1], [-1.0, 1, -1],
                            [-1.0, -1, 1], [0.0, 0, 0]]),
                  np.array([2.0, 2.0, 2.0, 2.0, 0.0]))
        rng = np.random.default_rng(36)
        clouds = [hidden] + [
            (rng.normal(size=(n, 3)) * 2, rng.uniform(0.0, 0.9, size=n))
            for n in (12, 40, 120)]
        for cloud in clouds:
            fc = build_weighted_alpha(*cloud)
            self._check(fc)
            assert _hex(reduce(fc)) == \
                _hex(reference_reduce(reference_weighted_alpha(*cloud)))
        assert build_weighted_alpha(*hidden).simplices[0][:, 0].tolist() == \
            [0, 1, 2, 3]


class TestImplicitTop:
    """build_rips keeps a nonempty top dimension as its values and face
    table, without rows, and reduce takes its cofaces from that table."""

    def test_only_a_nonempty_top_is_implicit(self):
        pts = np.vstack([_SQUARE, _SQUARE + 10.0])
        for max_dim in (1, 2, 3):
            fc = build_rips(pts, 1.5, max_dim)
            assert fc.max_dim == len(fc.simplices) == max_dim
        # below the diagonals the squares are 4-cycles without triangles,
        # so their edges are the top, built as rows
        fc = build_rips(pts, 1.2, 2)
        assert fc.max_dim == len(fc.simplices) - 1 == 1
        fc = build_rips(pts, 1.5, 0)
        assert fc.max_dim == len(fc.simplices) - 1 == 0

    def test_rows_stop_below_the_top_and_len_counts_it(self):
        pts = _toy_rips_samples()[0].points
        fc = build_rips(pts, 1.9, 2)
        want = reference_rips(pts, 1.9, 2)
        assert [len(s) for s in fc.simplices] == \
            [sum(len(s) == d + 1 for s in want) for d in (0, 1)]
        assert len(fc) == len(want)
        assert len(fc.values[2]) == len(fc.faces(2)) == \
            sum(len(s) == 3 for s in want)
        whole = reduce(fc)
        assert _hex(whole) == _hex(reference_reduce(want))
        assert _hex(reduce(fc, stop=2)) == _hex(whole[:2])

    def test_stop_keeps_a_prefix_of_the_diagrams(self):
        for fc in (_square(), build_rips(np.eye(3) * 5.0, 1.0, 2),
                   build_weighted_alpha(*_alpha_cloud())):
            whole = reduce(fc)
            for stop in range(fc.max_dim + 3):
                assert _hex(reduce(fc, stop=stop)) == _hex(whole[:stop])

    def test_chunked_pivot_search_is_unchanged(self, monkeypatch):
        pts = np.random.default_rng(18).normal(size=(30, 3))
        whole = _hex(reduce(build_rips(pts, 1.6, 3), stop=3))
        # chunks of one and of three rows: 30 and 90 entries
        for entries in (1, 90):
            monkeypatch.setattr(complexes, "CHUNK_ENTRIES", entries)
            assert _hex(reduce(build_rips(pts, 1.6, 3), stop=3)) == whole


class TestTransform:
    def test_dim0_maps_to_death_axis(self):
        dg = np.array([[0.0, 2.0]])
        assert transform(dg, 0).tolist() == [[2.0, 0.0]]

    def test_higher_dims_map_to_birth_persistence(self):
        dg = np.array([[1.0, 3.0]])
        assert transform(dg, 1).tolist() == [[1.0, 2.0]]

    @pytest.mark.parametrize("dim", [0, 1])
    def test_essential_classes_are_dropped(self, dim):
        dg = np.array([[0.0, math.inf], [0.5, 2.0], [1.0, math.inf]])
        assert transform(dg, dim).tolist() == \
            ([[2.0, 0.0]] if dim == 0 else [[0.5, 1.5]])
        only_essential = np.array([[0.0, math.inf]])
        assert transform(only_essential, dim).shape == (0, 2)


class TestCsvRoundTrips:
    def test_diagram_csv(self):
        dgs = reduce(_square())
        text = write_diagram_csv(diagram_rows("sq", dgs))
        back = read_diagram_csv(text)["sq"]
        for orig, rt in zip(dgs, back):
            assert np.array_equal(orig, rt)

    def test_transformed_csv(self):
        points = {dim: transform(dg, dim)
                  for dim, dg in enumerate(reduce(_square()))}
        text = write_transformed_csv(transformed_rows("sq", points))
        back = read_transformed_csv(text)["sq"]
        assert np.array_equal(back[1],
                              np.array([[1.0, math.sqrt(2.0) - 1.0]]))

    def test_infinity_survives_round_trip(self):
        dg = np.array([[0.0, math.inf]])
        text = write_diagram_csv(diagram_rows("a", [dg]))
        assert "inf" in text
        back = read_diagram_csv(text)["a"][0]
        assert math.isinf(back[0, 1])
