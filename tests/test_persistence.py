from __future__ import annotations

import math

import numpy as np
import pytest

from topostab.complexes import FilteredComplex, build_rips
from topostab.errors import InvalidFiltration
from topostab.persistence import (PersistenceDiagram, _raw_pairs, betti_at,
                                  diagram_rows, drop_essentials,
                                  read_transformed_csv, reduce, transform,
                                  write_diagram_csv, write_transformed_csv)

from oracles import (betti_numbers, brute_rips_simplices, read_diagram_csv,
                     transformed_rows)


def _square():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0], [0.0, 1, 0]])
    return build_rips(pts, max_scale=2.0, max_dim=2)


class TestReduce:
    def test_unit_square(self):
        dgs = reduce(_square(), source_id="sq")
        h0, h1, h2 = dgs
        finite0 = h0.finite()
        assert finite0.tolist() == [[0.0, 1.0]] * 3
        assert np.isinf(h0.pairs[:, 1]).sum() == 1
        assert h1.pairs.tolist() == [[1.0, math.sqrt(2.0)]]
        assert h2.source_id == "sq"

    def test_zero_persistence_pairs_dropped(self):
        fc = FilteredComplex()
        for v in range(3):
            fc.add((v,), 0.0)
        fc.add((0, 1), 1.0)
        fc.add((0, 2), 1.0)
        fc.add((1, 2), 1.0)
        fc.add((0, 1, 2), 1.0)  # kills the loop the instant it is born
        dgs = reduce(fc)
        assert len(dgs[1]) == 0

    def test_h0_count_conservation(self):
        fc = _square()
        _, pairs, essentials = _raw_pairs(fc)
        births0 = [p for p in pairs if len(p[0]) == 1]
        ess0 = [e for e in essentials if len(e) == 1]
        assert len(births0) + len(ess0) == 4

    def test_invalid_filtration_rejected(self):
        fc = FilteredComplex()
        fc.add((0,), 0.0)
        fc.add((0, 1), 1.0)  # vertex 1 missing
        with pytest.raises(InvalidFiltration):
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
            assert np.allclose(da.pairs, db.pairs)

    def test_small_perturbation_moves_pairs_little(self):
        # a soft stability check: diagrams of nearby clouds stay close
        rng = np.random.default_rng(33)
        pts = rng.normal(size=(20, 3))
        eps = 1e-4
        a = reduce(build_rips(pts, 2.5, 2))[1].finite()
        b = reduce(build_rips(pts + eps * rng.normal(size=pts.shape),
                              2.5, 2))[1].finite()
        if len(a) and len(a) == len(b):
            a = a[np.lexsort(a.T[::-1])]
            b = b[np.lexsort(b.T[::-1])]
            assert np.abs(a - b).max() < 50 * eps


class TestTransform:
    def test_dim0_maps_to_death_axis(self):
        dg = PersistenceDiagram(dim=0, pairs=np.array([[0.0, 2.0]]),
                                source_id="x")
        assert transform(dg).points.tolist() == [[2.0, 0.0]]

    def test_higher_dims_map_to_birth_persistence(self):
        dg = PersistenceDiagram(dim=1, pairs=np.array([[1.0, 3.0]]),
                                source_id="x")
        assert transform(dg).points.tolist() == [[1.0, 2.0]]

    def test_infinite_pairs_rejected(self):
        dg = PersistenceDiagram(dim=0,
                                pairs=np.array([[0.0, math.inf]]),
                                source_id="x")
        with pytest.raises(ValueError):
            transform(dg)
        assert len(transform(drop_essentials(dg)).points) == 0


class TestCsvRoundTrips:
    def test_diagram_csv(self):
        dgs = reduce(_square(), source_id="sq")
        text = write_diagram_csv(diagram_rows("sq", dgs))
        back = read_diagram_csv(text)["sq"]
        for orig, rt in zip(dgs, back):
            assert np.array_equal(orig.pairs, rt.pairs)

    def test_transformed_csv(self):
        dgs = [transform(drop_essentials(d))
               for d in reduce(_square(), source_id="sq")]
        text = write_transformed_csv(transformed_rows("sq", dgs))
        back = read_transformed_csv(text)["sq"]
        assert np.array_equal(back[1],
                              np.array([[1.0, math.sqrt(2.0) - 1.0]]))

    def test_infinity_survives_round_trip(self):
        dg = PersistenceDiagram(dim=0,
                                pairs=np.array([[0.0, math.inf]]),
                                source_id="a")
        text = write_diagram_csv(diagram_rows("a", [dg]))
        assert "inf" in text
        back = read_diagram_csv(text)["a"][0]
        assert math.isinf(back.pairs[0, 1])
