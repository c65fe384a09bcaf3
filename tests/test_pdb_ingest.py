from __future__ import annotations

import numpy as np
import pytest

from topostab.errors import (DataError, DuplicateId, EmptyClass,
                             MalformedLine, MissingValue, NoAtoms,
                             UnknownElement)
from topostab.pdb_ingest import (STABLE, UNSTABLE, VDW_RADII,
                                 WeightedPointCloud, assign_weights,
                                 label_and_downsample, label_samples,
                                 load_scores_csv, load_sme_csv, parse_pdb)

PDB_LINES = (
    "HEADER    DE NOVO PROTEIN\n"
    "ATOM      1  N   MET A   1      11.104   6.134  -6.504  1.00  0.00"
    "           N  \n"
    "ATOM      2  CA  MET A   1      11.639   6.071  -5.147  1.00  0.00"
    "           C  \n"
    "HETATM    3  O   HOH A 201       0.000   0.000   0.000  1.00  0.00"
    "           O  \n"
    "TER\n"
    "ATOM      4  O   MET A   1      11.550   7.750  -3.320  1.00  0.00\n"
    "END\n"
)


class TestParsePdb:
    def test_fixed_width_extraction(self):
        atoms = parse_pdb(PDB_LINES)
        assert len(atoms) == 3  # HETATM ignored
        assert atoms[0].element == "N"
        assert atoms[0].position == (11.104, 6.134, -6.504)
        assert atoms[1].serial == 2

    def test_element_falls_back_to_atom_name(self):
        # last ATOM line has no columns 77-78
        atoms = parse_pdb(PDB_LINES)
        assert atoms[2].element == "O"

    def test_two_letter_element_capitalization(self):
        line = ("ATOM      1 SD   MET A   1       1.000   2.000   3.000"
                "  1.00  0.00          SE  \n")
        assert parse_pdb(line)[0].element == "Se"

    def test_no_atoms_raises(self):
        with pytest.raises(NoAtoms):
            parse_pdb("HEADER    EMPTY\nEND\n")

    def test_malformed_coordinates_raise_with_line_number(self):
        bad = "ATOM      1  N   MET A   1      xx.xxx   6.134  -6.504\n"
        with pytest.raises(MalformedLine) as err:
            parse_pdb(bad)
        assert "1" in str(err.value)


class TestWeights:
    def test_vdw_values_are_exact(self):
        assert VDW_RADII == {"H": 1.2, "N": 1.55, "O": 1.52, "C": 1.7,
                             "S": 1.8}

    def test_assign_weights_order_preserved(self):
        atoms = parse_pdb(PDB_LINES)
        cloud = assign_weights(atoms)
        assert isinstance(cloud, WeightedPointCloud)
        assert cloud.weights.tolist() == [1.55, 1.7, 1.52]
        assert cloud.points.shape == (3, 3)

    def test_unknown_element_raises(self):
        line = ("ATOM      1 FE   HEM A   1       1.000   2.000   3.000"
                "  1.00  0.00          FE  \n")
        with pytest.raises(UnknownElement):
            assign_weights(parse_pdb(line))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedPointCloud(points=np.zeros((1, 3)),
                               weights=np.array([-0.1]))


def _samples(scores):
    return {f"p{i:02d}": s for i, s in enumerate(scores)}


class TestLabeling:
    def test_strict_threshold(self):
        labeled = label_samples(_samples([0.5, 1.0, 1.01]), threshold=1.0)
        assert list(labeled.values()) == [UNSTABLE, UNSTABLE, STABLE]

    def test_extremes_downsample_keeps_most_extreme(self):
        scores = [2.0, 1.9, 1.8, 1.7, 0.1, 0.2]  # 4 stable, 2 unstable
        kept = label_and_downsample(_samples(scores), threshold=1.0)
        assert len(kept) == 4
        stable = sorted(i for i, label in kept.items() if label == STABLE)
        assert stable == ["p00", "p01"]  # the two highest-scoring
        unstable = sorted(i for i, label in kept.items()
                          if label == UNSTABLE)
        assert unstable == ["p04", "p05"]

    def test_random_downsample_deterministic(self):
        scores = [2.0] * 6 + [0.5] * 3
        one = label_and_downsample(_samples(scores), 1.0, seed=3,
                                   mode="random")
        two = label_and_downsample(_samples(scores), 1.0, seed=3,
                                   mode="random")
        assert list(one) == list(two)
        assert sum(1 for label in one.values() if label == STABLE) == 3

    def test_empty_class_raises(self):
        with pytest.raises(EmptyClass):
            label_and_downsample(_samples([2.0, 3.0]), threshold=1.0)


class TestCsvLoaders:
    def test_sme_round_trip(self):
        table = load_sme_csv("id,f1,f2\na,1.0,2.0\nb,3.5,-1.0\n")
        assert table.columns == ["f1", "f2"]
        mat = table.matrix_for(["b", "a"])
        assert mat.tolist() == [[3.5, -1.0], [1.0, 2.0]]

    def test_sme_duplicate_id(self):
        with pytest.raises(DuplicateId):
            load_sme_csv("id,f1\na,1.0\na,2.0\n")

    def test_sme_missing_value(self):
        with pytest.raises(MissingValue):
            load_sme_csv("id,f1,f2\na,1.0,\n")

    def test_sme_absent_id_in_matrix_for(self):
        table = load_sme_csv("id,f1\na,1.0\n")
        with pytest.raises(KeyError):
            table.matrix_for(["a", "zz"])

    def test_sme_absent_id_message_is_not_quoted(self):
        table = load_sme_csv("id,f1\na,1.0\n")
        with pytest.raises(DataError) as info:
            table.matrix_for(["zz"])
        assert str(info.value) == "ids absent from feature table: ['zz']"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_sme_non_finite_value(self, cell):
        with pytest.raises(DataError, match="row 2, column 'f2'"):
            load_sme_csv(f"id,f1,f2\na,1.0,2.0\nb,3.0,{cell}\n")

    def test_scores_loader(self):
        scores = load_scores_csv("id,score\na,1.5\nb,-0.25\n")
        assert scores == {"a": 1.5, "b": -0.25}

    def test_scores_bad_value(self):
        with pytest.raises(MissingValue):
            load_scores_csv("id,score\na,abc\n")
