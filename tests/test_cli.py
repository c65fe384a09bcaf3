from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from topostab import cli, pipeline, synth
from topostab.forest import Dataset, fit as forest_fit, forest_to_json


def run(argv):
    return cli.main(argv)


def synth_dir(tmp_path, n_samples=5, n_points=40):
    out = tmp_path / "clouds"
    code = run(["synth", "--shape", "both", "--n-samples", str(n_samples),
                "--n-points", str(n_points), "--noise", "0.05",
                "--seed", "0", "--out", str(out)])
    assert code == 0
    return out


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "pipeline" in capsys.readouterr().out

    def test_usage_error_exits_one(self, capsys):
        assert run(["synth"]) == 1
        assert run(["not-a-command"]) == 1

    @pytest.mark.parametrize("argv, message", [
        ([], "topostab: the following arguments are required: command"),
        (["ph", "--corpus", "x.json", "--filtration", "rips",
          "--jobs", "abc", "--out", "o"],
         "topostab ph: argument --jobs: invalid int value: 'abc'"),
    ])
    def test_usage_error_is_one_line(self, capsys, argv, message):
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert err == f"config error: {message}\n"
        assert out == ""

    def test_config_error_exits_one(self, tmp_path, capsys):
        code = run(["pipeline", "--config", str(tmp_path / "none.json"),
                    "--out", str(tmp_path)])
        assert code == 1
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--max-scale", "-1"],
        ["--max-scale", "1.9", "--dims", "2,5", "--max-dim", "2"],
        ["--max-scale", "1.9", "--max-dim", "0"],
    ])
    def test_ph_checks_flags_before_reading_the_corpus(self, tmp_path,
                                                       capsys, flags):
        code = run(["ph", "--corpus", str(tmp_path / "none.json"),
                    "--filtration", "rips", *flags,
                    "--out", str(tmp_path / "ph")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "corpus" not in err
        assert not (tmp_path / "ph").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--n-points", "2"], "synthetic corpus needs n_points >= 4"),
        (["--n-samples", "-1"], "synthetic corpus needs n_per_class > 0"),
        (["--noise", "-1"], "noise must be nonnegative"),
    ])
    def test_synth_checks_sizes_before_writing(self, tmp_path, capsys, flags,
                                               message):
        # a flag given twice takes its last value
        code = run(["synth", "--shape", "both", "--n-samples", "2",
                    "--n-points", "10", *flags,
                    "--out", str(tmp_path / "clouds")])
        assert code == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "clouds").exists()

    def test_bad_config_value_exits_one_without_traceback(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpus": {"kind": "synthetic", "n_per_class": 5,
                       "n_points": 40},
            "filtration": {"kind": "rips", "max_scale": 1.9},
            "threshold": "abc"}))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from topostab.cli import main; sys.exit(main())",
             "pipeline", "--config", str(config),
             "--out", str(tmp_path / "runs")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("config error:")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("edit, message", [
        ({"dims": [False, True]}, "dims must be a non-empty list of "
         "nonnegative integers"),
        ({"n_repeats": True}, "n_repeats must be an integer, got True"),
        ({"n_repeats": 2.7}, "n_repeats must be an integer, got 2.7"),
        ({"seed": "0"}, "seed must be an integer, got '0'"),
        ({"seed": False}, "seed must be an integer, got False"),
        ({"subsample_points": 10.5},
         "subsample_points must be an integer, got 10.5"),
        ({"filtration": {"kind": "rips", "max_scale": 1.9, "max_dim": True}},
         "max_dim must be an integer, got True"),
        ({"filtration": {"kind": "weighted-alpha", "max_dim": 2.7}},
         "max_dim must be an integer, got 2.7"),
        # the weighted-alpha complex stops at tetrahedra
        ({"filtration": {"kind": "weighted-alpha", "max_dim": 6},
          "dims": [0, 5]},
         "weighted-alpha max_dim must be <= 3: its complex stops at "
         "tetrahedra"),
        ({"forest": {"n_iter": True}}, "n_iter must be an integer, got True"),
        ({"forest": {"k_folds": 2.7}}, "k_folds must be an integer, got 2.7"),
        ({"corpus": {"kind": "synthetic", "n_per_class": True,
                     "n_points": 20}},
         "n_per_class must be an integer, got True"),
        ({"corpus": {"kind": "synthetic", "n_per_class": 2,
                     "n_points": "20"}},
         "n_points must be an integer, got '20'"),
    ])
    def test_config_integers_reject_bools_fractions_and_text(
            self, tmp_path, capsys, edit, message):
        self.assert_config_error(tmp_path, capsys, edit, message)

    @pytest.mark.parametrize("edit, message", [
        ({"threshold": True}, "threshold must be a finite number, got True"),
        ({"threshold": float("nan")},
         "threshold must be a finite number, got nan"),
        ({"hexbin_side": float("inf")},
         "hexbin_side must be a finite number, got inf"),
        pytest.param({"split_fraction": 10 ** 400},
                     f"split_fraction must be a finite number, got "
                     f"{10 ** 400}", id="integer beyond a float"),
        ({"filtration": {"kind": "rips", "max_scale": "1.9"}},
         "max_scale must be a finite number, got '1.9'"),
        ({"cder": {"min_mass": True}},
         "min_mass must be a finite number, got True"),
        ({"corpus": {"kind": "synthetic", "n_per_class": 2, "n_points": 20,
                     "noise": True}},
         "noise must be a finite number, got True"),
        ({"seed": -1}, "seed must be non-negative, got -1"),
    ])
    def test_config_numbers_are_finite_and_seeds_non_negative(
            self, tmp_path, capsys, edit, message):
        self.assert_config_error(tmp_path, capsys, edit, message)

    @pytest.mark.parametrize("edit, message", [
        ({"corpus": {"kind": "pdb", "pdb_dir": 5, "scores_csv": "s.csv"}},
         "pdb_dir must be a path string, got 5"),
        ({"corpus": {"kind": "pdb", "pdb_dir": ".", "scores_csv": ["s"]}},
         "scores_csv must be a path string, got ['s']"),
        ({"sme_csv": 7}, "sme_csv must be a path string, got 7"),
        ({"corpus": {"kind": "pdb", "pdb_dir": "", "scores_csv": "s.csv"}},
         "pdb_dir must be a path string, got ''"),
    ])
    def test_config_paths_are_strings(self, tmp_path, capsys, edit, message):
        self.assert_config_error(tmp_path, capsys, edit, message)

    @staticmethod
    def assert_config_error(tmp_path, capsys, edit, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpus": {"kind": "synthetic", "n_per_class": 2, "n_points": 20},
            "filtration": {"kind": "rips", "max_scale": 1.9, "max_dim": 2},
            "n_repeats": 1, "forest": {"n_iter": 1, "k_folds": 2}, **edit}))
        code = run(["pipeline", "--config", str(config),
                    "--out", str(tmp_path / "runs")])
        assert code == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("argv", [
        "ingest --cloud-dir @none --scores-csv @none.csv",
        "cder-fit --transformed @none.csv --labels @none.csv",
        "featurize --transformed @none.csv --model @none.json",
        "correlate --cder @none.csv --sme @none.csv",
        "hexbin --transformed @none.csv --labels @none.csv --dim 1",
    ])
    def test_file_out_is_checked_before_any_input(self, tmp_path, capsys,
                                                  argv):
        # every input is missing, yet the directory --out is the fault named
        tokens = [str(tmp_path / t[1:]) if t.startswith("@") else t
                  for t in argv.split()]
        assert run(tokens + ["--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == \
            f"config error: cannot write {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("fraction, side", [(0.1, "training"),
                                                (0.99999999999, "validation")])
    def test_split_that_empties_a_class_side_exits_two(
            self, tmp_path, capsys, fraction, side):
        # every repeat's split is drawn before any diagram is computed
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpus": {"kind": "synthetic", "n_per_class": 6, "n_points": 20},
            "filtration": {"kind": "rips", "max_scale": 1.9, "max_dim": 2},
            "n_repeats": 2, "split_fraction": fraction,
            "forest": {"n_iter": 1, "k_folds": 2}}))
        code = run(["pipeline", "--config", str(config),
                    "--out", str(tmp_path / "runs")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: split fraction {fraction} leaves class 'stable' "
            f"with no {side} member\n")
        assert not list((tmp_path / "runs").rglob("diagrams.csv"))

    def test_data_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "corpus.json"
        bad.write_text(json.dumps({"samples": [
            {"id": "x", "score": 0.0, "label": "unstable",
             "points": [[0.0, 0.0, 0.0]], "weights": [1.0, 2.0]}]}))
        code = run(["ph", "--corpus", str(bad), "--filtration", "rips",
                    "--max-scale", "1.0", "--out", str(tmp_path / "ph")])
        assert code == 2
        assert "data error:" in capsys.readouterr().err


# small artifacts for the bad-input probes (None makes a directory); a token
# @name in a probe's argv stands for the path of name in the probe directory
PROBE_FILES = {
    "transformed.csv": "id,dim,u,v\na,1,0.1,0.2\n",
    "empty.csv": "",
    "header_only_transformed.csv": "id,dim,u,v\n",
    "short_transformed.csv": "id,dim,u,v\na,1\n",
    "nan_transformed.csv": "id,dim,u,v\na,1,0.1,0.2\na,1,0.1,nan\n",
    "huge_dim_transformed.csv": "id,dim,u,v\na,1e300,0.1,0.2\n",
    # finite points whose squared distance overflows, and two points one
    # ulp apart in u, which make the derived hex side tiny
    "far_transformed.csv": "id,dim,u,v\na,1,0.1,0.2\nb,1,0.1,1e200\n",
    "ulp_transformed.csv": "id,dim,u,v\na,1,1,1e10\n"
                           "b,1,1.0000000000000002,1e10\n",
    "negative_dim_transformed.csv": "id,dim,u,v\na,1,0.1,0.2\nb,-1,0.1,0.2\n",
    "labels.csv": "id,score,label\na,0.5,stable\nb,1.5,unstable\n"
                  "c,1.6,unstable\n",
    "short_labels.csv": "id,score,label\na,0.5\n",
    "text_score_labels.csv": "id,score,label\na,abc,stable\n",
    "nan_score_labels.csv": "id,score,label\na,nan,stable\nb,1.5,unstable\n",
    "repeated_labels.csv": "id,score,label\na,0.5,stable\na,1.5,unstable\n",
    "three_labels.csv": "id,score,label\na,0.5,stable\nb,1.5,unstable\n"
                        "c,0.9,maybe\n",
    "features.csv": "id,f\na,0.1\nb,0.2\nc,0.4\n",
    "renamed_features.csv": "id,g\na,0.1\nb,0.2\nc,0.4\n",
    "nan_features.csv": "id,f\na,0.1\nb,nan\nc,0.4\n",
    "inf_features.csv": "id,f\na,0.1\nb,inf\nc,0.4\n",
    "sme.csv": "id,g\na,1.0\nb,3.0\nc,2.0\n",
    "not_json.json": "not json",
    "empty.json": "{}",
    "stable_ids.txt": "a\n",
    "a_dir/": None,
}
# corpus jsons whose clouds persistence cannot take, or whose ids repeat
_TETRA = [[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1], [1.0, 1, 1]]
for _name, _points, _weights, _ids in (
        ("negative_weight.json", _TETRA, [0.1, 0.1, -0.1, 0.1, 0.1], "ab"),
        ("nan_point.json", _TETRA[:4] + [[1.0, 1, float("nan")]], [], "ab"),
        ("flat_points.json", [[0.0, 0], [1.0, 0], [0.0, 1], [1.0, 1],
                              [2.0, 0], [0.0, 2]], [], "ab"),
        ("repeated_id.json", _TETRA, [], "aa"),
        ("tetra.json", _TETRA, [], "ab")):
    PROBE_FILES[_name] = json.dumps({"samples": [
        {"id": i, "score": float(k), "label": "stable" if k else "unstable",
         "points": _points, "weights": _weights}
        for k, i in enumerate(_ids)]})
PROBE_FILES["nan_score.json"] = json.dumps({"samples": [
    {"id": "a", "score": float("nan"), "label": "stable", "points": _TETRA}]})
# pdb directories: one whose b.pdb is a directory, one whose b.pdb is not
# UTF-8; a.pdb is one well-formed atom
_ATOM = ("ATOM      1  N   MET A   1      11.104   6.134  -6.504  1.00  0.00"
         "           N  \n")
PROBE_FILES.update({
    "pdb_ok/a.pdb": _ATOM, "pdb_ok/b.pdb": _ATOM,
    "pdb_dir_entry/a.pdb": _ATOM, "pdb_dir_entry/b.pdb/": None,
    "pdb_latin1/a.pdb": _ATOM,
    "pdb_latin1/b.pdb": (_ATOM[:-1] + "caf\u00e9\n").encode("latin-1"),
    "pdb_scores.csv": "id,score\na,0.5\nb,1.5\n",
    "nan_scores.csv": "id,score\na,0.5\nb,nan\n",
    "latin1_sme.csv": "id,caf\u00e9\na,1.0\n".encode("latin-1"),
})
# a feature table without a feature column, and one-tree forest jsons: one
# with no feature, one whose root links past the end of the tree, one that
# splits on a feature the forest does not have, one with a leaf without proba
PROBE_FILES["ids_only.csv"] = "id\na\nb\nc\nd\ne\nf\n"
PROBE_FILES["six_features.csv"] = "id,f\na,0.1\nb,0.2\nc,0.4\nd,0.3\n" \
                                  "e,0.5\nf,0.6\n"
PROBE_FILES["six_labels.csv"] = ("id,score,label\na,0.5,stable\n"
                                 "b,1.5,unstable\nc,1.6,unstable\n"
                                 "d,0.4,stable\ne,1.7,unstable\n"
                                 "f,0.3,stable\n")
for _name, _edits in (
        ("no_feature_forest.json", {"feature": [-1], "threshold": [None],
                                    "left": [-1], "right": [-1],
                                    "proba": [0.5], "importance": []}),
        ("child_out_of_range.json", {"right": [7, -1, -1]}),
        ("feature_out_of_range.json", {"feature": [3, -1, -1]}),
        ("null_leaf.json", {"proba": [None, None, 1.0]})):
    _tree = {"feature": [0, -1, -1], "threshold": [0.15, None, None],
             "left": [1, -1, -1], "right": [2, -1, -1],
             "proba": [None, 0.0, 1.0], "importance": [0.5]}
    _tree.update(_edits)
    _n = len(_tree["importance"])
    PROBE_FILES[_name] = json.dumps({"hp": {}, "n_features": _n,
                                     "feature_names": ["f"][:_n],
                                     "trees": [_tree]})
PROBE_FILES["no_trees_forest.json"] = json.dumps(
    {"hp": {}, "n_features": 1, "feature_names": ["f"], "trees": []})
# cder model jsons whose coordinate is not a Gaussian (a nan mean, a cov
# that is not positive definite or not symmetric, an infinite weight), or
# whose dim key is not a non-negative integer, and one whose dims are a list
for _name, _dim, _edits in (
        ("nan_mean_model.json", "1", {"mean": [float("nan"), 0.0]}),
        ("indefinite_cov_model.json", "1", {"cov": [[1, 0], [0, -0.001]]}),
        ("asymmetric_cov_model.json", "1", {"cov": [[1, 0.5], [0, 1]]}),
        ("inf_weight_model.json", "1", {"weight": float("inf")}),
        ("negative_dim_model.json", "-1", {}),
        ("text_dim_model.json", "h1", {}),
        ("model.json", "1", {})):
    _coord = {"label": "stable", "mean": [0.1, 0.2],
              "cov": [[1.0, 0.0], [0.0, 1.0]], "weight": 0.5}
    _coord.update(_edits)
    PROBE_FILES[_name] = json.dumps(
        {"dims": {_dim: {"meta": {}, "coordinates": [_coord]}}})
PROBE_FILES["list_dims_model.json"] = json.dumps({"dims": []})
# a cloud directory, and a pipeline config that runs
PROBE_FILES.update({
    "clouds/a.csv": "x,y,z\n0,0,0\n1,0,0\n0,1,0\n0,0,1\n",
    "clouds/b.csv": "x,y,z\n0,0,0\n2,0,0\n0,2,0\n0,0,2\n",
    "clouds/scores.csv": "id,score\na,0.5\nb,1.5\n",
    "toy_config.json": json.dumps({
        "corpus": {"kind": "synthetic", "n_per_class": 2, "n_points": 20},
        "filtration": {"kind": "rips", "max_scale": 1.9}, "n_repeats": 1,
        "forest": {"n_iter": 1, "k_folds": 2}}),
})
# pipeline configs whose sme_csv lacks the corpus ids, holds a nan, or is
# not UTF-8
for _name, _sme in (("sme_missing_id.json", "sme.csv"),
                    ("sme_nan.json", "nan_features.csv"),
                    ("sme_latin1.json", "latin1_sme.csv")):
    PROBE_FILES[_name] = json.dumps({
        "corpus": {"kind": "synthetic", "n_per_class": 2, "n_points": 20},
        "filtration": {"kind": "rips", "max_scale": 1.9},
        "feature_sets": ["SME"], "sme_csv": _sme})


@pytest.fixture()
def probe_dir(tmp_path):
    for name, body in PROBE_FILES.items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        if body is None:
            path.mkdir()
        elif isinstance(body, bytes):
            path.write_bytes(body)
        else:
            path.write_text(body)
    data = Dataset(np.array([[0.1], [0.2], [0.4]]), np.array([0, 1, 1]),
                   ["f"], ["a", "b", "c"])
    (tmp_path / "forest.json").write_text(forest_to_json(forest_fit(
        data, {"n_trees": 2, "max_depth": None, "min_samples_leaf": 1,
               "max_features": "sqrt"})))
    return tmp_path


@pytest.mark.parametrize("code, argv", [
    (2, "hexbin --transformed @transformed.csv --labels @short_labels.csv "
        "--dim 1"),
    (2, "hexbin --transformed @transformed.csv --labels "
        "@text_score_labels.csv --dim 1"),
    (2, "hexbin --transformed @empty.csv --labels @labels.csv --dim 1"),
    (2, "hexbin --transformed @short_transformed.csv --labels @labels.csv "
        "--dim 1"),
    (1, "hexbin --transformed @transformed.csv --labels @labels.csv "
        "--dim -1"),
    (1, "hexbin --transformed @a_dir --labels @labels.csv --dim 1"),
    (2, "featurize --transformed @transformed.csv --model @not_json.json"),
    (2, "featurize --transformed @header_only_transformed.csv "
        "--model @model.json"),
    (2, "featurize --transformed @transformed.csv --model @empty.json"),
    (2, "eval --features @features.csv --labels @labels.csv "
        "--model @not_json.json"),
    (2, "eval --features @features.csv --labels @labels.csv "
        "--model @empty.json"),
    (2, "eval --features @features.csv --labels @labels.csv "
        "--model @forest.json --ids @stable_ids.txt"),
    (2, "eval --features @renamed_features.csv --labels @labels.csv "
        "--model @forest.json"),
    (2, "train --features @nan_features.csv --labels @labels.csv"),
    (2, "correlate --cder @nan_features.csv --sme @sme.csv"),
    (2, "correlate --cder @features.csv --sme @inf_features.csv"),
    (2, "pipeline --config @sme_missing_id.json"),
    (2, "pipeline --config @sme_nan.json"),
    (2, "train --features @features.csv --labels @three_labels.csv"),
    (1, "pipeline --config @a_dir"),
    (2, "ph --corpus @negative_weight.json --filtration weighted-alpha"),
    (2, "ph --corpus @nan_point.json --filtration rips --max-scale 1.9"),
    (2, "ph --corpus @flat_points.json --filtration rips --max-scale 1.9"),
    (2, "ph --corpus @repeated_id.json --filtration rips --max-scale 1.9"),
    (2, "ph --corpus @nan_score.json --filtration rips --max-scale 1.9"),
    (1, "ingest --pdb-dir @pdb_dir_entry --scores-csv @pdb_scores.csv"),
    (2, "ingest --pdb-dir @pdb_latin1 --scores-csv @pdb_scores.csv"),
    (2, "ingest --pdb-dir @pdb_ok --scores-csv @nan_scores.csv"),
    (2, "pipeline --config @sme_latin1.json"),
    (2, "hexbin --transformed @transformed.csv --labels @labels.csv "
        "--dim 5"),
    (2, "hexbin --transformed @nan_transformed.csv --labels @labels.csv "
        "--dim 1"),
    (2, "hexbin --transformed @huge_dim_transformed.csv --labels @labels.csv "
        "--dim 1"),
    (2, "hexbin --transformed @negative_dim_transformed.csv "
        "--labels @labels.csv --dim 1"),
    (2, "cder-fit --transformed @nan_transformed.csv --labels @labels.csv "
        "--dims 1"),
    (2, "cder-fit --transformed @far_transformed.csv --labels @labels.csv "
        "--dims 1"),
    (2, "cder-fit --transformed @header_only_transformed.csv "
        "--labels @labels.csv --dims 1"),
    (2, "hexbin --transformed @transformed.csv --labels "
        "@nan_score_labels.csv --dim 1"),
    (2, "hexbin --transformed @transformed.csv --labels "
        "@repeated_labels.csv --dim 1"),
    (2, "train --features @ids_only.csv --labels @six_labels.csv "
        "--n-iter 1 --k-folds 2"),
    (2, "eval --features @ids_only.csv --labels @six_labels.csv "
        "--model @no_feature_forest.json"),
    (2, "eval --features @features.csv --labels @labels.csv "
        "--model @child_out_of_range.json"),
    (2, "eval --features @features.csv --labels @labels.csv "
        "--model @feature_out_of_range.json"),
    (2, "eval --features @features.csv --labels @labels.csv "
        "--model @null_leaf.json"),
    (2, "eval --features @features.csv --labels @labels.csv "
        "--model @no_trees_forest.json"),
    (2, "featurize --transformed @transformed.csv "
        "--model @nan_mean_model.json"),
    (2, "featurize --transformed @transformed.csv "
        "--model @indefinite_cov_model.json"),
    (2, "featurize --transformed @transformed.csv "
        "--model @asymmetric_cov_model.json"),
    (2, "featurize --transformed @transformed.csv "
        "--model @inf_weight_model.json"),
    (2, "featurize --transformed @transformed.csv "
        "--model @negative_dim_model.json"),
    (2, "featurize --transformed @transformed.csv "
        "--model @text_dim_model.json"),
    (2, "featurize --transformed @transformed.csv "
        "--model @list_dims_model.json"),
    # a seed is a non-negative integer, on every command that takes one
    (1, "synth --shape sphere --n-samples 2 --n-points 10 --seed -1"),
    (1, "train --features @six_features.csv --labels @six_labels.csv "
        "--n-iter 1 --k-folds 2 --seed -1"),
    (1, "pipeline --config @toy_config.json --seed -1"),
    (1, "ingest --cloud-dir @clouds --scores-csv @clouds/scores.csv "
        "--seed -1"),
    # ingest --threshold takes the config's threshold rule, and a corpus
    # left with one class is a data error
    (1, "ingest --cloud-dir @clouds --scores-csv @clouds/scores.csv "
        "--threshold nan"),
    (1, "ingest --cloud-dir @clouds --scores-csv @clouds/scores.csv "
        "--threshold inf"),
    (2, "ingest --cloud-dir @clouds --scores-csv @clouds/scores.csv "
        "--threshold 9"),
    (2, "ingest --pdb-dir @pdb_ok --scores-csv @pdb_scores.csv "
        "--threshold -1"),
    # --jobs is an integer >= 1
    (1, "ph --corpus @tetra.json --filtration rips --max-scale 1.9 "
        "--jobs 0"),
    # the weighted-alpha complex stops at tetrahedra
    (1, "ph --corpus @tetra.json --filtration weighted-alpha --max-dim 4"),
    (1, "ph --corpus @tetra.json --filtration rips --max-scale 1.9 "
        "--jobs -3"),
    (1, "pipeline --config @toy_config.json --jobs 0"),
    # --out names a file where a directory belongs
    (1, "synth --shape sphere --n-samples 2 --n-points 10 --out @labels.csv"),
    (1, "ph --corpus @tetra.json --filtration rips --max-scale 1.9 "
        "--out @labels.csv"),
    (1, "train --features @features.csv --labels @labels.csv "
        "--out @labels.csv"),
    (1, "eval --features @features.csv --labels @labels.csv "
        "--model @forest.json --out @labels.csv"),
    (1, "pipeline --config @toy_config.json --out @labels.csv"),
    # --out names a directory where a file belongs
    (1, "ingest --cloud-dir @clouds --scores-csv @clouds/scores.csv "
        "--out @a_dir"),
    (1, "cder-fit --transformed @transformed.csv --labels @labels.csv "
        "--dims 1 --out @a_dir"),
    (1, "featurize --transformed @transformed.csv --model @model.json "
        "--out @a_dir"),
    (1, "correlate --cder @features.csv --sme @sme.csv --out @a_dir"),
    (1, "hexbin --transformed @transformed.csv --labels @labels.csv --dim 1 "
        "--out @a_dir"),
])
def test_bad_input_exits_with_one_line(probe_dir, capsys, code, argv):
    tokens = [str(probe_dir / t[1:]) if t.startswith("@") else t
              for t in argv.split()]
    if "--out" not in tokens:
        tokens += ["--out", str(probe_dir / "out")]
    assert run(tokens) == code
    out, err = capsys.readouterr()
    assert err.startswith(("config error:", "data error:"))
    assert err.count("\n") == 1, err
    assert "Traceback" not in out + err
    # a config error is found before any output is made
    assert code == 2 or not (probe_dir / "out").exists()


@pytest.mark.parametrize("argv", [
    "hexbin --transformed @transformed.csv --labels @labels.csv --dim 1 "
    "--side 1e-300",
    "hexbin --transformed @ulp_transformed.csv --labels @labels.csv --dim 1",
])
def test_hexbin_off_the_int64_lattice_writes_nothing(probe_dir, capsys, argv):
    tokens = [str(probe_dir / t[1:]) if t.startswith("@") else t
              for t in argv.split()]
    assert run(tokens + ["--out", str(probe_dir / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: hex side ")
    assert err.count("\n") == 1, err
    assert not (probe_dir / "out.csv").exists()


BAD_FOREST_SPACES = {
    "no trees": ({"n_trees": [0]}, "n_trees must be an integer >= 1"),
    "misspelt option": ({"n_tree": [3]},
                        "unknown forest space keys: ['n_tree']"),
    "negative depth": ({"max_depth": [None, -2]},
                       "max_depth must be null or an integer >= 0"),
    "empty leaves": ({"min_samples_leaf": [0]},
                     "min_samples_leaf must be an integer >= 1"),
    "fractional trees": ({"n_trees": [2.5]},
                         "n_trees must be an integer >= 1"),
    "boolean trees": ({"n_trees": [True]}, "n_trees must be an integer >= 1"),
    "bootstrap not a bool": ({"bootstrap": [1]},
                             "bootstrap must be true or false"),
    "bad max_features": ({"max_features": ["half"]}, "max_features"),
    "boolean max_features": ({"max_features": [True]}, "max_features"),
}


@pytest.mark.parametrize("case", sorted(BAD_FOREST_SPACES))
@pytest.mark.parametrize("command", ["train", "pipeline"])
def test_bad_forest_space_exits_one(probe_dir, capsys, command, case):
    space, message = BAD_FOREST_SPACES[case]
    if command == "train":
        path = probe_dir / "space.json"
        path.write_text(json.dumps(space))
        argv = ["train", "--features", str(probe_dir / "features.csv"),
                "--labels", str(probe_dir / "labels.csv"),
                "--space", str(path)]
    else:
        path = probe_dir / "config.json"
        path.write_text(json.dumps({
            "corpus": {"kind": "synthetic", "n_per_class": 2,
                       "n_points": 20},
            "filtration": {"kind": "rips", "max_scale": 1.9},
            "forest": {"space": space}}))
        argv = ["pipeline", "--config", str(path)]
    assert run(argv + ["--out", str(probe_dir / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert message in err
    assert not (probe_dir / "out").exists()


class TestSynthAndIngest:
    def test_synth_writes_clouds_and_scores(self, tmp_path):
        out = synth_dir(tmp_path, n_samples=3, n_points=25)
        names = sorted(os.listdir(out))
        assert "scores.csv" in names
        assert "sphere_000.csv" in names and "figure8_002.csv" in names
        first = (out / "sphere_000.csv").read_text().splitlines()
        assert first[0] == "x,y,z"
        assert len(first) == 26
        scores = (out / "scores.csv").read_text().splitlines()
        assert scores[0] == "id,score"
        assert len(scores) == 7

    def test_ingest_cloud_dir(self, tmp_path):
        out = synth_dir(tmp_path, n_samples=3, n_points=25)
        corpus = tmp_path / "corpus.json"
        code = run(["ingest", "--cloud-dir", str(out),
                    "--scores-csv", str(out / "scores.csv"),
                    "--out", str(corpus)])
        assert code == 0
        body = json.loads(corpus.read_text())
        # every csv of the directory but scores.csv is a cloud
        assert [s["id"] for s in body["samples"]] == sorted(
            p.stem for p in out.glob("*.csv") if p.name != "scores.csv")
        assert len(body["samples"]) == 6
        sample = body["samples"][0]
        assert set(sample) == {"id", "score", "label", "points", "weights"}
        assert (tmp_path / "labels.csv").is_file()

    @pytest.mark.parametrize("link", [False, True])
    def test_ingest_out_must_not_be_its_labels_csv(self, tmp_path, capsys,
                                                   link):
        # the labels table would overwrite the corpus; a symlink to
        # labels.csv beside it is the same file
        clouds = synth_dir(tmp_path, n_samples=2, n_points=10)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        out = run_dir / "labels.csv"
        if link:
            out = run_dir / "corpus.json"
            out.symlink_to("labels.csv")
        code = run(["ingest", "--cloud-dir", str(clouds),
                    "--scores-csv", str(clouds / "scores.csv"),
                    "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"config error: --out {out} is the labels.csv that "
                       f"ingest writes beside the corpus\n")
        assert [p.name for p in run_dir.iterdir()] == ([out.name] if link
                                                       else [])
        assert not (run_dir / "labels.csv").exists()

    def test_corpus_json_is_compact_and_indented_files_load(self, tmp_path):
        out = synth_dir(tmp_path, n_samples=2, n_points=10)
        corpus = tmp_path / "corpus.json"
        assert run(["ingest", "--cloud-dir", str(out),
                    "--scores-csv", str(out / "scores.csv"),
                    "--out", str(corpus)]) == 0
        text = corpus.read_text()
        assert text.count("\n") == 1 and ", " not in text
        body = json.loads(text)
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(body, indent=2))
        for path in (corpus, indented):
            samples = cli._load_corpus(str(path))
            assert [s.id for s in samples] == \
                [s["id"] for s in body["samples"]]
            assert [s.points.tolist() for s in samples] == \
                [s["points"] for s in body["samples"]]

    @pytest.mark.parametrize("case", ["1,2,x", "1,2", "", "no header"])
    def test_bad_cloud_csv_names_its_line(self, tmp_path, capsys, case):
        body, detail = {
            "1,2,x": ("x,y,z\n0,0,0\n1,2,x\n",
                      "line 3, column 'z': 'x' is non-numeric or non-finite"),
            "1,2": ("x,y,z\n0,0,0\n1,2\n",
                    "line 3, column 'z': 2 cells, but the header has 3"),
            "": ("x,y,z\n", "no points"),
            "no header": ("0.5,0,0\n0,0,0\n1,2,3\n3,2,1\n",
                          "line 1, column '0.5': expected 'x'"),
        }[case]
        out = synth_dir(tmp_path, n_samples=1, n_points=10)
        cloud = min(p for p in out.glob("*.csv") if p.name != "scores.csv")
        cloud.write_text(body)
        code = run(["ingest", "--cloud-dir", str(out),
                    "--scores-csv", str(out / "scores.csv"),
                    "--out", str(tmp_path / "c.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"data error: bad cloud csv {cloud}: {detail}\n"

    def test_ingest_requires_exactly_one_input_kind(self, tmp_path, capsys):
        out = synth_dir(tmp_path, n_samples=2, n_points=10)
        args = ["--scores-csv", str(out / "scores.csv"),
                "--out", str(tmp_path / "c.json")]
        assert run(["ingest"] + args) == 1
        assert run(["ingest", "--cloud-dir", str(out), "--pdb-dir",
                    str(out)] + args) == 1

    @pytest.mark.parametrize("coords, element, message", [
        ("  11.104   6.134   1.0xx", " N",
         "unparseable coordinates on line 1: "),
        ("  11.104   6.134  -6.504", "Qq", "no radius known for element "),
    ])
    def test_pdb_error_names_the_file(self, tmp_path, capsys, coords,
                                      element, message):
        pdb_dir = tmp_path / "pdb"
        pdb_dir.mkdir()
        (pdb_dir / "a_1.pdb").write_text(
            f"ATOM      1  N   MET A   1    {coords}  1.00  0.00"
            f"          {element}  \n")
        (tmp_path / "scores.csv").write_text("id,score\na_1,0.5\n")
        code = run(["ingest", "--pdb-dir", str(pdb_dir),
                    "--scores-csv", str(tmp_path / "scores.csv"),
                    "--out", str(tmp_path / "c.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"data error: bad pdb file "
                              f"{pdb_dir / 'a_1.pdb'}: {message}"), err
        assert err.count("\n") == 1

    def test_file_outputs_create_missing_directories(self, tmp_path):
        clouds = synth_dir(tmp_path, n_samples=3, n_points=25)
        out = tmp_path / "missing" / "sub"
        assert run(["ingest", "--cloud-dir", str(clouds),
                    "--scores-csv", str(clouds / "scores.csv"),
                    "--out", str(out / "c.json")]) == 0
        assert run(["ph", "--corpus", str(out / "c.json"),
                    "--filtration", "rips", "--max-scale", "1.9",
                    "--out", str(tmp_path / "ph")]) == 0
        hexbin = tmp_path / "missing2" / "sub" / "hexbin_h1.csv"
        assert run(["hexbin", "--transformed",
                    str(tmp_path / "ph" / "transformed.csv"),
                    "--labels", str(out / "labels.csv"), "--dim", "1",
                    "--out", str(hexbin)]) == 0
        assert (out / "c.json").is_file() and hexbin.is_file()


class TestSubcommandChain:
    @pytest.fixture()
    def workspace(self, tmp_path):
        clouds = synth_dir(tmp_path)
        corpus = tmp_path / "corpus.json"
        assert run(["ingest", "--cloud-dir", str(clouds),
                    "--scores-csv", str(clouds / "scores.csv"),
                    "--out", str(corpus)]) == 0
        ph = tmp_path / "ph"
        assert run(["ph", "--corpus", str(corpus), "--filtration", "rips",
                    "--max-scale", "1.9", "--max-dim", "2",
                    "--dims", "0,1", "--out", str(ph)]) == 0
        return tmp_path

    def test_chain_through_eval_and_hexbin(self, workspace, capsys):
        ws = workspace
        transformed = ws / "ph" / "transformed.csv"
        labels = ws / "labels.csv"
        model = ws / "model.json"
        assert run(["cder-fit", "--transformed", str(transformed),
                    "--labels", str(labels), "--out", str(model)]) == 0

        features = ws / "features.csv"
        assert run(["featurize", "--transformed", str(transformed),
                    "--model", str(model), "--out", str(features)]) == 0
        head = features.read_text().splitlines()[0]
        assert head.startswith("id,cder_h")

        train_dir = ws / "train"
        assert run(["train", "--features", str(features),
                    "--labels", str(labels), "--k-folds", "2",
                    "--n-iter", "1", "--out", str(train_dir)]) == 0
        out = capsys.readouterr().out
        assert "APS" in out
        for name in ("forest.json", "best_params.json", "importance.csv"):
            assert (train_dir / name).is_file()

        eval_dir = ws / "eval"
        assert run(["eval", "--features", str(features),
                    "--labels", str(labels),
                    "--model", str(train_dir / "forest.json"),
                    "--out", str(eval_dir)]) == 0
        metrics = json.loads((eval_dir / "metrics.json").read_text())
        assert 0.0 <= metrics["aps"] <= 1.0
        preds = (eval_dir / "predictions.csv").read_text().splitlines()
        assert preds[0] == "id,proba_unstable,truth"
        assert len(preds) == 11

        hexcsv = ws / "h1.csv"
        assert run(["hexbin", "--transformed", str(transformed),
                    "--labels", str(labels), "--dim", "1",
                    "--out", str(hexcsv)]) == 0
        assert hexcsv.read_text().splitlines()[0] == \
            "hex_center_u,hex_center_v,signed_count,log_signed_value"

    def test_cder_fit_ignores_held_out_rows(self, workspace):
        ws = workspace
        transformed = ws / "ph" / "transformed.csv"
        labels = ws / "labels.csv"
        ids = sorted({line.split(",")[0] for line
                      in labels.read_text().splitlines()[1:]})
        train = ids[:8]
        (ws / "train_ids.txt").write_text("\n".join(train) + "\n")

        args = ["cder-fit", "--transformed", str(transformed),
                "--labels", str(labels),
                "--train-ids", str(ws / "train_ids.txt")]
        assert run(args + ["--out", str(ws / "m1.json")]) == 0

        held_out = set(ids) - set(train)
        lines = transformed.read_text().splitlines()
        mutated = [lines[0]]
        for line in lines[1:]:
            sid, dim, u, v = line.split(",")
            if sid in held_out:
                u = repr(float(u) + 50.0)
            mutated.append(f"{sid},{dim},{u},{v}")
        transformed.write_text("\n".join(mutated) + "\n")
        assert run(args + ["--out", str(ws / "m2.json")]) == 0
        assert (ws / "m1.json").read_bytes() == (ws / "m2.json").read_bytes()

    def test_cder_model_records_the_parameters_it_used(self, workspace):
        # no region can hold a mass of 2, so every dim has no coordinate
        ws = workspace
        assert run(["cder-fit", "--transformed",
                    str(ws / "ph" / "transformed.csv"),
                    "--labels", str(ws / "labels.csv"), "--min-mass", "2",
                    "--out", str(ws / "model.json")]) == 0
        dims = json.loads((ws / "model.json").read_text())["dims"]
        assert sorted(dims) == ["0", "1"]
        for body in dims.values():
            assert body["coordinates"] == []
            assert body["meta"] == {"entropy_threshold": 0.3,
                                    "min_mass": 2.0,
                                    "note": "no regions found"}

    def test_correlate_requires_matching_ids(self, workspace, capsys):
        ws = workspace
        transformed = ws / "ph" / "transformed.csv"
        labels = ws / "labels.csv"
        model = ws / "model.json"
        assert run(["cder-fit", "--transformed", str(transformed),
                    "--labels", str(labels), "--out", str(model)]) == 0
        features = ws / "features.csv"
        assert run(["featurize", "--transformed", str(transformed),
                    "--model", str(model), "--out", str(features)]) == 0

        sme = ws / "sme.csv"
        sme.write_text("id,bulk\nsphere_000,1.0\n")
        code = run(["correlate", "--cder", str(features), "--sme", str(sme),
                    "--out", str(ws / "corr.csv")])
        assert code == 2

        rows = ["id,bulk"]
        for line in features.read_text().splitlines()[1:]:
            rows.append(f"{line.split(',')[0]},1.5")
        sme.write_text("\n".join(rows) + "\n")
        assert run(["correlate", "--cder", str(features), "--sme", str(sme),
                    "--out", str(ws / "corr.csv")]) == 0
        assert (ws / "corr.csv").read_text().splitlines()[0] == \
            "cder_feature,sme_feature,r"

    def test_correlate_needs_two_samples(self, tmp_path, capsys):
        cder_csv = tmp_path / "cder.csv"
        cder_csv.write_text("id,cder_h0_0\nsphere_000,1.0\n")
        sme_csv = tmp_path / "sme.csv"
        sme_csv.write_text("id,bulk\nsphere_000,2.0\n")
        code = run(["correlate", "--cder", str(cder_csv), "--sme",
                    str(sme_csv), "--out", str(tmp_path / "corr.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: correlation needs at least two samples; feature "
            f"tables {cder_csv} and {sme_csv} share 1\n")
        assert not (tmp_path / "corr.csv").exists()


class TestSameBytesAsPipeline:
    def test_subcommands_write_the_pipeline_artifacts(self, tmp_path):
        clouds = synth_dir(tmp_path)
        corpus = tmp_path / "corpus.json"
        assert run(["ingest", "--cloud-dir", str(clouds),
                    "--scores-csv", str(clouds / "scores.csv"),
                    "--out", str(corpus)]) == 0
        ph = tmp_path / "ph"
        assert run(["ph", "--corpus", str(corpus), "--filtration", "rips",
                    "--max-scale", "1.9", "--max-dim", "2", "--dims", "0,1",
                    "--subsample", "30", "--out", str(ph)]) == 0
        assert run(["hexbin", "--transformed", str(ph / "transformed.csv"),
                    "--labels", str(tmp_path / "labels.csv"), "--dim", "1",
                    "--out", str(tmp_path / "hexbin_h1.csv")]) == 0

        cfg = pipeline.parse_config({
            "corpus": {"kind": "synthetic", "n_per_class": 5,
                       "n_points": 40, "noise": 0.05},
            "filtration": {"kind": "rips", "max_scale": 1.9, "max_dim": 2},
            "dims": [0, 1], "subsample_points": 30, "n_repeats": 1,
            "forest": {"space": {"n_trees": [5], "max_depth": [None],
                                 "min_samples_leaf": [1],
                                 "max_features": ["sqrt"]},
                       "n_iter": 1, "k_folds": 2}})
        pipeline.run_pipeline(cfg, str(tmp_path / "runs"))
        run_dir = tmp_path / "runs" / "run_seed0"
        for got in (tmp_path / "labels.csv", ph / "diagrams.csv",
                    ph / "transformed.csv", tmp_path / "hexbin_h1.csv"):
            assert got.read_bytes() == (run_dir / got.name).read_bytes(), \
                got.name

    @pytest.mark.parametrize("mode", [None, "extremes", "random"])
    def test_pdb_ingest_matches_the_pipeline_corpus(self, tmp_path, mode):
        # hand-made PDB files: four spheres and five figure-8s, one atom per
        # point, with a score per file so that downsampling has a choice
        pdb_dir = tmp_path / "pdb"
        pdb_dir.mkdir()
        clouds = [c for c in synth.make_toy_corpus(5, 30, 0.05, seed=1)
                  if c.id != "sphere_004"]
        for k, c in enumerate(clouds):
            elements = ["C", "N", "O", "S", "H"] * 6
            (pdb_dir / f"{c.id}.pdb").write_text("".join(
                f"ATOM  {n + 1:5d} {e:<4s} GLY A   1    "
                f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00          {e:>2s}\n"
                for n, ((x, y, z), e) in enumerate(zip(c.points, elements))))
        scores = tmp_path / "scores.csv"
        scores.write_text("id,score\n" + "".join(
            f"{c.id},{c.score + k / 10}\n" for k, c in enumerate(clouds)))

        flags = ["--downsample", mode] if mode else []
        assert run(["ingest", "--pdb-dir", str(pdb_dir), "--scores-csv",
                    str(scores), *flags,
                    "--out", str(tmp_path / "ingest" / "corpus.json")]) == 0
        cfg = pipeline.parse_config({
            "corpus": {"kind": "pdb", "pdb_dir": str(pdb_dir),
                       "scores_csv": str(scores), "downsample": mode},
            "filtration": {"kind": "rips", "max_scale": 1.9, "max_dim": 2},
            "n_repeats": 1,
            "forest": {"space": {"n_trees": [5]}, "n_iter": 1,
                       "k_folds": 2}})
        pipeline.run_pipeline(cfg, str(tmp_path / "runs"))

        labels = (tmp_path / "ingest" / "labels.csv").read_bytes()
        assert labels == (tmp_path / "runs" / "run_seed0" /
                          "labels.csv").read_bytes()
        assert labels.count(b"\n") == (10 if mode is None else 9)
        got = cli._load_corpus(str(tmp_path / "ingest" / "corpus.json"))
        want = pipeline.build_corpus(cfg)
        assert [(s.id, s.score, s.label) for s in got] == \
            [(s.id, s.score, s.label) for s in want]
        for a, b in zip(got, want):
            assert a.points.tobytes() == b.points.tobytes()
            assert a.weights.tobytes() == b.weights.tobytes()
            assert set(a.weights) <= {1.2, 1.55, 1.52, 1.7, 1.8}

    def test_ph_writes_no_top_dimension_rows(self, tmp_path):
        clouds = synth_dir(tmp_path)
        corpus = tmp_path / "corpus.json"
        assert run(["ingest", "--cloud-dir", str(clouds),
                    "--scores-csv", str(clouds / "scores.csv"),
                    "--out", str(corpus)]) == 0
        for max_dim in (1, 2):
            ph = tmp_path / f"ph{max_dim}"
            assert run(["ph", "--corpus", str(corpus), "--filtration",
                        "rips", "--max-scale", "1.9", "--max-dim",
                        str(max_dim), "--out", str(ph)]) == 0
            rows = (ph / "diagrams.csv").read_text().splitlines()[1:]
            dims = {int(row.split(",")[1]) for row in rows}
            assert dims == set(range(max_dim))


class TestFlagDefaults:
    """A flag left out takes the default of the config section it fills."""

    def test_weighted_alpha_ph_defaults_to_max_dim_3(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = []
        for k in range(2):
            g = rng.normal(size=(40, 3))
            samples.append({"id": f"s{k}", "score": float(k),
                            "label": "stable" if k else "unstable",
                            "points": (g / np.linalg.norm(
                                g, axis=1, keepdims=True)).tolist(),
                            "weights": [0.0] * 40})
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps({"samples": samples}))
        ph = tmp_path / "ph"
        assert run(["ph", "--corpus", str(corpus), "--filtration",
                    "weighted-alpha", "--out", str(ph)]) == 0
        for name in ("diagrams.csv", "transformed.csv"):
            rows = (ph / name).read_text().splitlines()[1:]
            assert {int(row.split(",")[1]) for row in rows} == {0, 1, 2}

    def test_train_takes_the_forest_section_defaults(self, tmp_path,
                                                     monkeypatch):
        features = tmp_path / "features.csv"
        labels = tmp_path / "labels.csv"
        features.write_text("id,f\n" + "".join(
            f"s{k},{k / 10}\n" for k in range(10)))
        labels.write_text("id,score,label\n" + "".join(
            f"s{k},{k / 10},{'stable' if k < 5 else 'unstable'}\n"
            for k in range(10)))
        seen = []

        def search(data, space, n_iter, k_folds, seed):
            seen.append((n_iter, k_folds))
            return real(data, {"n_trees": [2]}, n_iter=1, k_folds=2,
                        seed=seed)

        real = cli.random_search_cv
        monkeypatch.setattr(cli, "random_search_cv", search)
        for flags, want in (([], (4, 10)),
                            (["--n-iter", "2", "--k-folds", "3"], (2, 3))):
            assert run(["train", "--features", str(features), "--labels",
                        str(labels), *flags,
                        "--out", str(tmp_path / "train")]) == 0
            assert seen.pop() == want


class TestPipelineCommand:
    def test_pipeline_prints_summary(self, tmp_path, capsys):
        config = {
            "corpus": {"kind": "synthetic", "n_per_class": 5,
                       "n_points": 40, "noise": 0.05},
            "filtration": {"kind": "rips", "max_scale": 1.9, "max_dim": 2},
            "dims": [0, 1],
            "n_repeats": 2,
            "forest": {"space": {"n_trees": [10], "max_depth": [None],
                                 "min_samples_leaf": [1],
                                 "max_features": ["sqrt"]},
                       "n_iter": 1, "k_folds": 2},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = run(["pipeline", "--config", str(path),
                    "--out", str(tmp_path / "runs")])
        assert code == 0
        out = capsys.readouterr().out
        assert "CDER: APS" in out
        assert "over 2 repeats" in out
        assert (tmp_path / "runs" / "run_seed0" / "report.json").is_file()

    def test_seed_override_changes_run_dir(self, tmp_path):
        config = {
            "corpus": {"kind": "synthetic", "n_per_class": 5,
                       "n_points": 40, "noise": 0.05},
            "filtration": {"kind": "rips", "max_scale": 1.9, "max_dim": 2},
            "n_repeats": 1,
            "forest": {"space": {"n_trees": [5], "max_depth": [None],
                                 "min_samples_leaf": [1],
                                 "max_features": ["sqrt"]},
                       "n_iter": 1, "k_folds": 2},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = run(["pipeline", "--config", str(path), "--seed", "9",
                    "--out", str(tmp_path / "runs")])
        assert code == 0
        report = json.loads(
            (tmp_path / "runs" / "run_seed9" / "report.json").read_text())
        assert report["seed"] == 9
