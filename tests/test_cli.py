from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from topostab import cli, pipeline
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

    def test_data_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "corpus.json"
        bad.write_text(json.dumps({"samples": [
            {"id": "x", "score": 0.0, "label": "unstable",
             "points": [[0.0, 0.0, 0.0]], "weights": [1.0, 2.0]}]}))
        code = run(["ph", "--corpus", str(bad), "--filtration", "rips",
                    "--max-scale", "1.0", "--out", str(tmp_path / "ph")])
        assert code == 2
        assert "data error:" in capsys.readouterr().err


# small artifacts for the bad-input probes; a token @name in a probe's argv
# stands for the path of name in the probe directory
PROBE_FILES = {
    "transformed.csv": "id,dim,u,v\na,1,0.1,0.2\n",
    "empty.csv": "",
    "short_transformed.csv": "id,dim,u,v\na,1\n",
    "labels.csv": "id,score,label\na,0.5,stable\nb,1.5,unstable\n"
                  "c,1.6,unstable\n",
    "short_labels.csv": "id,score,label\na,0.5\n",
    "text_score_labels.csv": "id,score,label\na,abc,stable\n",
    "three_labels.csv": "id,score,label\na,0.5,stable\nb,1.5,unstable\n"
                        "c,0.9,maybe\n",
    "features.csv": "id,f\na,0.1\nb,0.2\nc,0.4\n",
    "nan_features.csv": "id,f\na,0.1\nb,nan\nc,0.4\n",
    "inf_features.csv": "id,f\na,0.1\nb,inf\nc,0.4\n",
    "sme.csv": "id,g\na,1.0\nb,3.0\nc,2.0\n",
    "not_json.json": "not json",
    "empty.json": "{}",
    "stable_ids.txt": "a\n",
}
# pipeline configs whose sme_csv lacks the corpus ids, or holds a nan
for _name, _sme in (("sme_missing_id.json", "sme.csv"),
                    ("sme_nan.json", "nan_features.csv")):
    PROBE_FILES[_name] = json.dumps({
        "corpus": {"kind": "synthetic", "n_per_class": 2, "n_points": 20},
        "filtration": {"kind": "rips", "max_scale": 1.9},
        "feature_sets": ["SME"], "sme_csv": _sme})


@pytest.fixture()
def probe_dir(tmp_path):
    for name, text in PROBE_FILES.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "a_dir").mkdir()
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
    (2, "featurize --transformed @transformed.csv --model @empty.json"),
    (2, "eval --features @features.csv --labels @labels.csv "
        "--model @not_json.json"),
    (2, "eval --features @features.csv --labels @labels.csv "
        "--model @empty.json"),
    (2, "eval --features @features.csv --labels @labels.csv "
        "--model @forest.json --ids @stable_ids.txt"),
    (2, "correlate --cder @features.csv --sme @sme.csv --model @not_json.json "
        "--importance-out @imp.csv"),
    (2, "correlate --cder @features.csv --sme @sme.csv --model @empty.json "
        "--importance-out @imp.csv"),
    (2, "train --features @nan_features.csv --labels @labels.csv"),
    (2, "correlate --cder @nan_features.csv --sme @sme.csv"),
    (2, "correlate --cder @features.csv --sme @inf_features.csv"),
    (2, "pipeline --config @sme_missing_id.json"),
    (2, "pipeline --config @sme_nan.json"),
    (2, "train --features @features.csv --labels @three_labels.csv"),
    (1, "pipeline --config @a_dir"),
])
def test_bad_input_exits_with_one_line(probe_dir, capsys, code, argv):
    tokens = [str(probe_dir / t[1:]) if t.startswith("@") else t
              for t in argv.split()]
    assert run(tokens + ["--out", str(probe_dir / "out")]) == code
    out, err = capsys.readouterr()
    assert err.startswith(("config error:", "data error:"))
    assert err.count("\n") == 1, err
    assert "Traceback" not in out + err


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
        assert len(body["samples"]) == 6
        sample = body["samples"][0]
        assert set(sample) == {"id", "score", "label", "points", "weights"}
        assert (tmp_path / "labels.csv").is_file()

    def test_ingest_requires_exactly_one_input_kind(self, tmp_path, capsys):
        out = synth_dir(tmp_path, n_samples=2, n_points=10)
        args = ["--scores-csv", str(out / "scores.csv"),
                "--out", str(tmp_path / "c.json")]
        assert run(["ingest"] + args) == 1
        assert run(["ingest", "--cloud-dir", str(out), "--pdb-dir",
                    str(out)] + args) == 1

    def test_ingest_vdw_needs_pdb(self, tmp_path, capsys):
        out = synth_dir(tmp_path, n_samples=2, n_points=10)
        code = run(["ingest", "--cloud-dir", str(out),
                    "--scores-csv", str(out / "scores.csv"),
                    "--weights", "vdw", "--out", str(tmp_path / "c.json")])
        assert code == 1
        assert "vdw" in capsys.readouterr().err

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
        assert err.startswith(f"data error: a_1.pdb: {message}"), err
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

    def test_correlate_importance_needs_model(self, workspace):
        ws = workspace
        code = run(["correlate", "--cder", str(ws / "x.csv"),
                    "--sme", str(ws / "y.csv"),
                    "--importance-out", str(ws / "imp.csv"),
                    "--out", str(ws / "corr.csv")])
        assert code == 1


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
