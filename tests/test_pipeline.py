from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from topostab import cder, persistence, pipeline, synth
from topostab.complexes import build_rips
from topostab.errors import ConfigError, DataError
from topostab.pipeline import parse_config


def base_config(**extra):
    raw = {
        "corpus": {"kind": "synthetic", "n_per_class": 5, "n_points": 40,
                   "noise": 0.05},
        "filtration": {"kind": "rips", "max_scale": 1.9, "max_dim": 2},
        "dims": [0, 1],
    }
    raw.update(extra)
    return raw


def micro_config(**extra):
    raw = base_config(
        n_repeats=2,
        forest={"space": {"n_trees": [10], "max_depth": [None],
                          "min_samples_leaf": [1], "max_features": ["sqrt"]},
                "n_iter": 1, "k_folds": 2},
    )
    raw.update(extra)
    return raw


def tree_digest(root):
    digest = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest[os.path.relpath(path, root)] = \
                    hashlib.sha256(fh.read()).hexdigest()
    return digest


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(base_config())
        assert cfg.dims == [0, 1]
        assert cfg.threshold == 1.0
        assert cfg.split_fraction == 0.8
        assert cfg.n_repeats == 10
        assert cfg.seed == 0
        assert cfg.feature_sets == ["CDER"]
        assert cfg.forest["n_iter"] == 4
        assert cfg.forest["k_folds"] == 10
        assert cfg.forest["space"] == pipeline.DEFAULT_FOREST_SPACE
        assert cfg.subsample_points is None
        assert cfg.hexbin_side is None

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(base_config(verbose=True))

    def test_unknown_corpus_key(self):
        raw = base_config()
        raw["corpus"]["n_shapes"] = 3
        with pytest.raises(ConfigError, match="unknown synthetic"):
            parse_config(raw)

    def test_unknown_corpus_kind(self):
        raw = base_config()
        raw["corpus"]["kind"] = "parquet"
        with pytest.raises(ConfigError, match="corpus kind"):
            parse_config(raw)

    def test_synthetic_bounds(self):
        raw = base_config()
        raw["corpus"]["n_points"] = 3
        with pytest.raises(ConfigError, match="n_points"):
            parse_config(raw)
        raw = base_config()
        raw["corpus"]["n_per_class"] = 0
        with pytest.raises(ConfigError, match="n_per_class"):
            parse_config(raw)
        raw["corpus"]["n_per_class"] = "q"
        with pytest.raises(ConfigError, match="n_per_class"):
            parse_config(raw)

    def test_pdb_paths_must_exist(self, tmp_path):
        raw = base_config()
        raw["corpus"] = {"kind": "pdb", "pdb_dir": "nope",
                         "scores_csv": "nope.csv"}
        with pytest.raises(ConfigError, match="pdb_dir not found"):
            parse_config(raw, base_dir=str(tmp_path))

    def test_rips_needs_max_scale(self):
        raw = base_config()
        del raw["filtration"]["max_scale"]
        with pytest.raises(ConfigError, match="max_scale"):
            parse_config(raw)

    def test_unknown_filtration_key(self):
        raw = base_config()
        raw["filtration"]["pruning"] = True
        with pytest.raises(ConfigError, match="unknown rips keys"):
            parse_config(raw)

    def test_weighted_alpha_default_max_dim(self):
        raw = base_config()
        raw["filtration"] = {"kind": "weighted-alpha"}
        raw["dims"] = [0, 1, 2]
        cfg = parse_config(raw)
        assert cfg.filtration["max_dim"] == 3

    def test_dims_must_stay_below_max_dim(self):
        raw = base_config(dims=[0, 2])
        with pytest.raises(ConfigError, match="below the filtration"):
            parse_config(raw)

    def test_dims_dedupe_and_sort(self):
        cfg = parse_config(base_config(dims=[1, 0, 1]))
        assert cfg.dims == [0, 1]

    def test_unknown_cder_key(self):
        with pytest.raises(ConfigError, match="unknown cder keys"):
            parse_config(base_config(cder={"bandwidth": 1.0}))
        with pytest.raises(ConfigError, match="entropy_threshold"):
            parse_config(base_config(cder={"entropy_threshold": 2}))

    def test_forest_space_shape(self):
        raw = base_config(forest={"space": {"n_trees": []}})
        with pytest.raises(ConfigError, match="non-empty option lists"):
            parse_config(raw)
        raw = base_config(forest={"space": {"max_features": ["bogus"]}})
        with pytest.raises(ConfigError, match="max_features"):
            parse_config(raw)

    def test_feature_sets_validated(self):
        with pytest.raises(ConfigError, match="unknown feature sets"):
            parse_config(base_config(feature_sets=["PCA"]))
        with pytest.raises(ConfigError, match="duplicates"):
            parse_config(base_config(feature_sets=["CDER", "CDER"]))

    def test_feature_sets_reordered_canonically(self, tmp_path):
        sme = tmp_path / "sme.csv"
        sme.write_text("id,a\nx,1\n")
        raw = base_config(feature_sets=["CDER+SME", "CDER", "SME"],
                          sme_csv=str(sme))
        cfg = parse_config(raw, base_dir=str(tmp_path))
        assert cfg.feature_sets == ["SME", "CDER", "CDER+SME"]

    def test_sme_sets_need_a_table(self):
        with pytest.raises(ConfigError, match="need an sme_csv"):
            parse_config(base_config(feature_sets=["SME", "CDER"]))

    def test_split_fraction_bounds(self):
        with pytest.raises(ConfigError, match="split_fraction"):
            parse_config(base_config(split_fraction=1.0))
        with pytest.raises(ConfigError, match="threshold"):
            parse_config(base_config(threshold="abc"))
        with pytest.raises(ConfigError, match="n_repeats"):
            parse_config(base_config(n_repeats="x"))

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            pipeline.load_config(str(tmp_path / "none.json"))

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            pipeline.load_config(str(p))

    def test_load_config_resolves_relative_paths(self, tmp_path):
        (tmp_path / "sme.csv").write_text("id,a\nx,1\n")
        p = tmp_path / "c.json"
        p.write_text(json.dumps(base_config(sme_csv="sme.csv")))
        cfg = pipeline.load_config(str(p))
        assert cfg.sme_csv == str(tmp_path / "sme.csv")


class TestCorpus:
    def test_synthetic_corpus_labels(self):
        cfg = parse_config(base_config())
        samples = pipeline.build_corpus(cfg)
        assert len(samples) == 10
        by_label = {}
        for s in samples:
            by_label.setdefault(s.label, []).append(s.id)
            assert s.points.shape == (40, 3)
            assert (s.weights == 0).all()
        # spheres score 0.0 (below threshold 1.0), figure8s score 2.0
        assert sorted(by_label) == ["stable", "unstable"]
        assert all(i.startswith("figure8") for i in by_label["stable"])
        assert all(i.startswith("sphere") for i in by_label["unstable"])

    def test_subsample_keeps_weights_aligned(self):
        cfg = parse_config(base_config(subsample_points=12))
        samples = pipeline.build_corpus(cfg)
        full = pipeline.build_corpus(parse_config(base_config()))
        for s, f in zip(samples, full):
            assert s.points.shape == (12, 3)
            assert s.weights.shape == (12,)
            idx = synth.maxmin_indices(f.points, 12)
            np.testing.assert_array_equal(s.points, f.points[idx])
            np.testing.assert_array_equal(s.weights, f.weights[idx])


class TestDiagrams:
    def test_parallel_matches_serial(self):
        cfg = parse_config(base_config())
        cfg.corpus["n_per_class"] = 2
        cfg.corpus["n_points"] = 20
        samples = pipeline.build_corpus(cfg)
        serial = pipeline.compute_diagrams(samples, cfg.filtration, jobs=1)
        par = pipeline.compute_diagrams(samples, cfg.filtration, jobs=2)
        assert sorted(serial) == sorted(par)
        for sid in serial:
            for a, b in zip(serial[sid], par[sid]):
                assert a.dim == b.dim
                np.testing.assert_array_equal(a.pairs, b.pairs)

    def test_bad_sample_named_in_error(self):
        cfg = parse_config(base_config())
        samples = pipeline.build_corpus(cfg)[:1]
        samples[0].points = samples[0].points[:0]
        with pytest.raises(DataError, match=samples[0].id):
            pipeline.compute_diagrams(samples, cfg.filtration)


class TestFeatureAssembly:
    def test_leakage_guard_at_fit_time(self):
        cfg = parse_config(base_config())
        samples = pipeline.build_corpus(cfg)
        diagrams = pipeline.compute_diagrams(samples, cfg.filtration)
        points = pipeline.transformed_points(diagrams, {0, 1})
        labels = {s.id: s.label for s in samples}
        domain = sorted(set(labels.values()))
        ids = sorted(labels)
        train, valid = ids[:8], ids[8:]

        before = cder.models_to_json(pipeline.fit_cder_models(
            points, labels, domain, train, [0, 1], {}))
        for i in valid:
            for dim in points[i]:
                points[i][dim] = points[i][dim] + 100.0
        after = cder.models_to_json(pipeline.fit_cder_models(
            points, labels, domain, train, [0, 1], {}))
        assert before == after

    def test_assemble_feature_sets(self, tmp_path):
        (tmp_path / "sme.csv").write_text("id,alpha,beta\nx,1,2\ny,3,4\n")
        X_sme, names_sme = pipeline.load_sme_features(
            str(tmp_path / "sme.csv"), ["x", "y"])
        X_cder = np.array([[10.0], [20.0]])
        out = pipeline.assemble_feature_sets(
            ["SME", "CDER", "CDER+SME"], X_cder, ["cder_h0_0_a"],
            X_sme, names_sme)
        assert out["SME"][1] == ["sme_alpha", "sme_beta"]
        assert out["CDER"][0].tolist() == [[10.0], [20.0]]
        assert out["CDER+SME"][1] == ["cder_h0_0_a", "sme_alpha", "sme_beta"]
        assert out["CDER+SME"][0].tolist() == [[10.0, 1.0, 2.0],
                                               [20.0, 3.0, 4.0]]

    def test_missing_sme_id_becomes_data_error(self, tmp_path):
        (tmp_path / "sme.csv").write_text("id,alpha\nx,1\n")
        with pytest.raises(DataError):
            pipeline.load_sme_features(str(tmp_path / "sme.csv"),
                                       ["x", "zzz"])


class TestWriters:
    def test_correlation_rows_and_nan(self):
        rng = np.random.default_rng(90)
        a = rng.normal(size=(30, 2))
        b = np.column_stack([a[:, 0] * 2 + 1, np.full(30, 7.0)])
        rows = pipeline.correlation_rows(["c0", "c1"], a, ["s0", "s1"], b)
        assert len(rows) == 4
        table = {(r[0], r[1]): r[2] for r in rows}
        assert table[("c0", "s0")] == pytest.approx(1.0)
        assert np.isnan(table[("c0", "s1")])
        text = pipeline.correlation_csv(rows)
        assert text.splitlines()[0] == "cder_feature,sme_feature,r"
        assert "nan" in text

    def test_hexbin_csv_header_and_empty(self):
        text = pipeline.hexbin_csv(np.zeros((0, 2)), [], None)
        assert text == "hex_center_u,hex_center_v,signed_count,log_signed_value\n"
        pts = np.array([[0.0, 0.0], [5.0, 5.0]])
        text = pipeline.hexbin_csv(pts, [True, False], 2.0)
        lines = text.splitlines()
        assert len(lines) == 3
        signed = [int(l.split(",")[2]) for l in lines[1:]]
        assert sorted(signed) == [-1, 1]

    def test_feature_csv_shapes(self):
        text = pipeline.features_csv(["a", "b"], ["f1", "f2"],
                                     np.array([[0.1, 0.2], [0.3, 0.4]]))
        lines = text.splitlines()
        assert lines[0] == "id,f1,f2"
        assert lines[1] == "a,0.1,0.2"

    def test_set_tags(self):
        assert pipeline._set_tag("CDER") == "cder"
        assert pipeline._set_tag("SME") == "sme"
        assert pipeline._set_tag("CDER+SME") == "cder_plus_sme"

    def test_write_leaves_old_file_when_interrupted(self, tmp_path,
                                                     monkeypatch):
        path = tmp_path / "report.json"
        pipeline._write(str(path), "old\n")

        def open_then_fail_midway(*args, **kwargs):
            fh = open(*args, **kwargs)
            write = fh.write

            def half_write(text):
                write(text[:len(text) // 2])
                fh.flush()
                raise OSError("disk full")
            fh.write = half_write
            return fh

        monkeypatch.setattr(pipeline, "open", open_then_fail_midway,
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            pipeline._write(str(path), "new\n" * 100)
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["report.json"]

    def test_std(self):
        assert pipeline._std([3.0]) == 0.0
        assert pipeline._std([1.0, 3.0]) == pytest.approx(np.sqrt(2.0))


class TestRunPipeline:
    def test_micro_run_artifacts_and_report(self, tmp_path):
        cfg = parse_config(micro_config())
        report = pipeline.run_pipeline(cfg, str(tmp_path))
        run_dir = tmp_path / "run_seed0"

        assert report["n_samples"] == 10
        assert report["class_counts"] == {"stable": 5, "unstable": 5}
        assert report["positive_label"] == "unstable"
        body = report["feature_sets"]["CDER"]
        assert len(body["per_repeat_aps"]) == 2
        assert all(0.0 <= a <= 1.0 for a in body["per_repeat_aps"])
        assert body["num_feat"][0] > 0
        assert body["mean_aps"] == pytest.approx(
            np.mean(body["per_repeat_aps"]))

        expected = [
            "labels.csv", "diagrams.csv", "transformed.csv",
            "cder_model_full.json", "features_cder_full.csv",
            "importance.csv", "forest_full.json",
            "hexbin_h0.csv", "hexbin_h1.csv", "report.json",
            "repeat_00/split.json", "repeat_00/cder_model.json",
            "repeat_00/best_params_cder.json",
            "repeat_00/importance_cder.csv",
            "repeat_00/predictions_cder.csv",
            "repeat_01/split.json",
        ]
        for rel in expected:
            assert (run_dir / rel).is_file(), rel

        on_disk = json.loads((run_dir / "report.json").read_text())
        assert on_disk == report

    def test_diagrams_stop_below_max_dim(self, tmp_path):
        cfg = parse_config(micro_config())
        pipeline.run_pipeline(cfg, str(tmp_path))
        rows = (tmp_path / "run_seed0" / "diagrams.csv").read_text()
        dims = {line.split(",")[1] for line in rows.splitlines()[1:]}
        assert dims == {"0", "1"}
        # reduce itself still returns the top dimension
        sample = pipeline.build_corpus(cfg)[0]
        fc = build_rips(sample.points, 1.9, 2)
        assert [dg.dim for dg in persistence.reduce(fc)] == [0, 1, 2]
        by_id = pipeline.compute_diagrams([sample], cfg.filtration)
        assert [dg.dim for dg in by_id[sample.id]] == [0, 1]

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = parse_config(micro_config())
        pipeline.run_pipeline(cfg, str(tmp_path / "a"))
        pipeline.run_pipeline(cfg, str(tmp_path / "b"))
        da = tree_digest(str(tmp_path / "a"))
        db = tree_digest(str(tmp_path / "b"))
        assert da == db and len(da) > 10

    def test_sme_run_reports_paired_t_and_feature_arithmetic(self, tmp_path):
        cfg0 = parse_config(micro_config())
        samples = pipeline.build_corpus(cfg0)
        rng = np.random.default_rng(91)
        lines = ["id,bulk,charge"]
        for s in samples:
            lines.append(f"{s.id},{s.score + rng.normal(0, 0.1)},"
                         f"{rng.normal()}")
        sme = tmp_path / "sme.csv"
        sme.write_text("\n".join(lines) + "\n")

        cfg = parse_config(micro_config(
            feature_sets=["SME", "CDER", "CDER+SME"], sme_csv=str(sme)))
        report = pipeline.run_pipeline(cfg, str(tmp_path))
        fs = report["feature_sets"]
        assert set(fs) == {"SME", "CDER", "CDER+SME"}
        for r in range(2):
            assert fs["CDER+SME"]["num_feat"][r] == \
                fs["CDER"]["num_feat"][r] + fs["SME"]["num_feat"][r]
        assert fs["SME"]["num_feat"] == [2, 2]
        tt = report["paired_t_combined_gt_sme"]
        assert ("note" in tt) == (tt["p"] is None)

        run_dir = tmp_path / "run_seed0"
        corr = (run_dir / "correlation.csv").read_text().splitlines()
        assert corr[0] == "cder_feature,sme_feature,r"
        n_cder_full = len((run_dir / "features_cder_full.csv")
                          .read_text().splitlines()[0].split(",")) - 1
        assert len(corr) == 1 + 2 * n_cder_full
        for rel in ("repeat_00/predictions_sme.csv",
                    "repeat_00/best_params_cder_plus_sme.json"):
            assert (run_dir / rel).is_file()

    @pytest.mark.parametrize("bad, message", [("missing_id", "absent"),
                                              ("nan", "non-finite")])
    def test_bad_sme_table_fails_before_persistence(self, tmp_path, bad,
                                                    message):
        ids = [s.id for s in pipeline.build_corpus(
            parse_config(micro_config()))]
        values = {i: str(k) for k, i in enumerate(ids)}
        if bad == "nan":
            values[ids[3]] = "nan"
        else:
            del values[ids[3]]
        sme = tmp_path / "sme.csv"
        sme.write_text("id,bulk\n" +
                       "".join(f"{i},{v}\n" for i, v in values.items()))
        cfg = parse_config(micro_config(feature_sets=["SME"],
                                        sme_csv=str(sme)))
        with pytest.raises(DataError, match=message):
            pipeline.run_pipeline(cfg, str(tmp_path / "out"))
        assert not (tmp_path / "out" / "run_seed0" / "diagrams.csv").exists()

    def test_repeat_with_zero_cder_features_rejected(self, tmp_path):
        # no region can hold a mass of 2: the total mass of a fit is 1
        cfg = parse_config(micro_config(cder={"min_mass": 2.0}))
        with pytest.raises(DataError, match="zero features on every dim"):
            pipeline.run_pipeline(cfg, str(tmp_path))
        assert (tmp_path / "run_seed0" / "repeat_00" /
                "cder_model.json").is_file()
        assert not (tmp_path / "run_seed0" / "repeat_00" /
                    "best_params_cder.json").exists()

    def test_single_class_corpus_rejected(self, tmp_path):
        cfg = parse_config(micro_config(threshold=-1.0))
        with pytest.raises(pipeline.EmptyClass):
            pipeline.run_pipeline(cfg, str(tmp_path))
