"""The benchmark's workloads: inputs, one full run, what a run must produce.

Each workload drives a public entry point in process (`pipeline.run_pipeline`
or `cli.main`) with jobs=1. Sizes are fixed here, not read from `configs/`,
so a change to the repository's configs cannot change the benchmark.
The "bench" size is the measured one; "smoke" is a reduced size for
the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

from perfbench import protein_gen

TOY_FOREST_SPACE = {"n_trees": [100], "max_depth": [None, 8],
                    "min_samples_leaf": [1, 3], "max_features": ["sqrt"]}
PROTEIN_FOREST_SPACE = {"n_trees": [100], "max_depth": [None, 8, 16],
                        "min_samples_leaf": [1, 3, 5],
                        "max_features": ["sqrt", "log2"]}


@dataclass
class Outcome:
    """What one run of a workload produced."""

    n_samples: int        # corpus samples the run processed
    mean_aps: float       # validation APS of the CDER feature set
    out_dir: str          # every artifact the run wrote lies below this
    transformed: str      # path of the run's transformed.csv
    # seconds per stage of the run, for workloads made of stages
    stages: dict = field(default_factory=dict)


class ToyRips:
    """configs/toy.json with a smaller corpus and fewer repeats."""

    name = "toy-rips"
    why = ("Rips build, boundary reduction and truncated top-dimension rows "
           "dominate; the persistence and CSV layers change here")
    sizes = {"bench": {"n_per_class": 8, "n_repeats": 2},
             "smoke": {"n_per_class": 6, "n_repeats": 1}}
    top_dim = 2
    aps_floor = 0.9
    # the layers this workload exists to stress
    focus = ("complexes.rips_s", "persistence.validate_s",
             "persistence.reduce_s", "persistence.rows_s",
             "persistence.csv_s")
    required = ("labels.csv", "diagrams.csv", "transformed.csv",
                "report.json", "features_cder_full.csv", "importance.csv",
                "forest_full.json", "hexbin_h0.csv", "hexbin_h1.csv",
                "repeat_00/predictions_cder.csv")

    def setup(self, work_dir: str, seed: int, size: str) -> dict:
        return {"seed": seed, **self.sizes[size]}

    def run(self, inputs: dict, out_dir: str) -> Outcome:
        from topostab import pipeline
        cfg = pipeline.parse_config({
            "corpus": {"kind": "synthetic",
                       "n_per_class": inputs["n_per_class"],
                       "n_points": 300, "noise": 0.05},
            "filtration": {"kind": "rips", "max_scale": 1.9, "max_dim": 2},
            "dims": [0, 1], "subsample_points": 60, "threshold": 1.0,
            "split_fraction": 0.8, "n_repeats": inputs["n_repeats"],
            "seed": inputs["seed"], "feature_sets": ["CDER"],
            "cder": {"entropy_threshold": 0.3, "min_mass": 0.01},
            "forest": {"space": TOY_FOREST_SPACE, "n_iter": 4, "k_folds": 5}})
        report = pipeline.run_pipeline(cfg, out_dir, jobs=1)
        run_dir = os.path.join(out_dir, f"run_seed{cfg.seed}")
        return Outcome(report["n_samples"],
                       report["feature_sets"]["CDER"]["mean_aps"], run_dir,
                       os.path.join(run_dir, "transformed.csv"))


class ProteinAlpha:
    """Weighted-alpha persistence on generated PDB text with SME features."""

    name = "protein-alpha"
    why = ("cover-tree build and weighted-alpha build dominate; there are no "
           "top-dimension rows, so CSV and reduction work stays small")
    sizes = {"bench": {"n_stable": 14, "n_unstable": 12, "n_atoms": 100},
             "smoke": {"n_stable": 7, "n_unstable": 6, "n_atoms": 60}}
    top_dim = 3
    aps_floor = 0.75
    focus = ("covertree.build_s", "complexes.alpha_s")
    required = ("labels.csv", "diagrams.csv", "transformed.csv",
                "report.json", "correlation.csv", "features_cder_full.csv",
                "importance.csv", "forest_full.json", "hexbin_h0.csv",
                "hexbin_h1.csv", "hexbin_h2.csv",
                "repeat_00/predictions_cder_plus_sme.csv")

    def setup(self, work_dir: str, seed: int, size: str) -> dict:
        sz = self.sizes[size]
        paths = protein_gen.generate(
            os.path.join(work_dir, "data"), seed, sz["n_stable"],
            sz["n_unstable"], sz["n_atoms"])
        return {"seed": seed, **paths}

    def run(self, inputs: dict, out_dir: str) -> Outcome:
        from topostab import pipeline
        cfg = pipeline.parse_config({
            "corpus": {"kind": "pdb", "pdb_dir": inputs["pdb_dir"],
                       "scores_csv": inputs["scores_csv"],
                       "downsample": "extremes"},
            "filtration": {"kind": "weighted-alpha", "max_dim": 3},
            "dims": [0, 1, 2], "threshold": 1.0, "split_fraction": 0.8,
            "n_repeats": 1, "seed": inputs["seed"],
            "feature_sets": ["SME", "CDER", "CDER+SME"],
            "sme_csv": inputs["sme_csv"],
            "cder": {"entropy_threshold": 0.3, "min_mass": 0.01},
            "forest": {"space": PROTEIN_FOREST_SPACE, "n_iter": 2,
                       "k_folds": 3},
            "hexbin_side": 0.05})
        report = pipeline.run_pipeline(cfg, out_dir, jobs=1)
        run_dir = os.path.join(out_dir, f"run_seed{cfg.seed}")
        return Outcome(report["n_samples"],
                       report["feature_sets"]["CDER"]["mean_aps"], run_dir,
                       os.path.join(run_dir, "transformed.csv"))


class CliStages:
    """The file-based subcommand chain, each step through `cli.main`."""

    name = "cli-stages"
    why = ("file-based subcommand chain that reads artifacts back; the "
           "forest search is its largest layer and persistence is small")
    sizes = {"bench": {"n_samples": 100}, "smoke": {"n_samples": 30}}
    # one point in the search space, so every seed grows the same kind of
    # forest: with a drawn depth and leaf size the work would depend on the
    # seed. Unlimited depth and leaf size 1 make it the heaviest point.
    space = {"n_trees": [100], "max_depth": [None], "min_samples_leaf": [1],
             "max_features": ["sqrt"]}
    top_dim = 2
    aps_floor = 0.6
    focus = ("forest.search_s",)
    required = ("clouds/scores.csv", "corpus.json", "labels.csv",
                "ph/diagrams.csv", "ph/transformed.csv", "cder_model.json",
                "features.csv", "train/forest.json", "train/best_params.json",
                "eval/predictions.csv", "eval/metrics.json", "hexbin_h1.csv")

    def setup(self, work_dir: str, seed: int, size: str) -> dict:
        os.makedirs(work_dir, exist_ok=True)
        space = os.path.join(work_dir, "space.json")
        with open(space, "w", encoding="utf-8") as fh:
            json.dump(self.space, fh)
        return {"seed": seed, "space": space, **self.sizes[size]}

    def run(self, inputs: dict, out_dir: str) -> Outcome:
        from topostab import cli
        from topostab.stats import stratified_split
        seed = str(inputs["seed"])

        def p(*parts):
            return os.path.join(out_dir, *parts)

        def step(*argv):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(list(argv))
            stages[argv[0]] = time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"topostab {argv[0]} exited {code}")

        stages = {}
        os.makedirs(out_dir, exist_ok=True)
        step("synth", "--shape", "both",
             "--n-samples", str(inputs["n_samples"]), "--n-points", "300",
             "--noise", "0.35", "--seed", seed, "--out", p("clouds"))
        step("ingest", "--cloud-dir", p("clouds"),
             "--scores-csv", p("clouds", "scores.csv"), "--seed", seed,
             "--out", p("corpus.json"))
        step("ph", "--corpus", p("corpus.json"), "--filtration", "rips",
             "--max-scale", "1.9", "--max-dim", "2", "--subsample", "24",
             "--out", p("ph"))

        with open(p("labels.csv"), encoding="utf-8") as fh:
            rows = [ln.split(",") for ln in fh.read().splitlines()[1:]]
        train, valid = stratified_split([r[0] for r in rows],
                                        [r[2] for r in rows], 0.8,
                                        seed=inputs["seed"])
        for name, ids in (("train_ids.txt", train), ("valid_ids.txt", valid)):
            with open(p(name), "w", encoding="utf-8") as fh:
                fh.write("\n".join(ids) + "\n")

        # at noise 0.35 the best region of a seed can sit just above the
        # default entropy threshold 0.3 in both dims, which leaves no
        # features and an APS of 0.5; at 0.5 every seed tried finds regions
        step("cder-fit", "--transformed", p("ph", "transformed.csv"),
             "--labels", p("labels.csv"), "--train-ids", p("train_ids.txt"),
             "--dims", "0,1", "--entropy-threshold", "0.5",
             "--out", p("cder_model.json"))
        step("featurize", "--transformed", p("ph", "transformed.csv"),
             "--model", p("cder_model.json"), "--out", p("features.csv"))
        step("train", "--features", p("features.csv"),
             "--labels", p("labels.csv"), "--train-ids", p("train_ids.txt"),
             "--space", inputs["space"], "--n-iter", "1", "--k-folds", "10",
             "--seed", seed, "--out", p("train"))
        step("eval", "--features", p("features.csv"),
             "--labels", p("labels.csv"), "--model", p("train", "forest.json"),
             "--ids", p("valid_ids.txt"), "--out", p("eval"))
        step("hexbin", "--transformed", p("ph", "transformed.csv"),
             "--labels", p("labels.csv"), "--dim", "1",
             "--out", p("hexbin_h1.csv"))

        with open(p("eval", "metrics.json"), encoding="utf-8") as fh:
            aps = json.load(fh)["aps"]
        return Outcome(len(rows), aps, out_dir, p("ph", "transformed.csv"),
                       stages)


WORKLOADS = {w.name: w for w in (ToyRips(), ProteinAlpha(), CliStages())}
