"""Command-line interface.

Subcommands compose through files: `synth`/`ingest` produce a corpus,
`ph` turns it into diagram CSVs, `cder-fit`/`featurize` turn diagrams into
feature tables, `train`/`eval` fit and score forests, and `pipeline` runs
the whole chain with repeats. Exit codes: 0 success, 1 bad configuration
or usage, 2 bad data.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import os
import sys

import numpy as np

from . import cder, pdb_ingest, persistence, pipeline, synth
from .errors import ConfigError, DataError
from .forest import (Dataset, fit as forest_fit, forest_from_json,
                     forest_to_json, mdi_importance, predict_proba,
                     random_search_cv)
from .pipeline import read_file
from .stats import average_precision
from .tables import csv_text, keyed, read_csv

log = logging.getLogger(__name__)


# -- small file helpers -------------------------------------------------------


def _read_id_list(path: str) -> list:
    lines = [ln.strip() for ln in read_file(path, "id list").splitlines()]
    ids = [ln for ln in lines if ln]
    if not ids:
        raise DataError(f"id list is empty: {path}")
    return ids


def _load_labels(path: str) -> dict:
    """labels.csv (id,score,label) -> {id: label}; an id given twice or a
    score that is not a finite number is a DataError."""

    def parse(text):
        _, (ids, _, labels, *_) = read_csv(text, ("id", "score", "label"),
                                           (1,))
        if not ids:
            raise ValueError("no rows")
        return keyed(ids, labels)

    return read_file(path, "labels csv", parse)


def _load_transformed(path: str) -> dict:
    return read_file(path, "transformed csv", persistence.read_transformed_csv)


def _require_dims(points: dict, path: str, dims) -> None:
    """DataError unless some row of the transformed csv has each dim."""
    present = sorted({d for per_dim in points.values() for d in per_dim})
    for dim in dims:
        if dim not in present:
            raise DataError(f"no row of {path} has dim {dim}; its dims are "
                            f"{present}")


def _load_feature_table(path: str) -> pdb_ingest.SmeFeatureTable:
    return read_file(path, "feature csv", pdb_ingest.load_sme_csv)


def _dump_corpus(samples) -> str:
    """The corpus json text, dumped one sample at a time so that no
    nested list of every sample's points is held at once."""
    return '{"samples":[' + ",".join(
        json.dumps({"id": s.id, "score": float(s.score), "label": s.label,
                    "points": s.points.tolist(),
                    "weights": s.weights.tolist()},
                   sort_keys=True, separators=(",", ":"))
        for s in sorted(samples, key=lambda s: s.id)) + "]}\n"


def _load_corpus(path: str) -> list:
    """The corpus json's samples; an id given twice is a DataError."""

    def parse(text):
        samples = [pipeline.Sample(s["id"], float(s["score"]), s["label"],
                                   s["points"], s.get("weights"))
                   for s in json.loads(text)["samples"]]
        return list(keyed([s.id for s in samples], samples).values())

    return read_file(path, "corpus json", parse)


def _parse_dims(text: str) -> list:
    try:
        dims = sorted({int(tok) for tok in text.split(",") if tok.strip()})
    except ValueError:
        raise ConfigError(f"bad dims {text!r}; expected e.g. '0,1'") from None
    if not dims or dims[0] < 0:
        raise ConfigError(f"bad dims {text!r}; expected e.g. '0,1'")
    return dims


def _given(args, *names) -> dict:
    """{name: value} of the named flags the user gave; a flag left out
    takes the default of the parser its section goes through."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


# -- subcommands --------------------------------------------------------------


def cmd_synth(args) -> int:
    pipeline.parse_corpus({"kind": "synthetic", "n_per_class": args.n_samples,
                           "n_points": args.n_points, "noise": args.noise})
    seed = pipeline.parse_seed(args.seed)
    out = pipeline.make_dir(args.out)
    shapes = ["sphere", "figure8"] if args.shape == "both" else [args.shape]
    score_rows = []
    for k, shape in enumerate(shapes):
        clouds = synth.make_shape_clouds(shape, args.n_samples,
                                         args.n_points, args.noise, seed + k)
        for c in clouds:
            pipeline._write(os.path.join(out, f"{c.id}.csv"),
                            csv_text(["x", "y", "z"], c.points.tolist()))
            score_rows.append((c.id, float(c.score)))
    pipeline._write(os.path.join(out, "scores.csv"),
                    csv_text(["id", "score"], sorted(score_rows)))
    log.info("wrote %d clouds to %s", len(score_rows), out)
    return 0


def cmd_ingest(args) -> int:
    labels_path = os.path.join(os.path.dirname(args.out) or ".", "labels.csv")
    if os.path.realpath(args.out) == os.path.realpath(labels_path):
        raise ConfigError(f"--out {args.out} is the labels.csv that ingest "
                          f"writes beside the corpus")
    threshold = pipeline._number(args.threshold, "threshold")
    seed = pipeline.parse_seed(args.seed)
    key, fmt = (("pdb_dir", "pdb") if args.pdb_dir is not None
                else ("cloud_dir", "csv"))
    cloud_dir = pipeline._path(getattr(args, key), key, ".", os.path.isdir)
    samples = pipeline.read_cloud_dir(cloud_dir, fmt, args.scores_csv,
                                      threshold, seed, args.downsample)
    pipeline._write(args.out, _dump_corpus(samples))
    pipeline._write(labels_path, pipeline.labels_csv(
        sorted(samples, key=lambda s: s.id)))
    log.info("wrote %d samples to %s", len(samples), args.out)
    return 0


def cmd_ph(args) -> int:
    filtration = pipeline.parse_filtration(
        {"kind": args.filtration, **_given(args, "max_scale", "max_dim")})
    max_dim = filtration["max_dim"]
    dims = pipeline.parse_dims(
        _parse_dims(args.dims) if args.dims else list(range(max_dim)),
        max_dim)
    subsample = pipeline.parse_subsample(args.subsample)
    jobs = pipeline.parse_jobs(args.jobs)

    samples = _load_corpus(args.corpus)
    out = pipeline.make_dir(args.out)
    pipeline.farthest_point_subsample(samples, subsample)
    diagrams_by_id = pipeline.compute_diagrams(samples, filtration,
                                               jobs=jobs)
    pipeline.write_persistence(samples, diagrams_by_id, dims, out)
    return 0


def cmd_cder_fit(args) -> int:
    dims = _parse_dims(args.dims)
    params = pipeline.parse_cder({"entropy_threshold": args.entropy_threshold,
                                  "min_mass": args.min_mass})
    points = _load_transformed(args.transformed)
    if not points:
        raise DataError(f"transformed csv {args.transformed} has no rows")
    _require_dims(points, args.transformed, dims)
    labels = _load_labels(args.labels)
    train_ids = _read_id_list(args.train_ids) if args.train_ids else \
        sorted(labels)
    missing = [i for i in train_ids if i not in labels]
    if missing:
        raise DataError(f"train ids missing from labels: {missing[:5]}")
    points_by_id = {i: points.get(i, {}) for i in train_ids}
    domain = sorted(set(labels.values()))
    models = pipeline.fit_cder_models(points_by_id, labels, domain,
                                      train_ids, dims, params)
    pipeline._write(args.out, cder.models_to_json(models))
    log.info("wrote %d-dim model with %s coordinates to %s", len(models),
             [len(models[d]) for d in sorted(models)], args.out)
    return 0


def cmd_featurize(args) -> int:
    points = _load_transformed(args.transformed)
    models = read_file(args.model, "model json", cder.models_from_json)
    ids = _read_id_list(args.ids) if args.ids else sorted(points)
    if not ids:
        raise DataError(f"transformed csv {args.transformed} has no rows")
    points_by_id = {i: points.get(i, {}) for i in ids}
    X = pipeline.cder_feature_matrix(models, points_by_id, ids)
    pipeline._write(args.out, pipeline.features_csv(
        ids, cder.feature_names(models), X))
    log.info("wrote %d x %d feature table to %s", *X.shape, args.out)
    return 0


def _feature_dataset(features_path: str, labels_path: str,
                     ids) -> Dataset:
    table = _load_feature_table(features_path)
    if not table.columns:
        raise DataError(f"feature csv {features_path} has no feature column")
    labels = _load_labels(labels_path)
    if ids is None:
        ids = sorted(table.rows)
    missing = [i for i in ids if i not in labels]
    if missing:
        raise DataError(f"ids missing from labels: {missing[:5]}")
    domain = sorted(set(labels.values()))
    if len(domain) > 2:
        raise DataError(f"labels csv {labels_path} has {len(domain)} labels "
                        f"{domain}; a forest needs two")
    y = np.array([domain.index(labels[i]) for i in ids])
    try:
        return Dataset(table.matrix_for(ids), y, list(table.columns),
                       list(ids))
    except ValueError as exc:
        raise DataError(f"bad feature csv {features_path}: {exc}") from None


def cmd_train(args) -> int:
    forest = _given(args, "n_iter", "k_folds")
    if args.space:
        forest["space"] = pipeline.read_json(args.space, "search space json")
    forest = pipeline.parse_forest(forest)
    seed = pipeline.parse_seed(args.seed)
    ids = _read_id_list(args.train_ids) if args.train_ids else None
    data = _feature_dataset(args.features, args.labels, ids)
    out = pipeline.make_dir(args.out)
    search = random_search_cv(data, forest["space"], n_iter=forest["n_iter"],
                              k_folds=forest["k_folds"], seed=seed)
    model = forest_fit(data, search.best_params, seed=seed)
    pipeline._write(os.path.join(out, "forest.json"), forest_to_json(model))
    pipeline._write(os.path.join(out, "best_params.json"), pipeline._json_text(
        {"params": search.best_params, "cv_aps": search.best_score}))
    pipeline._write(os.path.join(out, "importance.csv"),
                    pipeline.importance_csv(data.feature_names,
                                            mdi_importance(model)))
    print(f"cv APS {search.best_score:.4f} with {search.best_params}")
    return 0


def cmd_eval(args) -> int:
    ids = _read_id_list(args.ids) if args.ids else None
    data = _feature_dataset(args.features, args.labels, ids)
    model = read_file(args.model, "forest json", forest_from_json)
    if data.feature_names != model.feature_names:
        k, got, want = next(
            (k, a, b) for k, (a, b) in enumerate(itertools.zip_longest(
                data.feature_names, model.feature_names)) if a != b)
        raise DataError(f"feature csv {args.features} does not match the "
                        f"model: its feature column {k + 1} is {got!r}, the "
                        f"model's is {want!r}")
    try:
        probas = predict_proba(model, data.X)
        aps = average_precision(probas, data.y)
    except ValueError as exc:
        raise DataError(f"scoring {len(data.ids)} samples: {exc}") from None
    out = pipeline.make_dir(args.out)
    pipeline._write(os.path.join(out, "predictions.csv"),
                    pipeline.predictions_csv(data.ids, probas, data.y))
    pipeline._write(os.path.join(out, "metrics.json"),
                    pipeline._json_text({"aps": float(aps),
                                         "n_samples": len(data.ids)}))
    print(f"APS {aps:.4f} on {len(data.ids)} samples")
    return 0


def cmd_correlate(args) -> int:
    cder_table = _load_feature_table(args.cder)
    sme_table = _load_feature_table(args.sme)
    ids = sorted(cder_table.rows)
    if sorted(sme_table.rows) != ids:
        only_c = sorted(set(cder_table.rows) - set(sme_table.rows))[:5]
        only_s = sorted(set(sme_table.rows) - set(cder_table.rows))[:5]
        raise DataError(f"feature tables disagree on sample ids "
                        f"(cder-only {only_c}, sme-only {only_s})")
    if len(ids) < 2:
        raise DataError(f"correlation needs at least two samples; feature "
                        f"tables {args.cder} and {args.sme} share {len(ids)}")
    X_c = cder_table.matrix_for(ids)
    X_s = sme_table.matrix_for(ids)
    rows = pipeline.correlation_rows(cder_table.columns, X_c,
                                     sme_table.columns, X_s)
    pipeline._write(args.out, pipeline.correlation_csv(rows))
    log.info("wrote %d correlation pairs to %s", len(rows), args.out)
    return 0


def cmd_hexbin(args) -> int:
    if args.dim < 0:
        raise ConfigError(f"bad dim {args.dim}; expected a nonnegative "
                          "integer")
    side = pipeline.parse_hexbin_side(args.side)
    points = _load_transformed(args.transformed)
    _require_dims(points, args.transformed, [args.dim])
    labels = _load_labels(args.labels)
    pooled, stable_mask = pipeline.pool_dim(points, labels, sorted(points),
                                            args.dim)
    pipeline._write(args.out, pipeline.hexbin_csv(pooled, stable_mask, side))
    log.info("binned %d points into %s", len(pooled), args.out)
    return 0


def cmd_pipeline(args) -> int:
    cfg = pipeline.load_config(args.config)
    if args.seed is not None:
        cfg.seed = pipeline.parse_seed(args.seed)
    report = pipeline.run_pipeline(cfg, args.out,
                                   jobs=pipeline.parse_jobs(args.jobs))
    for name, body in report["feature_sets"].items():
        print(f"{name}: APS {body['mean_aps']:.4f} +/- "
              f"{body['std_aps']:.4f} over {report['n_repeats']} repeats")
    if "paired_t_combined_gt_sme" in report:
        p = report["paired_t_combined_gt_sme"]["p"]
        print(f"paired t (CDER+SME > SME): p = "
              f"{'n/a' if p is None else format(p, '.4g')}")
    return 0


# -- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigError, which `main` prints as one
    line; subparsers are made of the same class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="topostab",
        description="Topological stability classification of 3-D point "
                    "clouds: persistence diagrams, entropy-guided diagram "
                    "features, and random-forest evaluation.")
    parser.add_argument("--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    file_out = {"required": True, "type": pipeline.file_path}

    p = sub.add_parser("synth", help="generate sphere / figure-8 clouds")
    p.add_argument("--shape", choices=["sphere", "figure8", "both"],
                   required=True)
    p.add_argument("--n-samples", type=int, required=True)
    p.add_argument("--n-points", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="build a labeled corpus json")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--pdb-dir", help="directory of .pdb files; atoms "
                        "carry their van der Waals radii")
    source.add_argument("--cloud-dir", help="directory of x,y,z csv clouds, "
                        "with zero weights")
    p.add_argument("--scores-csv", required=True)
    p.add_argument("--threshold", type=float, default=1.0)
    p.add_argument("--downsample", choices=["extremes", "random"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", **file_out, help="corpus json path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("ph", help="persistence diagrams for a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--filtration", choices=["rips", "weighted-alpha"],
                   required=True)
    p.add_argument("--max-scale", type=float)
    p.add_argument("--max-dim", type=int,
                   help="default 2 for rips, 3 for weighted-alpha")
    p.add_argument("--dims", help="comma-separated dims for transformed.csv")
    p.add_argument("--subsample", type=int,
                   help="farthest-point cap on points per cloud")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_ph)

    p = sub.add_parser("cder-fit",
                       help="fit entropy-guided diagram coordinates")
    p.add_argument("--transformed", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--train-ids", help="file of ids to fit on (default all)")
    p.add_argument("--dims", default="0,1")
    p.add_argument("--entropy-threshold", type=float)
    p.add_argument("--min-mass", type=float)
    p.add_argument("--out", **file_out, help="model json path")
    p.set_defaults(func=cmd_cder_fit)

    p = sub.add_parser("featurize", help="evaluate a model on diagrams")
    p.add_argument("--transformed", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--ids", help="file of ids (default: all in input)")
    p.add_argument("--out", **file_out, help="feature csv path")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="random-search a forest on features")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--train-ids", help="file of training ids (default all)")
    p.add_argument("--space", help="hyperparameter space json")
    p.add_argument("--n-iter", type=int, help="default 4")
    p.add_argument("--k-folds", type=int, help="default 10")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a trained forest")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--ids", help="file of ids to score (default all)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("correlate", help="feature-pair correlations")
    p.add_argument("--cder", required=True, help="cder feature csv")
    p.add_argument("--sme", required=True, help="sme feature csv")
    p.add_argument("--out", **file_out, help="correlation csv path")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("hexbin", help="signed hexagonal binning of diagrams")
    p.add_argument("--transformed", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--side", type=float)
    p.add_argument("--out", **file_out, help="hexbin csv path")
    p.set_defaults(func=cmd_hexbin)

    p = sub.add_parser("pipeline", help="full run from a config json")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # a flag's type, such as pipeline.file_path, may raise ConfigError
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 0 after printing --help
        return 0 if exc.code == 0 else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
