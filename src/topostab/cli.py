"""Command-line interface.

Subcommands compose through files: `synth`/`ingest` produce a corpus,
`ph` turns it into diagram CSVs, `cder-fit`/`featurize` turn diagrams into
feature tables, `train`/`eval` fit and score forests, and `pipeline` runs
the whole chain with repeats. Exit codes: 0 success, 1 bad configuration
or usage, 2 bad data.
"""

from __future__ import annotations

import argparse
import csv
import io
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
from .stats import average_precision

log = logging.getLogger(__name__)


# -- small file helpers -------------------------------------------------------


def _read(path: str, what: str, parse=str):
    """parse(text) of the file at path. A path that is not a readable file
    is a ConfigError; text that parse rejects is a DataError naming the
    file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{what} is not a readable file: {path} "
                          f"({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"bad {what} {path}: {exc}") from None
    try:
        return parse(text)
    except (DataError, KeyError, IndexError, TypeError, ValueError) as exc:
        detail = f"no key {exc}" if type(exc) is KeyError else exc
        raise DataError(f"bad {what} {path}: {detail}") from None


def _read_id_list(path: str) -> list:
    lines = [ln.strip() for ln in _read(path, "id list").splitlines()]
    ids = [ln for ln in lines if ln]
    if not ids:
        raise DataError(f"id list is empty: {path}")
    return ids


def _load_labels(path: str) -> tuple[dict, dict]:
    """labels.csv (id,score,label) -> ({id: label}, {id: score})."""

    def parse(text):
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != \
                ["id", "score", "label"]:
            raise ValueError("must start with id,score,label")
        labels, scores = {}, {}
        for row in reader:
            if not row:
                continue
            if len(row) < 3:
                raise ValueError(f"line {reader.line_num}: expected "
                                 "id,score,label")
            labels[row[0]] = row[2]
            scores[row[0]] = float(row[1])
        if not labels:
            raise ValueError("no rows")
        return labels, scores

    return _read(path, "labels csv", parse)


def _load_transformed(path: str) -> dict:
    return _read(path, "transformed csv", persistence.read_transformed_csv)


def _load_feature_table(path: str) -> pdb_ingest.SmeFeatureTable:
    return _read(path, "feature csv", pdb_ingest.load_sme_csv)


def _dump_corpus(samples) -> str:
    payload = {"samples": [
        {"id": s.id, "score": float(s.score), "label": s.label,
         "points": [[float(x) for x in row] for row in s.points],
         "weights": [float(w) for w in s.weights]}
        for s in sorted(samples, key=lambda s: s.id)]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _load_corpus(path: str) -> list:
    samples = _read(path, "corpus json", lambda text: [pipeline.Sample(
        id=s["id"], score=float(s["score"]), label=s["label"],
        points=np.asarray(s["points"], dtype=float).reshape(-1, 3),
        weights=np.asarray(s.get("weights", []), dtype=float))
        for s in json.loads(text)["samples"]])
    for s in samples:
        if len(s.weights) == 0:
            s.weights = np.zeros(len(s.points))
        if len(s.weights) != len(s.points):
            raise DataError(f"{s.id}: {len(s.weights)} weights for "
                            f"{len(s.points)} points")
    return samples


def _parse_dims(text: str) -> list:
    try:
        dims = sorted({int(tok) for tok in text.split(",") if tok.strip()})
    except ValueError:
        raise ConfigError(f"bad dims {text!r}; expected e.g. '0,1'") from None
    if not dims or dims[0] < 0:
        raise ConfigError(f"bad dims {text!r}; expected e.g. '0,1'")
    return dims


def _out_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


# -- subcommands --------------------------------------------------------------


def cmd_synth(args) -> int:
    out = _out_dir(args.out)
    shapes = ["sphere", "figure8"] if args.shape == "both" else [args.shape]
    score_rows = []
    for k, shape in enumerate(shapes):
        clouds = synth.make_shape_clouds(shape, args.n_samples,
                                         args.n_points, args.noise,
                                         args.seed + k)
        for c in clouds:
            rows = [(float(x), float(y), float(z)) for x, y, z in c.points]
            pipeline._write(os.path.join(out, f"{c.id}.csv"),
                            pipeline._csv_text(["x", "y", "z"], rows))
            score_rows.append((c.id, float(c.score)))
    pipeline._write(os.path.join(out, "scores.csv"),
                    pipeline._csv_text(["id", "score"], sorted(score_rows)))
    log.info("wrote %d clouds to %s", len(score_rows), out)
    return 0


def _load_cloud_dir(cloud_dir: str) -> dict:
    """{id: zero-weight cloud} in id order from a directory of x,y,z csvs."""

    def parse(text):
        reader = csv.reader(io.StringIO(text))
        next(reader, None)
        rows = []
        for row in reader:
            if not row:
                continue
            try:
                rows.append([float(row[0]), float(row[1]), float(row[2])])
            except (ValueError, IndexError):
                raise ValueError(f"line {reader.line_num}: expected x,y,z "
                                 "floats") from None
        if not rows:
            raise ValueError("no points")
        return rows

    clouds = {}
    names = sorted((n for n in os.listdir(cloud_dir)
                    if n.endswith(".csv") and n != "scores.csv"),
                   key=lambda n: n[:-4])
    if not names:
        raise DataError(f"no cloud .csv files in {cloud_dir}")
    for name in names:
        rows = _read(os.path.join(cloud_dir, name), "cloud csv", parse)
        clouds[name[:-4]] = pdb_ingest.WeightedPointCloud(
            points=rows, weights=np.zeros(len(rows)))
    return clouds


def cmd_ingest(args) -> int:
    if args.pdb_dir and args.cloud_dir:
        raise ConfigError("give either --pdb-dir or --cloud-dir, not both")
    if not args.pdb_dir and not args.cloud_dir:
        raise ConfigError("ingest needs --pdb-dir or --cloud-dir")
    if args.weights is None:
        args.weights = "vdw" if args.pdb_dir else "zero"
    if args.weights == "vdw" and args.cloud_dir:
        raise ConfigError("--weights vdw needs PDB input with elements")

    if args.pdb_dir:
        corpus = pipeline.parse_corpus({
            "kind": "pdb", "pdb_dir": args.pdb_dir,
            "scores_csv": args.scores_csv, "downsample": args.downsample})
        samples = pipeline.build_pdb_corpus(corpus, args.threshold,
                                            args.seed)
        if args.weights == "zero":
            for s in samples:
                s.weights = np.zeros(len(s.points))
    else:
        if not os.path.isdir(args.cloud_dir):
            raise ConfigError(f"cloud_dir not found: {args.cloud_dir}")
        scores = _read(args.scores_csv, "scores csv",
                       pdb_ingest.load_scores_csv)
        samples = pipeline.label_corpus(
            _load_cloud_dir(args.cloud_dir), scores, args.threshold,
            args.seed, args.downsample)

    pipeline._write(args.out, _dump_corpus(samples))
    labels_path = os.path.join(os.path.dirname(args.out) or ".",
                               "labels.csv")
    pipeline._write(labels_path, pipeline.labels_csv(
        sorted(samples, key=lambda s: s.id)))
    log.info("wrote %d samples to %s", len(samples), args.out)
    return 0


def cmd_ph(args) -> int:
    filtration = {"kind": args.filtration, "max_dim": args.max_dim}
    if args.max_scale is not None:
        filtration["max_scale"] = args.max_scale
    filtration = pipeline.parse_filtration(filtration)
    dims = pipeline.parse_dims(
        _parse_dims(args.dims) if args.dims else list(range(args.max_dim)),
        args.max_dim)
    subsample = pipeline.parse_subsample(args.subsample)

    samples = _load_corpus(args.corpus)
    pipeline.farthest_point_subsample(samples, subsample)
    diagrams_by_id = pipeline.compute_diagrams(samples, filtration,
                                               jobs=args.jobs)
    pipeline.write_persistence(samples, diagrams_by_id, dims,
                               _out_dir(args.out))
    return 0


def cmd_cder_fit(args) -> int:
    dims = _parse_dims(args.dims)
    params = pipeline.parse_cder({"entropy_threshold": args.entropy_threshold,
                                  "min_mass": args.min_mass})
    points = _load_transformed(args.transformed)
    labels, _ = _load_labels(args.labels)
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
    models = _read(args.model, "model json", cder.models_from_json)
    ids = _read_id_list(args.ids) if args.ids else sorted(points)
    points_by_id = {i: points.get(i, {}) for i in ids}
    X = pipeline.cder_feature_matrix(models, points_by_id, ids)
    pipeline._write(args.out, pipeline.features_csv(
        ids, cder.feature_names(models), X))
    log.info("wrote %d x %d feature table to %s", *X.shape, args.out)
    return 0


def _feature_dataset(features_path: str, labels_path: str,
                     ids) -> Dataset:
    table = _load_feature_table(features_path)
    labels, _ = _load_labels(labels_path)
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
    forest = {"n_iter": args.n_iter, "k_folds": args.k_folds}
    if args.space:
        forest["space"] = pipeline.read_json(args.space, "search space json")
    forest = pipeline.parse_forest(forest)
    ids = _read_id_list(args.train_ids) if args.train_ids else None
    data = _feature_dataset(args.features, args.labels, ids)
    out = _out_dir(args.out)
    search = random_search_cv(data, forest["space"], n_iter=args.n_iter,
                              k_folds=args.k_folds, seed=args.seed)
    model = forest_fit(data, search.best_params, seed=args.seed)
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
    model = _read(args.model, "forest json", forest_from_json)
    try:
        probas = predict_proba(model, data.X)
        aps = average_precision(probas, data.y)
    except ValueError as exc:
        raise DataError(f"scoring {len(data.ids)} samples: {exc}") from None
    out = _out_dir(args.out)
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
    X_c = cder_table.matrix_for(ids)
    X_s = sme_table.matrix_for(ids)
    rows = pipeline.correlation_rows(cder_table.columns, X_c,
                                     sme_table.columns, X_s)
    pipeline._write(args.out, pipeline.correlation_csv(rows))
    log.info("wrote %d correlation pairs to %s", len(rows), args.out)

    if args.model:
        model = _read(args.model, "forest json", forest_from_json)
        names = model.feature_names
        pipeline._write(args.importance_out, pipeline.importance_csv(
            names, mdi_importance(model)))
    elif args.importance_out:
        raise ConfigError("--importance-out needs --model")
    return 0


def cmd_hexbin(args) -> int:
    if args.dim < 0:
        raise ConfigError(f"bad dim {args.dim}; expected a nonnegative "
                          "integer")
    side = pipeline.parse_hexbin_side(args.side)
    points = _load_transformed(args.transformed)
    labels, _ = _load_labels(args.labels)
    pooled, stable_mask = pipeline.pool_dim(points, labels, sorted(points),
                                            args.dim)
    pipeline._write(args.out, pipeline.hexbin_csv(pooled, stable_mask, side))
    log.info("binned %d points into %s", len(pooled), args.out)
    return 0


def cmd_pipeline(args) -> int:
    cfg = pipeline.load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    report = pipeline.run_pipeline(cfg, args.out, jobs=args.jobs)
    for name, body in report["feature_sets"].items():
        print(f"{name}: APS {body['mean_aps']:.4f} +/- "
              f"{body['std_aps']:.4f} over {report['n_repeats']} repeats")
    if "paired_t_combined_gt_sme" in report:
        p = report["paired_t_combined_gt_sme"]["p"]
        print(f"paired t (CDER+SME > SME): p = "
              f"{'n/a' if p is None else format(p, '.4g')}")
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topostab",
        description="Topological stability classification of 3-D point "
                    "clouds: persistence diagrams, entropy-guided diagram "
                    "features, and random-forest evaluation.")
    parser.add_argument("--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

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
    p.add_argument("--pdb-dir")
    p.add_argument("--cloud-dir", help="directory of x,y,z csv clouds")
    p.add_argument("--scores-csv", required=True)
    p.add_argument("--threshold", type=float, default=1.0)
    p.add_argument("--downsample", choices=["extremes", "random"])
    p.add_argument("--weights", choices=["vdw", "zero"],
                   help="vdw radii (pdb default) or zero (cloud default)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="corpus json path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("ph", help="persistence diagrams for a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--filtration", choices=["rips", "weighted-alpha"],
                   required=True)
    p.add_argument("--max-scale", type=float)
    p.add_argument("--max-dim", type=int, default=2)
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
    p.add_argument("--out", required=True, help="model json path")
    p.set_defaults(func=cmd_cder_fit)

    p = sub.add_parser("featurize", help="evaluate a model on diagrams")
    p.add_argument("--transformed", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--ids", help="file of ids (default: all in input)")
    p.add_argument("--out", required=True, help="feature csv path")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="random-search a forest on features")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--train-ids", help="file of training ids (default all)")
    p.add_argument("--space", help="hyperparameter space json")
    p.add_argument("--n-iter", type=int, default=4)
    p.add_argument("--k-folds", type=int, default=10)
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

    p = sub.add_parser("correlate",
                       help="feature-pair correlations (+ importances)")
    p.add_argument("--cder", required=True, help="cder feature csv")
    p.add_argument("--sme", required=True, help="sme feature csv")
    p.add_argument("--model", help="forest json for importances")
    p.add_argument("--importance-out", help="importance csv path")
    p.add_argument("--out", required=True, help="correlation csv path")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("hexbin", help="signed hexagonal binning of diagrams")
    p.add_argument("--transformed", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--side", type=float)
    p.add_argument("--out", required=True, help="hexbin csv path")
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
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; those are config errors here
        return 0 if exc.code == 0 else 1
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
