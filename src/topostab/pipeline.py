"""End-to-end orchestration: corpus -> diagrams -> CDER features -> forests.

Everything here is deterministic for a fixed config and seed: artifacts carry
no timestamps, floats are serialized with repr, JSON keys are sorted, and all
randomness flows from numpy generators seeded with `seed + repeat_index`.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import cder, pdb_ingest, persistence, synth
from .complexes import build_rips, build_weighted_alpha
from .errors import (ConfigError, DataError, EmptyClass, NoRegionsFound,
                     EmptyInput, ZeroVariance, ZeroVarianceDiff)
from .forest import Dataset, _n_subset_features, fit as forest_fit, \
    forest_to_json, mdi_importance, predict_proba, random_search_cv
from .pdb_ingest import STABLE, WeightedPointCloud
from .stats import (average_precision, hexbin, hexgrid_rows,
                    paired_t_one_tailed, pearson_r, stratified_split)

log = logging.getLogger(__name__)

FEATURE_SET_NAMES = ("SME", "CDER", "CDER+SME")

DEFAULT_FOREST_SPACE = {
    "n_trees": [100],
    "max_depth": [None, 8],
    "min_samples_leaf": [1, 3],
    "max_features": ["sqrt"],
}


@dataclass
class Sample:
    id: str
    score: float
    label: str
    points: np.ndarray
    weights: np.ndarray


@dataclass
class PipelineConfig:
    corpus: dict
    filtration: dict
    dims: list = field(default_factory=lambda: [0, 1])
    threshold: float = 1.0
    subsample_points: int | None = None
    cder_params: dict = field(default_factory=dict)
    forest: dict = field(default_factory=dict)
    feature_sets: list = field(default_factory=lambda: ["CDER"])
    sme_csv: str | None = None
    split_fraction: float = 0.8
    n_repeats: int = 10
    seed: int = 0
    hexbin_side: float | None = None


_CONFIG_KEYS = {
    "corpus", "filtration", "dims", "threshold", "subsample_points",
    "cder", "forest", "feature_sets", "sme_csv", "split_fraction",
    "n_repeats", "seed", "hexbin_side",
}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _number(kind, value, name: str):
    """kind(value), with a value kind() rejects reported as a ConfigError."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


def parse_corpus(corpus, base_dir: str = ".") -> dict:
    """The validated corpus section; pdb paths resolve against base_dir."""
    _require(isinstance(corpus, dict) and "kind" in corpus,
             "config needs a corpus object with a 'kind'")
    corpus = dict(corpus)
    kind = corpus["kind"]
    if kind == "synthetic":
        unknown = sorted(set(corpus) -
                         {"kind", "n_per_class", "n_points", "noise"})
        _require(not unknown, f"unknown synthetic corpus keys: {unknown}")
        _require(_number(int, corpus.get("n_per_class", 0),
                         "n_per_class") > 0,
                 "synthetic corpus needs n_per_class > 0")
        _require(_number(int, corpus.get("n_points", 0), "n_points") >= 4,
                 "synthetic corpus needs n_points >= 4")
        _require(_number(float, corpus.get("noise", 0.0), "noise") >= 0,
                 "noise must be nonnegative")
    elif kind == "pdb":
        unknown = sorted(set(corpus) -
                         {"kind", "pdb_dir", "scores_csv", "downsample"})
        _require(not unknown, f"unknown pdb corpus keys: {unknown}")
        _require("pdb_dir" in corpus and "scores_csv" in corpus,
                 "pdb corpus needs pdb_dir and scores_csv")
        for key in ("pdb_dir", "scores_csv"):
            corpus[key] = os.path.normpath(os.path.join(base_dir, corpus[key]))
        _require(os.path.isdir(corpus["pdb_dir"]),
                 f"pdb_dir not found: {corpus['pdb_dir']}")
        _require(os.path.isfile(corpus["scores_csv"]),
                 f"scores_csv not found: {corpus['scores_csv']}")
        mode = corpus.get("downsample")
        _require(mode in (None, "extremes", "random"),
                 f"downsample must be extremes or random, got {mode!r}")
    else:
        raise ConfigError(f"unknown corpus kind {kind!r}")
    return corpus


def parse_filtration(filtration) -> dict:
    """The validated filtration section, with its default max_dim."""
    _require(isinstance(filtration, dict) and "kind" in filtration,
             "config needs a filtration object with a 'kind'")
    filtration = dict(filtration)
    fkind = filtration["kind"]
    if fkind == "rips":
        unknown = sorted(set(filtration) - {"kind", "max_scale", "max_dim"})
        _require(not unknown, f"unknown rips keys: {unknown}")
        filtration["max_scale"] = _number(
            float, filtration.get("max_scale", 0.0), "max_scale")
        _require(filtration["max_scale"] > 0, "rips needs max_scale > 0")
        filtration.setdefault("max_dim", 2)
    elif fkind == "weighted-alpha":
        unknown = sorted(set(filtration) - {"kind", "max_dim"})
        _require(not unknown, f"unknown weighted-alpha keys: {unknown}")
        filtration.setdefault("max_dim", 3)
    else:
        raise ConfigError(f"unknown filtration kind {fkind!r}")
    filtration["max_dim"] = _number(int, filtration["max_dim"], "max_dim")
    _require(filtration["max_dim"] >= 1, "filtration max_dim must be >= 1")
    return filtration


def parse_dims(dims, max_dim) -> list:
    """Sorted distinct feature dims, each below the filtration max_dim."""
    _require(isinstance(dims, list) and dims and
             all(isinstance(d, int) and d >= 0 for d in dims),
             "dims must be a non-empty list of nonnegative integers")
    dims = sorted(set(dims))
    _require(max(dims) < max_dim,
             "every feature dim must be below the filtration max_dim, or "
             "its classes can never die")
    return dims


def parse_cder(params) -> dict:
    """CDER parameters in the range cder.fit accepts; a None value is
    dropped, so cder.fit's default applies."""
    _require(isinstance(params, dict), "cder must be an object")
    params = {k: v for k, v in params.items() if v is not None}
    unknown = sorted(set(params) - {"entropy_threshold", "min_mass"})
    _require(not unknown, f"unknown cder keys: {unknown}")
    params = {k: _number(float, v, k) for k, v in params.items()}
    try:
        cder.check_params(**params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return params


def parse_forest(forest) -> dict:
    """The validated forest section, with defaults filled in."""
    _require(isinstance(forest, dict), "forest must be an object")
    forest = dict(forest)
    unknown = sorted(set(forest) - {"space", "n_iter", "k_folds"})
    _require(not unknown, f"unknown forest keys: {unknown}")
    forest.setdefault("space", dict(DEFAULT_FOREST_SPACE))
    forest["n_iter"] = _number(int, forest.get("n_iter", 4), "n_iter")
    forest["k_folds"] = _number(int, forest.get("k_folds", 10), "k_folds")
    _require(forest["n_iter"] > 0, "forest n_iter must be positive")
    _require(forest["k_folds"] >= 2, "forest k_folds must be >= 2")
    space = forest["space"]
    _require(isinstance(space, dict) and space and
             all(isinstance(v, list) and v for v in space.values()),
             "forest space must map names to non-empty option lists")
    for rule in space.get("max_features", []):
        _n_subset_features(rule, 1)
    return forest


def parse_subsample(value):
    """None, or a farthest-point cap of at least 4 points per cloud."""
    if value is None:
        return None
    value = _number(int, value, "subsample_points")
    _require(value >= 4, "subsample_points must be >= 4")
    return value


def parse_hexbin_side(value):
    """None (derived from the data), or a positive hexagon side."""
    if value is None:
        return None
    value = _number(float, value, "hexbin_side")
    _require(value > 0, "hexbin_side must be positive")
    return value


def parse_config(raw: dict, base_dir: str = ".") -> PipelineConfig:
    """Validate a config dict; relative paths resolve against base_dir."""
    _require(isinstance(raw, dict), "config must be a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    _require(not unknown, f"unknown config keys: {unknown}")

    corpus = parse_corpus(raw.get("corpus"), base_dir)
    filtration = parse_filtration(raw.get("filtration"))
    dims = parse_dims(raw.get("dims", [0, 1]), filtration["max_dim"])
    cder_params = parse_cder(raw.get("cder", {}))
    forest = parse_forest(raw.get("forest", {}))

    feature_sets = raw.get("feature_sets", ["CDER"])
    _require(isinstance(feature_sets, list) and feature_sets,
             "feature_sets must be a non-empty list")
    bad = [f for f in feature_sets if f not in FEATURE_SET_NAMES]
    _require(not bad, f"unknown feature sets: {bad}")
    _require(len(set(feature_sets)) == len(feature_sets),
             "feature_sets has duplicates")
    feature_sets = [f for f in FEATURE_SET_NAMES if f in feature_sets]

    sme_csv = raw.get("sme_csv")
    if sme_csv is not None:
        sme_csv = os.path.normpath(os.path.join(base_dir, sme_csv))
        _require(os.path.isfile(sme_csv), f"sme_csv not found: {sme_csv}")
    needs_sme = [f for f in feature_sets if "SME" in f]
    _require(not (needs_sme and sme_csv is None),
             f"feature sets {needs_sme} need an sme_csv")

    split_fraction = _number(float, raw.get("split_fraction", 0.8),
                             "split_fraction")
    _require(0 < split_fraction < 1, "split_fraction must lie in (0, 1)")
    n_repeats = _number(int, raw.get("n_repeats", 10), "n_repeats")
    _require(n_repeats >= 1, "n_repeats must be >= 1")

    return PipelineConfig(
        corpus=corpus, filtration=filtration, dims=dims,
        threshold=_number(float, raw.get("threshold", 1.0), "threshold"),
        subsample_points=parse_subsample(raw.get("subsample_points")),
        cder_params=cder_params, forest=forest,
        feature_sets=feature_sets, sme_csv=sme_csv,
        split_fraction=split_fraction, n_repeats=n_repeats,
        seed=_number(int, raw.get("seed", 0), "seed"),
        hexbin_side=parse_hexbin_side(raw.get("hexbin_side")))


def read_json(path: str, what: str):
    """The parsed file; a missing or malformed file is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{what} is not a readable file: {path} "
                          f"({exc.strerror})") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None


def load_config(path: str) -> PipelineConfig:
    return parse_config(read_json(path, "config file"),
                        base_dir=os.path.dirname(os.path.abspath(path)))


# -- corpus assembly ----------------------------------------------------------


def label_corpus(clouds: dict, scores: dict, threshold: float, seed: int,
                 mode: str | None) -> list:
    """Samples for {id: WeightedPointCloud}, in dict order, labeled by
    score; with a downsample mode the majority class is cut to balance."""
    missing = [i for i in clouds if i not in scores]
    if missing:
        raise DataError(f"no stability score for: {missing[:5]}")
    scores = {i: scores[i] for i in clouds}
    if mode is None:
        labels = pdb_ingest.label_samples(scores, threshold)
    else:
        labels = pdb_ingest.label_and_downsample(scores, threshold,
                                                 seed=seed, mode=mode)
    return [Sample(id=i, score=scores[i], label=label,
                   points=clouds[i].points, weights=clouds[i].weights)
            for i, label in labels.items()]


def build_synthetic_corpus(corpus_cfg: dict, threshold: float,
                           seed: int) -> list:
    clouds = synth.make_toy_corpus(
        n_per_class=int(corpus_cfg["n_per_class"]),
        n_points=int(corpus_cfg["n_points"]),
        noise=float(corpus_cfg.get("noise", 0.0)), seed=seed)
    return label_corpus(
        {c.id: WeightedPointCloud(c.points, np.zeros(len(c.points)))
         for c in clouds},
        {c.id: c.score for c in clouds}, threshold, seed, None)


def build_pdb_corpus(corpus_cfg: dict, threshold: float, seed: int) -> list:
    pdb_dir = corpus_cfg["pdb_dir"]
    with open(corpus_cfg["scores_csv"], encoding="utf-8") as fh:
        scores = pdb_ingest.load_scores_csv(fh.read())
    names = sorted(n for n in os.listdir(pdb_dir) if n.endswith(".pdb"))
    if not names:
        raise DataError(f"no .pdb files in {pdb_dir}")

    clouds = {}
    for name in names:
        with open(os.path.join(pdb_dir, name), encoding="utf-8") as fh:
            text = fh.read()
        try:
            clouds[name[:-4]] = pdb_ingest.assign_weights(
                pdb_ingest.parse_pdb(text))
        except DataError as exc:
            raise DataError(f"{name}: {exc}") from exc
    return label_corpus(clouds, scores, threshold, seed,
                        corpus_cfg.get("downsample"))


def farthest_point_subsample(samples, k: int | None) -> None:
    """Cut every sample to at most k points, in place; None keeps all."""
    if k is None:
        return
    for s in samples:
        if len(s.points) > k:
            idx = synth.maxmin_indices(s.points, k)
            s.points, s.weights = s.points[idx], s.weights[idx]


def build_corpus(cfg: PipelineConfig) -> list:
    if cfg.corpus["kind"] == "synthetic":
        samples = build_synthetic_corpus(cfg.corpus, cfg.threshold, cfg.seed)
    else:
        samples = build_pdb_corpus(cfg.corpus, cfg.threshold, cfg.seed)
    farthest_point_subsample(samples, cfg.subsample_points)
    return samples


# -- persistent homology over the corpus --------------------------------------


def _ph_one(args):
    """Diagrams of dims below max_dim: the complex stops at max_dim, so
    its top dimension has no cofaces to kill a class and is not homology."""
    sample_id, points, weights, filtration = args
    max_dim = filtration["max_dim"]
    try:
        if filtration["kind"] == "rips":
            fc = build_rips(points, max_scale=filtration["max_scale"],
                            max_dim=max_dim)
        else:
            fc = build_weighted_alpha(
                WeightedPointCloud(points=points, weights=weights),
                max_dim=max_dim)
        return sample_id, persistence.reduce(fc,
                                             source_id=sample_id)[:max_dim]
    except DataError as exc:
        raise DataError(f"sample {sample_id}: {exc}") from exc


def compute_diagrams(samples, filtration: dict, jobs: int = 1) -> dict:
    """Persistence diagrams per sample id, in deterministic sample order."""
    tasks = [(s.id, s.points, s.weights, filtration) for s in samples]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return dict(pool.map(_ph_one, tasks, chunksize=1))
    return dict(map(_ph_one, tasks))


def transformed_points(diagrams_by_id: dict, dims) -> dict:
    """{id: {dim: (m, 2) birth/persistence points}} with essentials dropped."""
    out = {}
    for sample_id, dgs in diagrams_by_id.items():
        per_dim = {}
        for dg in dgs:
            if dg.dim in dims:
                td = persistence.transform(persistence.drop_essentials(dg))
                per_dim[dg.dim] = td.points
        out[sample_id] = per_dim
    return out


def write_persistence(samples, diagrams_by_id: dict, dims,
                      out_dir: str) -> dict:
    """Write diagrams.csv and transformed.csv for the samples, and return
    their transformed points of the given dims, {id: {dim: (m, 2)}}."""
    points_by_id = transformed_points(diagrams_by_id, set(dims))
    diag_rows, trans_rows = [], []
    for s in samples:
        diag_rows.extend(persistence.diagram_rows(s.id, diagrams_by_id[s.id]))
        for dim in dims:
            pts = points_by_id[s.id].get(dim)
            if pts is not None:
                trans_rows.extend((s.id, dim, u, v) for u, v in pts)
    _write(os.path.join(out_dir, "diagrams.csv"),
           persistence.write_diagram_csv(diag_rows))
    _write(os.path.join(out_dir, "transformed.csv"),
           persistence.write_transformed_csv(trans_rows))
    log.info("persistence done: %d finite points across %d samples",
             len(trans_rows), len(samples))
    return points_by_id


# -- feature assembly ----------------------------------------------------------


def fit_cder_models(points_by_id: dict, labels_by_id: dict, domain: list,
                    train_ids, dims, params: dict) -> dict:
    """One CderModel per dim, fitted on train_ids with parse_cder's params.

    A dim where no region clears the entropy bar contributes an empty model
    (zero features) instead of failing the run.
    """
    models = {}
    for dim in dims:
        clouds = [points_by_id[i].get(dim, np.zeros((0, 2)))
                  for i in train_ids]
        labels = [labels_by_id[i] for i in train_ids]
        dset = cder.assign_weights(clouds, labels, domain=domain)
        try:
            models[dim] = cder.fit(dset, **params)
        except (NoRegionsFound, EmptyInput) as exc:
            log.warning("dim %d: %s; continuing with zero features", dim, exc)
            models[dim] = cder.CderModel(coordinates=[], meta={
                "entropy_threshold": params.get("entropy_threshold"),
                "min_mass": params.get("min_mass"),
                "note": "no regions found"})
    return models


def cder_feature_matrix(models: dict, points_by_id: dict, ids) -> np.ndarray:
    rows = [cder.vectorize_sample(models, points_by_id[i]) for i in ids]
    return np.array(rows, dtype=float).reshape(len(list(ids)), -1)


def load_sme_features(path: str, ids):
    """The SME table at path as a matrix over ids, and its column names."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        table = pdb_ingest.load_sme_csv(text)
        return table.matrix_for(ids), [f"sme_{c}" for c in table.columns]
    except DataError as exc:
        raise DataError(f"sme_csv {path}: {exc}") from exc


def assemble_feature_sets(feature_sets, X_cder, names_cder, X_sme,
                          names_sme) -> dict:
    """{set name: (matrix, names)} honoring CDER-first column order."""
    out = {}
    for name in feature_sets:
        if name == "CDER":
            out[name] = (X_cder, list(names_cder))
        elif name == "SME":
            out[name] = (X_sme, list(names_sme))
        else:
            out[name] = (np.hstack([X_cder, X_sme]),
                         list(names_cder) + list(names_sme))
    return out


def fit_feature_sets(cfg: PipelineConfig, points_by_id: dict,
                     labels_by_id: dict, domain: list, ids, train_ids,
                     feature_sets, sme):
    """The CDER models fitted on train_ids, and {set: (matrix over ids,
    names)} for feature_sets; sme is the SME (matrix over ids, names)."""
    models = fit_cder_models(points_by_id, labels_by_id, domain, train_ids,
                             cfg.dims, cfg.cder_params)
    X_cder = cder_feature_matrix(models, points_by_id, ids)
    return models, assemble_feature_sets(
        feature_sets, X_cder, cder.feature_names(models), *sme)


def fit_forest(data: Dataset, forest_cfg: dict, seed: int):
    """The random search on data, and the forest fit with its best params."""
    search = random_search_cv(data, forest_cfg["space"],
                              n_iter=forest_cfg["n_iter"],
                              k_folds=forest_cfg["k_folds"], seed=seed)
    return search, forest_fit(data, search.best_params, seed=seed)


# -- artifact writers ----------------------------------------------------------


def _write(path: str, text: str) -> None:
    """Write text to path through a temp file in the same directory that
    replaces path only once complete, so an interrupted run never leaves a
    half-written artifact. A missing parent directory is created."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                         else v for v in row])
    return buf.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def labels_csv(samples) -> str:
    return _csv_text(["id", "score", "label"],
                     [(s.id, float(s.score), s.label) for s in samples])


def features_csv(ids, names, X) -> str:
    rows = [(i, *map(float, X[k])) for k, i in enumerate(ids)]
    return _csv_text(["id", *names], rows)


def importance_csv(names, importances) -> str:
    return _csv_text(["feature", "importance"],
                     list(zip(names, map(float, importances))))


def predictions_csv(ids, probas, truths) -> str:
    return _csv_text(["id", "proba_unstable", "truth"],
                     [(i, float(p), int(t))
                      for i, p, t in zip(ids, probas, truths)])


def correlation_rows(names_a, X_a, names_b, X_b):
    rows = []
    for i, na in enumerate(names_a):
        for j, nb in enumerate(names_b):
            try:
                r = pearson_r(X_a[:, i], X_b[:, j])
            except ZeroVariance:
                r = float("nan")
            rows.append((na, nb, float(r)))
    return rows


def correlation_csv(rows) -> str:
    return _csv_text(["cder_feature", "sme_feature", "r"], rows)


def hexbin_csv(points, stable_mask, side: float | None) -> str:
    header = ["hex_center_u", "hex_center_v", "signed_count",
              "log_signed_value"]
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(points) == 0:
        return _csv_text(header, [])
    if side is None:
        u_range = float(points[:, 0].max() - points[:, 0].min())
        side = u_range / 50.0 if u_range > 0 else 1.0
    grid = hexbin(points, list(stable_mask), side)
    return _csv_text(header, [(float(u), float(v), int(c), float(g))
                              for u, v, c, g in hexgrid_rows(grid)])


def pool_dim(points_by_id: dict, labels_by_id: dict, ids, dim: int):
    """One dim's points pooled over ids, and a per-point stable mask."""
    pts, stable_mask = [], []
    for i in ids:
        p = points_by_id[i].get(dim)
        if p is None or len(p) == 0:
            continue
        if i not in labels_by_id:
            raise DataError(f"id missing from labels: {i}")
        pts.append(p)
        stable_mask.extend([labels_by_id[i] == STABLE] * len(p))
    return (np.vstack(pts) if pts else np.zeros((0, 2))), stable_mask


def _set_tag(name: str) -> str:
    return name.lower().replace("+", "_plus_")


# -- the pipeline --------------------------------------------------------------


def _std(values) -> float:
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


def run_pipeline(cfg: PipelineConfig, out_dir: str, jobs: int = 1) -> dict:
    """Run every repeat and write all artifacts; returns the report dict."""
    run_dir = os.path.join(out_dir, f"run_seed{cfg.seed}")
    os.makedirs(run_dir, exist_ok=True)

    samples = build_corpus(cfg)
    ids = [s.id for s in samples]
    labels_by_id = {s.id: s.label for s in samples}
    domain = sorted({s.label for s in samples})
    if len(domain) < 2:
        raise EmptyClass("corpus has a single class after thresholding")
    y_all = np.array([domain.index(s.label) for s in samples])
    sme = load_sme_features(cfg.sme_csv, ids) if cfg.sme_csv else (None, None)
    _write(os.path.join(run_dir, "labels.csv"), labels_csv(samples))
    log.info("corpus: %d samples (%s)", len(samples),
             ", ".join(f"{d}={int((y_all == k).sum())}"
                       for k, d in enumerate(domain)))

    diagrams_by_id = compute_diagrams(samples, cfg.filtration, jobs=jobs)
    points_by_id = write_persistence(samples, diagrams_by_id, cfg.dims,
                                     run_dir)

    per_set = {name: {"per_repeat_aps": [], "num_feat": []}
               for name in cfg.feature_sets}
    row_of = {i: k for k, i in enumerate(ids)}
    for r in range(cfg.n_repeats):
        rseed = cfg.seed + r
        rep_dir = os.path.join(run_dir, f"repeat_{r:02d}")
        os.makedirs(rep_dir, exist_ok=True)
        train_ids, valid_ids = stratified_split(
            ids, [labels_by_id[i] for i in ids], cfg.split_fraction,
            seed=rseed)
        _write(os.path.join(rep_dir, "split.json"),
               _json_text({"seed": rseed, "train": train_ids,
                           "valid": valid_ids}))

        models, matrices = fit_feature_sets(
            cfg, points_by_id, labels_by_id, domain, ids, train_ids,
            cfg.feature_sets, sme)
        _write(os.path.join(rep_dir, "cder_model.json"),
               cder.models_to_json(models))
        if "CDER" in matrices and matrices["CDER"][0].shape[1] == 0:
            raise DataError("CDER produced zero features on every dim; "
                            "loosen entropy_threshold or min_mass")

        tr_idx = [row_of[i] for i in train_ids]
        va_idx = [row_of[i] for i in valid_ids]
        y_valid = y_all[va_idx]
        for name in cfg.feature_sets:
            X, names = matrices[name]
            search, model = fit_forest(
                Dataset(X[tr_idx], y_all[tr_idx], names, train_ids),
                cfg.forest, rseed)
            probas = predict_proba(model, X[va_idx])
            aps = average_precision(probas, y_valid)
            per_set[name]["per_repeat_aps"].append(float(aps))
            per_set[name]["num_feat"].append(int(X.shape[1]))

            tag = _set_tag(name)
            _write(os.path.join(rep_dir, f"best_params_{tag}.json"),
                   _json_text({"params": search.best_params,
                               "cv_aps": search.best_score}))
            _write(os.path.join(rep_dir, f"importance_{tag}.csv"),
                   importance_csv(names, mdi_importance(model)))
            _write(os.path.join(rep_dir, f"predictions_{tag}.csv"),
                   predictions_csv(valid_ids, probas, y_valid))
            log.info("repeat %d %s: validation APS %.4f (%d features)",
                     r, name, aps, X.shape[1])
    report = build_report(cfg, y_all, domain, per_set)

    # the full-data model, for the correlation and importance tables
    full_sets = ["CDER"] + (["SME", "CDER+SME"] if cfg.sme_csv else [])
    models, matrices = fit_feature_sets(cfg, points_by_id, labels_by_id,
                                        domain, ids, ids, full_sets, sme)
    _write(os.path.join(run_dir, "cder_model_full.json"),
           cder.models_to_json(models))
    X_cder, names_cder = matrices["CDER"]
    _write(os.path.join(run_dir, "features_cder_full.csv"),
           features_csv(ids, names_cder, X_cder))
    if cfg.sme_csv:
        X_sme, names_sme = matrices["SME"]
        _write(os.path.join(run_dir, "correlation.csv"), correlation_csv(
            correlation_rows(names_cder, X_cder, names_sme, X_sme)))
    X_full, names_full = matrices[full_sets[-1]]
    if X_full.shape[1] == 0:
        log.warning("no features for the full-data model; skipping "
                    "importance.csv")
    else:
        _, model = fit_forest(Dataset(X_full, y_all, names_full, ids),
                              cfg.forest, cfg.seed)
        _write(os.path.join(run_dir, "importance.csv"),
               importance_csv(names_full, mdi_importance(model)))
        _write(os.path.join(run_dir, "forest_full.json"),
               forest_to_json(model))

    for dim in cfg.dims:
        pooled, stable_mask = pool_dim(points_by_id, labels_by_id, ids, dim)
        _write(os.path.join(run_dir, f"hexbin_h{dim}.csv"),
               hexbin_csv(pooled, stable_mask, cfg.hexbin_side))

    _write(os.path.join(run_dir, "report.json"), _json_text(report))
    return report


def build_report(cfg: PipelineConfig, y_all, domain, per_set: dict) -> dict:
    """report.json's payload; per_set's {set: {per_repeat_aps, num_feat}}
    bodies gain their mean_aps and std_aps in place."""
    for body in per_set.values():
        body["mean_aps"] = float(np.mean(body["per_repeat_aps"]))
        body["std_aps"] = _std(body["per_repeat_aps"])
    report = {
        "seed": cfg.seed,
        "n_repeats": cfg.n_repeats,
        "n_samples": len(y_all),
        "threshold": cfg.threshold,
        "class_counts": {d: int((y_all == k).sum())
                         for k, d in enumerate(domain)},
        "positive_label": domain[1],
        "feature_sets": per_set,
    }
    if "SME" in per_set and "CDER+SME" in per_set:
        try:
            t, p = paired_t_one_tailed(per_set["CDER+SME"]["per_repeat_aps"],
                                       per_set["SME"]["per_repeat_aps"])
            report["paired_t_combined_gt_sme"] = {"t": t, "p": p}
        except (ZeroVarianceDiff, ValueError) as exc:
            report["paired_t_combined_gt_sme"] = {"t": None, "p": None,
                                                  "note": str(exc)}
    return report
