"""End-to-end orchestration: corpus -> diagrams -> CDER features -> forests.

Everything here is deterministic for a fixed config and seed: artifacts carry
no timestamps, floats are serialized with repr, JSON keys are sorted, and all
randomness flows from numpy generators seeded with `seed + repeat_index`.
"""

from __future__ import annotations

import json
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import cder, pdb_ingest, persistence, synth
from .cder import feature_matrix as cder_feature_matrix
from .complexes import build_rips, build_weighted_alpha, check_cloud
from .errors import (ConfigError, DataError, NoRegionsFound, ZeroVariance,
                     ZeroVarianceDiff)
from .forest import Dataset, _n_subset_features, fit as forest_fit, \
    forest_to_json, mdi_importance, predict_proba, random_search_cv
from .pdb_ingest import STABLE
from .stats import (average_precision, hexbin, paired_t_one_tailed,
                    pearson_r, stratified_split)
from .tables import csv_text, read_csv

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
    """One labeled cloud, from any source to persistence. When built it
    checks its cloud with `check_cloud`, and that its score is finite; a
    fault is a DataError naming the sample."""

    id: str
    score: float
    label: str
    points: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        try:
            self.points, self.weights = check_cloud(self.points, self.weights)
            if not math.isfinite(self.score):
                raise DataError(f"score {self.score!r} is not finite")
        except DataError as exc:
            raise DataError(f"sample {self.id}: {exc}") from None


@dataclass
class PipelineConfig:
    corpus: dict
    filtration: dict
    dims: list
    threshold: float
    subsample_points: int | None
    cder_params: dict
    forest: dict
    feature_sets: list
    sme_csv: str | None
    split_fraction: float
    n_repeats: int
    seed: int
    hexbin_side: float | None


_CONFIG_KEYS = {
    "corpus", "filtration", "dims", "threshold", "subsample_points",
    "cder", "forest", "feature_sets", "sme_csv", "split_fraction",
    "n_repeats", "seed", "hexbin_side",
}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _number(value, name: str) -> float:
    """float(value) if value is a finite int or float and not a bool, else
    a ConfigError."""
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):   # not a number, or beyond a float
        ok = False
    _require(ok, f"{name} must be a finite number, got {value!r}")
    return float(value)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value, name: str) -> int:
    """value itself if it is an int and not a bool, else a ConfigError."""
    _require(_is_int(value), f"{name} must be an integer, got {value!r}")
    return value


def parse_seed(value) -> int:
    """A seed: a non-negative integer."""
    _require(_integer(value, "seed") >= 0,
             f"seed must be non-negative, got {value}")
    return value


def parse_jobs(value) -> int:
    """A worker count: an integer >= 1."""
    _require(_integer(value, "jobs") >= 1, f"jobs must be >= 1, got {value}")
    return value


def _path(value, name: str, base_dir: str, exists=os.path.isfile) -> str:
    """The path string value resolved against base_dir; exists must hold."""
    _require(isinstance(value, str) and value,
             f"{name} must be a path string, got {value!r}")
    path = os.path.normpath(os.path.join(base_dir, value))
    _require(exists(path), f"{name} not found: {path}")
    return path


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
        _require(_integer(corpus.get("n_per_class", 0), "n_per_class") > 0,
                 "synthetic corpus needs n_per_class > 0")
        _require(_integer(corpus.get("n_points", 0), "n_points") >= 4,
                 "synthetic corpus needs n_points >= 4")
        corpus["noise"] = _number(corpus.get("noise", 0.0), "noise")
        _require(corpus["noise"] >= 0, "noise must be nonnegative")
    elif kind == "pdb":
        unknown = sorted(set(corpus) -
                         {"kind", "pdb_dir", "scores_csv", "downsample"})
        _require(not unknown, f"unknown pdb corpus keys: {unknown}")
        _require("pdb_dir" in corpus and "scores_csv" in corpus,
                 "pdb corpus needs pdb_dir and scores_csv")
        corpus["pdb_dir"] = _path(corpus["pdb_dir"], "pdb_dir", base_dir,
                                  os.path.isdir)
        corpus["scores_csv"] = _path(corpus["scores_csv"], "scores_csv",
                                     base_dir)
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
        filtration["max_scale"] = _number(filtration.get("max_scale", 0.0),
                                          "max_scale")
        _require(filtration["max_scale"] > 0, "rips needs max_scale > 0")
        filtration.setdefault("max_dim", 2)
    elif fkind == "weighted-alpha":
        unknown = sorted(set(filtration) - {"kind", "max_dim"})
        _require(not unknown, f"unknown weighted-alpha keys: {unknown}")
        filtration.setdefault("max_dim", 3)
    else:
        raise ConfigError(f"unknown filtration kind {fkind!r}")
    filtration["max_dim"] = _integer(filtration["max_dim"], "max_dim")
    _require(filtration["max_dim"] >= 1, "filtration max_dim must be >= 1")
    _require(fkind == "rips" or filtration["max_dim"] <= 3,
             "weighted-alpha max_dim must be <= 3: its complex stops at "
             "tetrahedra")
    return filtration


def parse_dims(dims, max_dim) -> list:
    """Sorted distinct feature dims, each below the filtration max_dim."""
    _require(isinstance(dims, list) and dims and
             all(_is_int(d) and d >= 0 for d in dims),
             "dims must be a non-empty list of nonnegative integers")
    dims = sorted(set(dims))
    _require(max(dims) < max_dim,
             "every feature dim must be below the filtration max_dim, or "
             "its classes can never die")
    return dims


# {parameter: default} of cder.fit, read once, before anything wraps fit
_CDER_DEFAULTS = cder.fit.__kwdefaults__


def parse_cder(params) -> dict:
    """Every CDER parameter, in the range cder.fit accepts; one left out or
    None takes cder.fit's default, so these are the values a fit uses."""
    _require(isinstance(params, dict), "cder must be an object")
    params = {k: v for k, v in params.items() if v is not None}
    unknown = sorted(set(params) - set(_CDER_DEFAULTS))
    _require(not unknown, f"unknown cder keys: {unknown}")
    params = {k: _number(v, k)
              for k, v in {**_CDER_DEFAULTS, **params}.items()}
    try:
        cder.check_params(**params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return params


# the options forest.fit reads besides max_features, each with its check
_FOREST_OPTIONS = {
    "n_trees": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "max_depth": (lambda v: v is None or _is_int(v) and v >= 0,
                  "null or an integer >= 0"),
    "min_samples_leaf": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "bootstrap": (lambda v: isinstance(v, bool), "true or false"),
}


def parse_forest(forest) -> dict:
    """The validated forest section, with defaults filled in. The search
    space may name only the options forest.fit reads."""
    _require(isinstance(forest, dict), "forest must be an object")
    forest = dict(forest)
    unknown = sorted(set(forest) - {"space", "n_iter", "k_folds"})
    _require(not unknown, f"unknown forest keys: {unknown}")
    forest.setdefault("space", dict(DEFAULT_FOREST_SPACE))
    forest["n_iter"] = _integer(forest.get("n_iter", 4), "n_iter")
    forest["k_folds"] = _integer(forest.get("k_folds", 10), "k_folds")
    _require(forest["n_iter"] > 0, "forest n_iter must be positive")
    _require(forest["k_folds"] >= 2, "forest k_folds must be >= 2")
    space = forest["space"]
    _require(isinstance(space, dict) and space and
             all(isinstance(v, list) and v for v in space.values()),
             "forest space must map names to non-empty option lists")
    unknown = sorted(set(space) - set(_FOREST_OPTIONS) - {"max_features"})
    _require(not unknown, f"unknown forest space keys: {unknown}")
    for name, (ok, want) in _FOREST_OPTIONS.items():
        for value in space.get(name, []):
            _require(ok(value), f"forest space {name} must be {want}, "
                     f"got {value!r}")
    for rule in space.get("max_features", []):
        _n_subset_features(rule, 1)
    return forest


def parse_subsample(value):
    """None, or a farthest-point cap of at least 4 points per cloud."""
    if value is None:
        return None
    value = _integer(value, "subsample_points")
    _require(value >= 4, "subsample_points must be >= 4")
    return value


def parse_hexbin_side(value):
    """None (derived from the data), or a positive hexagon side."""
    if value is None:
        return None
    value = _number(value, "hexbin_side")
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
        sme_csv = _path(sme_csv, "sme_csv", base_dir)
    needs_sme = [f for f in feature_sets if "SME" in f]
    _require(not (needs_sme and sme_csv is None),
             f"feature sets {needs_sme} need an sme_csv")

    split_fraction = _number(raw.get("split_fraction", 0.8), "split_fraction")
    _require(0 < split_fraction < 1, "split_fraction must lie in (0, 1)")
    n_repeats = _integer(raw.get("n_repeats", 10), "n_repeats")
    _require(n_repeats >= 1, "n_repeats must be >= 1")

    return PipelineConfig(
        corpus=corpus, filtration=filtration, dims=dims,
        threshold=_number(raw.get("threshold", 1.0), "threshold"),
        subsample_points=parse_subsample(raw.get("subsample_points")),
        cder_params=cder_params, forest=forest,
        feature_sets=feature_sets, sme_csv=sme_csv,
        split_fraction=split_fraction, n_repeats=n_repeats,
        seed=parse_seed(raw.get("seed", 0)),
        hexbin_side=parse_hexbin_side(raw.get("hexbin_side")))


def read_file(path: str, what: str, parse=str, error=DataError):
    """parse(text) of the file at path: every input file is read here. A
    path that is not a readable file is a ConfigError; text that is not
    UTF-8, or that parse rejects, is an `error` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{what} is not a readable file: {path} "
                          f"({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise error(f"bad {what} {path}: {exc}") from None
    try:
        return parse(text)
    except (DataError, KeyError, IndexError, TypeError, ValueError) as exc:
        if type(exc) is KeyError:
            detail = f"no key {exc}"
        elif isinstance(exc, json.JSONDecodeError):
            detail = f"not valid JSON: {exc}"
        else:
            detail = exc
        raise error(f"bad {what} {path}: {detail}") from None


def read_json(path: str, what: str):
    """The parsed JSON file; any fault in it is a ConfigError."""
    return read_file(path, what, json.loads, ConfigError)


def load_config(path: str) -> PipelineConfig:
    return parse_config(read_json(path, "config file"),
                        base_dir=os.path.dirname(os.path.abspath(path)))


# -- corpus assembly ----------------------------------------------------------


def label_corpus(clouds: dict, scores: dict, threshold: float, seed: int,
                 mode: str | None) -> list:
    """Samples for {id: (points, weights)}, in dict order, labeled by
    score; with a downsample mode the majority class is cut to balance. A
    corpus left with one class is a DataError."""
    missing = [i for i in clouds if i not in scores]
    if missing:
        raise DataError(f"no stability score for: {missing[:5]}")
    scores = {i: scores[i] for i in clouds}
    labels = pdb_ingest.label_samples(scores, threshold)
    if len(set(labels.values())) < 2:
        raise DataError("corpus has a single class after thresholding")
    if mode is not None:
        labels = pdb_ingest.label_and_downsample(scores, threshold,
                                                 seed=seed, mode=mode)
    return [Sample(i, scores[i], label, *clouds[i])
            for i, label in labels.items()]


def _parse_pdb_cloud(text: str):
    cloud = pdb_ingest.assign_weights(pdb_ingest.parse_pdb(text))
    return cloud.points, cloud.weights


def _parse_csv_cloud(text: str):
    _, (x, y, z, *_) = read_csv(text, ("x", "y", "z"), (0, 1, 2))
    if not len(x):
        raise ValueError("no points")
    return np.column_stack([x, y, z]), None


# {format: (what read_file calls a file, parser to (points, weights))}:
# PDB atoms carry their van der Waals radii, a csv cloud zero weights
_CLOUD_FORMATS = {"pdb": ("pdb file", _parse_pdb_cloud),
                  "csv": ("cloud csv", _parse_csv_cloud)}


def read_cloud_dir(cloud_dir: str, fmt: str, scores_csv: str,
                   threshold: float, seed: int, mode: str | None) -> list:
    """label_corpus over every .pdb or .csv (fmt) file of cloud_dir but
    scores.csv, in file-name order, each file one cloud whose id is its
    name without the suffix."""
    scores = read_file(scores_csv, "scores csv", pdb_ingest.load_scores_csv)
    what, parse = _CLOUD_FORMATS[fmt]
    names = sorted(n for n in os.listdir(cloud_dir)
                   if n.endswith(f".{fmt}") and n != "scores.csv")
    if not names:
        raise DataError(f"no .{fmt} files in {cloud_dir}")
    clouds = {n[:-len(fmt) - 1]: read_file(os.path.join(cloud_dir, n), what,
                                           parse) for n in names}
    return label_corpus(clouds, scores, threshold, seed, mode)


def farthest_point_subsample(samples, k: int | None) -> None:
    """Cut every sample to at most k points, in place; None keeps all.
    The samples of one size are cut in one stacked pass."""
    if k is None:
        return
    by_size = {}
    for s in samples:
        if len(s.points) > k:
            by_size.setdefault(len(s.points), []).append(s)
    for group in by_size.values():
        stack = np.stack([s.points for s in group])
        for s, idx in zip(group, synth.maxmin_indices(stack, k)):
            s.points, s.weights = s.points[idx], s.weights[idx]


def build_corpus(cfg: PipelineConfig) -> list:
    corpus = cfg.corpus
    if corpus["kind"] == "synthetic":
        clouds = synth.make_toy_corpus(corpus["n_per_class"],
                                       corpus["n_points"], corpus["noise"],
                                       cfg.seed)
        samples = label_corpus({c.id: (c.points, None) for c in clouds},
                               {c.id: c.score for c in clouds},
                               cfg.threshold, cfg.seed, None)
    else:
        samples = read_cloud_dir(corpus["pdb_dir"], "pdb",
                                 corpus["scores_csv"], cfg.threshold,
                                 cfg.seed, corpus.get("downsample"))
    farthest_point_subsample(samples, cfg.subsample_points)
    return samples


# -- persistent homology over the corpus --------------------------------------


def _ph_one(args):
    """Diagrams of dims below max_dim: the complex stops at max_dim, so
    its top dimension has no cofaces to kill a class and is not homology,
    and reduce does not build its diagram."""
    sample_id, points, weights, filtration = args
    max_dim = filtration["max_dim"]
    try:
        if filtration["kind"] == "rips":
            fc = build_rips(points, max_scale=filtration["max_scale"],
                            max_dim=max_dim)
        else:
            fc = build_weighted_alpha(points, weights, max_dim=max_dim)
        return sample_id, persistence.reduce(fc, stop=max_dim)
    except DataError as exc:
        raise DataError(f"sample {sample_id}: {exc}") from exc


def compute_diagrams(samples, filtration: dict, jobs: int = 1) -> dict:
    """Persistence diagrams per sample id, in deterministic sample order.
    A pool forks all its workers at once, so it gets one per sample at most."""
    tasks = [(s.id, s.points, s.weights, filtration) for s in samples]
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return dict(pool.map(_ph_one, tasks, chunksize=1))
    return dict(map(_ph_one, tasks))


def transformed_points(diagrams_by_id: dict, dims) -> dict:
    """{id: {dim: transform(dgs[dim], dim)}} of the dims below len(dgs)."""
    return {sample_id: {dim: persistence.transform(dgs[dim], dim)
                        for dim in dims if dim < len(dgs)}
            for sample_id, dgs in diagrams_by_id.items()}


def write_persistence(samples, diagrams_by_id: dict, dims,
                      out_dir: str) -> dict:
    """Write diagrams.csv and transformed.csv for the samples, and return
    their transformed points of the given dims, {id: {dim: (m, 2)}}."""
    points_by_id = transformed_points(diagrams_by_id, dims)
    diag_rows, trans_rows = [], []
    for s in samples:
        diag_rows.extend(persistence.diagram_rows(s.id, diagrams_by_id[s.id]))
        for dim in dims:
            pts = points_by_id[s.id].get(dim)
            if pts is not None:
                trans_rows.extend((s.id, dim, u, v) for u, v in pts.tolist())
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

    A dim with no point, or where no region clears the entropy bar,
    contributes an empty model (zero features) instead of failing the run;
    any other data fault of a fit is a DataError naming the dim.
    """
    models = {}
    for dim in dims:
        clouds = [points_by_id[i].get(dim, np.zeros((0, 2)))
                  for i in train_ids]
        labels = [labels_by_id[i] for i in train_ids]
        dset = cder.assign_weights(clouds, labels, domain=domain)
        try:
            models[dim] = cder.fit(dset, **params)
        except NoRegionsFound as exc:
            log.warning("dim %d: %s; continuing with zero features", dim, exc)
            models[dim] = cder.CderModel(coordinates=[], meta={
                **params, "note": "no regions found"})
        except DataError as exc:
            raise DataError(f"dim {dim}: {exc}") from None
    return models


def load_sme_features(path: str, ids):
    """The SME table at path as a matrix over ids, and its column names."""
    def parse(text):
        table = pdb_ingest.load_sme_csv(text)
        return table.matrix_for(ids), [f"sme_{c}" for c in table.columns]

    return read_file(path, "sme_csv", parse)


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


# the faults of an output path a user can fix, unlike a full disk
_PATH_FAULTS = (FileExistsError, IsADirectoryError, NotADirectoryError,
                PermissionError)


def make_dir(path: str) -> str:
    """path, created with its parents unless it is a directory already; a
    path that cannot be one is a ConfigError naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except _PATH_FAULTS as exc:
        raise ConfigError(f"cannot create directory {path}: "
                          f"{exc.strerror}") from None
    return path


def file_path(path: str) -> str:
    """path, unless it is a directory, where _write cannot write a file;
    the CLI checks every file --out with it before any input is read."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: Is a directory")
    return path


def _write(path: str, text: str) -> None:
    """Write text to path through a temp file in the same directory that
    replaces path only once complete, so an interrupted run never leaves a
    half-written artifact. A missing parent directory is created; a path
    that cannot be written as a file is a ConfigError naming it."""
    make_dir(os.path.dirname(path) or ".")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except _PATH_FAULTS as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def labels_csv(samples) -> str:
    return csv_text(["id", "score", "label"],
                     [(s.id, float(s.score), s.label) for s in samples])


def features_csv(ids, names, X) -> str:
    rows = [(i, *map(float, X[k])) for k, i in enumerate(ids)]
    return csv_text(["id", *names], rows)


def importance_csv(names, importances) -> str:
    return csv_text(["feature", "importance"],
                     list(zip(names, map(float, importances))))


def predictions_csv(ids, probas, truths) -> str:
    return csv_text(["id", "proba_unstable", "truth"],
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
    return csv_text(["cder_feature", "sme_feature", "r"], rows)


def hexbin_csv(points, stable_mask, side: float | None) -> str:
    header = ["hex_center_u", "hex_center_v", "signed_count",
              "log_signed_value"]
    if len(points) == 0:
        return csv_text(header, [])
    if side is None:
        u_range = float(points[:, 0].max() - points[:, 0].min())
        side = u_range / 50.0 if u_range > 0 else 1.0
    return csv_text(header, hexbin(points, stable_mask, side))


def pool_dim(points_by_id: dict, labels_by_id: dict, ids, dim: int):
    """One dim's points pooled over ids, and a per-point boolean stable
    mask."""
    pts, stable = [], []
    for i in ids:
        p = points_by_id[i].get(dim)
        if p is None or len(p) == 0:
            continue
        if i not in labels_by_id:
            raise DataError(f"id missing from labels: {i}")
        pts.append(p)
        stable.append(labels_by_id[i] == STABLE)
    if not pts:
        return np.zeros((0, 2)), np.zeros(0, dtype=bool)
    return np.vstack(pts), np.repeat(stable, [len(p) for p in pts])


def _set_tag(name: str) -> str:
    return name.lower().replace("+", "_plus_")


# -- the pipeline --------------------------------------------------------------


def _std(values) -> float:
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


def run_pipeline(cfg: PipelineConfig, out_dir: str, jobs: int = 1) -> dict:
    """Run every repeat and write all artifacts; returns the report dict."""
    run_dir = make_dir(os.path.join(out_dir, f"run_seed{cfg.seed}"))

    samples = build_corpus(cfg)
    ids = [s.id for s in samples]
    labels_by_id = {s.id: s.label for s in samples}
    domain = sorted({s.label for s in samples})
    y_all = np.array([domain.index(s.label) for s in samples])
    sme = load_sme_features(cfg.sme_csv, ids) if cfg.sme_csv else (None, None)
    # every repeat's split before any diagram, so a split that leaves a
    # class without a training or validation member fails fast
    splits = [stratified_split(ids, [labels_by_id[i] for i in ids],
                               cfg.split_fraction, seed=cfg.seed + r)
              for r in range(cfg.n_repeats)]
    _write(os.path.join(run_dir, "labels.csv"), labels_csv(samples))
    log.info("corpus: %d samples (%s)", len(samples),
             ", ".join(f"{d}={int((y_all == k).sum())}"
                       for k, d in enumerate(domain)))

    diagrams_by_id = compute_diagrams(samples, cfg.filtration, jobs=jobs)
    points_by_id = write_persistence(samples, diagrams_by_id, cfg.dims,
                                     run_dir)
    # before the forests, so a hex side no point fits fails fast
    for dim in cfg.dims:
        pooled, stable_mask = pool_dim(points_by_id, labels_by_id, ids, dim)
        _write(os.path.join(run_dir, f"hexbin_h{dim}.csv"),
               hexbin_csv(pooled, stable_mask, cfg.hexbin_side))

    per_set = {name: {"per_repeat_aps": [], "num_feat": []}
               for name in cfg.feature_sets}
    row_of = {i: k for k, i in enumerate(ids)}
    for r in range(cfg.n_repeats):
        rseed = cfg.seed + r
        rep_dir = make_dir(os.path.join(run_dir, f"repeat_{r:02d}"))
        train_ids, valid_ids = splits[r]
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
