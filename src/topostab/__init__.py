"""Topological stability classification of labeled 3-D point clouds.

Point clouds (protein atom coordinates or synthetic shapes) become
persistence diagrams via Rips or weighted-alpha filtrations; a cover-tree
entropy search learns Gaussian diagram coordinates that separate the
classes; random forests trained on those features report average-precision
statistics. Most workflows go through the ``topostab`` CLI or the
``pipeline`` module; the submodules expose every step individually.
"""

from __future__ import annotations

from . import (cder, complexes, covertree, errors, forest, pdb_ingest,
               persistence, pipeline, stats, synth)
from .cder import CderModel, GaussianCoordinate, LabeledDiagramSet
from .complexes import FilteredComplex, build_rips, build_weighted_alpha
from .covertree import CoverTree
from .errors import ConfigError, DataError, TopostabError
from .forest import Dataset, RandomForest, random_search_cv
from .pdb_ingest import VDW_RADII, WeightedPointCloud, parse_pdb
from .pipeline import PipelineConfig, load_config, run_pipeline
from .stats import average_precision, paired_t_one_tailed, pearson_r
from .synth import make_toy_corpus, sample_figure8, sample_sphere

__version__ = "0.1.0"
