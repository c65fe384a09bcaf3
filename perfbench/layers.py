"""Per-layer metrics: where the tracer hooks into each `topostab` module.

`install` patches the public functions of every module at the place they
are looked up (a module attribute, or a name another module imported), so
each call records a span and its counters. `layer_metrics` turns one traced
run into the per-layer numbers. `METRICS` also says which end-to-end metric
each one should move, on which workload, so a change on one layer can be
checked against the prediction.
"""

from __future__ import annotations

from perfbench.tracer import total_self_time, total_time

# (name, unit, better, end-to-end metric and workload it should move)
METRICS = [
    ("pdb_ingest.time_s", "s", "lower",
     "setup_s/wall_s; small everywhere"),
    ("pdb_ingest.atoms", "count", "lower", "setup_s/wall_s on protein-alpha"),
    ("synth.time_s", "s", "lower", "wall_s; small everywhere"),
    ("complexes.rips_s", "s", "lower", "wall_s, peak_rss_mb on toy-rips"),
    ("complexes.simplices", "count", "lower",
     "wall_s, peak_rss_mb on toy-rips"),
    ("complexes.alpha_s", "s", "lower", "wall_s on protein-alpha only"),
    ("persistence.validate_s", "s", "lower", "wall_s on toy-rips"),
    ("persistence.reduce_s", "s", "lower",
     "wall_s on toy-rips (self time, validate excluded)"),
    ("persistence.pairs", "count", "lower", "wall_s on toy-rips"),
    ("persistence.top_dim_rows", "count", "lower",
     "wall_s, output_mb, peak_rss_mb on toy-rips; 0 on protein-alpha"),
    ("persistence.rows_s", "s", "lower",
     "wall_s, peak_rss_mb on toy-rips; flat on protein-alpha"),
    ("persistence.csv_s", "s", "lower",
     "wall_s, output_mb on toy-rips; flat on protein-alpha"),
    ("pipeline.write_s", "s", "lower",
     "wall_s, output_mb on toy-rips; flat on protein-alpha"),
    ("pipeline.bytes_written", "bytes", "lower",
     "output_mb on toy-rips; flat on protein-alpha"),
    ("cli.read_s", "s", "lower", "wall_s on cli-stages only"),
    ("cli.dump_s", "s", "lower", "wall_s on cli-stages only"),
    ("covertree.build_s", "s", "lower",
     "wall_s on protein-alpha, then toy-rips"),
    ("covertree.points", "count", "lower",
     "wall_s on protein-alpha, then toy-rips"),
    ("covertree.levels", "count", "lower",
     "wall_s on protein-alpha, then toy-rips"),
    ("cder.fit_self_s", "s", "lower", "wall_s on protein-alpha"),
    ("cder.regions_visited", "count", "lower", "wall_s on protein-alpha"),
    ("cder.points_scanned", "count", "lower", "wall_s on protein-alpha"),
    ("cder.coordinates", "count", "higher", "mean_aps on protein-alpha"),
    ("cder.coords_per_region", "ratio", "higher", "wall_s on protein-alpha"),
    ("cder.fits_empty", "count", "lower", "mean_aps on protein-alpha"),
    ("cder.featurize_s", "s", "lower", "wall_s on protein-alpha"),
    ("forest.search_s", "s", "lower", "wall_s on cli-stages"),
    ("forest.fit_s", "s", "lower", "wall_s on cli-stages"),
    ("forest.forests", "count", "lower", "wall_s on cli-stages"),
    ("forest.nodes", "count", "lower", "wall_s on cli-stages"),
    ("forest.predict_s", "s", "lower", "wall_s on cli-stages"),
    ("stats.hexbin_s", "s", "lower", "wall_s on protein-alpha"),
    ("stats.correlation_s", "s", "lower", "wall_s on protein-alpha only"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s"),
]

CLI_READERS = "cli.read"


def install(tracer, top_dim: int) -> None:
    """Patch every traced call site; `tracer.unpatch()` undoes it."""
    from topostab import (cder, cli, covertree, forest, pdb_ingest,
                          persistence, pipeline, synth)
    from topostab.errors import NoRegionsFound
    p = tracer.patch

    def count(name, measure):
        return lambda t, args, kwargs, result: t.count(name, measure(
            args, kwargs, result))

    p(pipeline, "run_pipeline", "pipeline.run")
    p(cli, "main", "cli.main")

    p(pdb_ingest, "parse_pdb", "pdb_ingest",
      count("pdb_ingest.atoms", lambda a, k, r: len(r)))
    for attr in ("assign_weights", "load_scores_csv", "label_samples",
                 "label_and_downsample"):
        p(pdb_ingest, attr, "pdb_ingest")
    for attr in ("make_toy_corpus", "make_shape_clouds", "maxmin_indices"):
        p(synth, attr, "synth")

    simplices = count("complexes.simplices", lambda a, k, r: len(r))
    p(pipeline, "build_rips", "complexes.rips", simplices)
    p(pipeline, "build_weighted_alpha", "complexes.alpha", simplices)

    p(persistence, "reduce", "persistence.reduce",
      count("persistence.pairs", lambda a, k, r: sum(len(d) for d in r)))
    p(persistence, "validate_filtration", "persistence.validate")
    p(persistence, "diagram_rows", "persistence.rows")
    p(persistence, "write_diagram_csv", "persistence.csv",
      count("persistence.top_dim_rows",
            lambda a, k, r: sum(1 for row in a[0] if row[1] == top_dim)))
    p(persistence, "write_transformed_csv", "persistence.csv")
    p(pipeline, "_write", "pipeline.write",
      count("pipeline.bytes_written",
            lambda a, k, r: len(a[1].encode("utf-8"))))

    p(persistence, "read_transformed_csv", CLI_READERS)
    p(cder, "models_from_json", CLI_READERS)
    for attr in ("_load_corpus", "forest_from_json", "_load_feature_table"):
        p(cli, attr, CLI_READERS)
    p(cli, "_dump_corpus", "cli.dump")

    def tree_size(t, args, kwargs, tree):
        t.count("covertree.points", len(tree.points))
        t.count("covertree.levels", tree.max_level - tree.min_level + 1)
    p(covertree, "build", "covertree.build", tree_size)

    def empty_fit(t, exc):
        if isinstance(exc, NoRegionsFound):
            t.count("cder.fits_empty")

    p(cder, "fit", "cder.fit",
      count("cder.coordinates", lambda a, k, r: len(r)), empty_fit)

    def region(t, args, kwargs, result):
        pooled = kwargs.get("_pooled") or args[0].pooled()
        t.count("cder.regions_visited")
        t.count("cder.points_scanned", len(pooled[0]))
    # counters only: a span per region would dominate the trace
    p(cder, "region_entropy", None, region)
    p(pipeline, "cder_feature_matrix", "cder.featurize")

    def forest_size(t, args, kwargs, model):
        t.count("forest.forests")
        t.count("forest.nodes", sum(len(tree.feature) for tree in model.trees))
    for mod in (pipeline, cli):
        p(mod, "random_search_cv", "forest.search")
    for mod, attr in ((forest, "fit"), (pipeline, "forest_fit"),
                      (cli, "forest_fit")):
        p(mod, attr, "forest.fit", forest_size)
    for mod in (forest, pipeline, cli):
        p(mod, "predict_proba", "forest.predict")

    p(pipeline, "hexbin", "stats.hexbin")
    p(pipeline, "correlation_rows", "stats.correlation")


def layer_metrics(spans, counters: dict, overhead_s: float) -> dict:
    """Every per-layer metric of one traced run, by name."""
    def t(name):
        return total_time(spans, {name})

    c = counters.get
    regions = c("cder.regions_visited", 0)
    values = {
        "pdb_ingest.time_s": t("pdb_ingest"),
        "synth.time_s": t("synth"),
        "complexes.rips_s": t("complexes.rips"),
        "complexes.alpha_s": t("complexes.alpha"),
        "persistence.validate_s": t("persistence.validate"),
        "persistence.reduce_s": total_self_time(spans, {"persistence.reduce"}),
        "persistence.rows_s": t("persistence.rows"),
        "persistence.csv_s": t("persistence.csv"),
        "pipeline.write_s": t("pipeline.write"),
        "cli.read_s": t(CLI_READERS),
        "cli.dump_s": t("cli.dump"),
        "covertree.build_s": t("covertree.build"),
        "cder.fit_self_s": total_self_time(spans, {"cder.fit"}),
        "cder.coords_per_region":
            c("cder.coordinates", 0) / regions if regions else 0.0,
        "cder.featurize_s": t("cder.featurize"),
        "forest.search_s": t("forest.search"),
        "forest.fit_s": t("forest.fit"),
        "forest.predict_s": t("forest.predict"),
        "stats.hexbin_s": t("stats.hexbin"),
        "stats.correlation_s": t("stats.correlation"),
        "trace.overhead_s": overhead_s,
    }
    for name, unit, _, _ in METRICS:
        if name not in values:
            values[name] = c(name, 0)
    return values
