"""Tests of the benchmark itself: inputs, tracer arithmetic, smoke runs.

Run with `python -m pytest perfbench/tests` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import layers, protein_gen, run
from perfbench.tracer import Span, Tracer, self_times, total_self_time, \
    total_time
from perfbench.workloads import WORKLOADS

ROOT = run.ROOT


def _tree_bytes(path):
    out = {}
    for d, _, files in os.walk(path):
        for f in files:
            full = os.path.join(d, f)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = fh.read()
    return out


def test_protein_generator_is_byte_identical_per_seed(tmp_path):
    a = protein_gen.generate(str(tmp_path / "a"), 7, 3, 2, 40)
    protein_gen.generate(str(tmp_path / "b"), 7, 3, 2, 40)
    protein_gen.generate(str(tmp_path / "c"), 8, 3, 2, 40)
    first = _tree_bytes(tmp_path / "a")
    assert len(first) == 5 + 2
    assert first == _tree_bytes(tmp_path / "b")
    assert first != _tree_bytes(tmp_path / "c")

    from topostab import pdb_ingest
    for name in os.listdir(a["pdb_dir"]):
        with open(os.path.join(a["pdb_dir"], name), encoding="utf-8") as fh:
            cloud = pdb_ingest.assign_weights(pdb_ingest.parse_pdb(fh.read()))
        assert len(cloud) == 40
        assert set(cloud.weights) <= {pdb_ingest.VDW_RADII[e]
                                      for e in "CNOS"}


def _span(i, name, start, end, parent=None):
    return Span(i, name, start, end, parent, "r")


def test_self_time_on_hand_built_tree():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, 0),
        _span(2, "b", 3.0, 6.0, 0),      # overlaps a: union is [1, 6]
        _span(3, "leaf", 2.0, 3.0, 1),
        _span(4, "late", 9.0, 12.0, 0),  # runs past its parent: clipped
    ]
    st = self_times(spans)
    assert st == pytest.approx({0: 10 - 5 - 1, 1: 2.0, 2: 3.0, 3: 1.0,
                                4: 3.0})
    assert total_self_time(spans, {"a", "b"}) == pytest.approx(5.0)


def test_best_wall_sums_the_fastest_time_of_each_stage():
    staged = [{"wall_s": 9.0, "ok": True, "stages": {"a": 5.0, "b": 4.0}},
              {"wall_s": 8.0, "ok": True, "stages": {"a": 2.0, "b": 6.0}},
              {"wall_s": 1.0, "ok": False, "stages": {"a": 0.5, "b": 0.5}}]
    assert run.best_wall(staged) == pytest.approx(2.0 + 4.0)
    whole = [{"wall_s": 9.0, "ok": True}, {"wall_s": 8.0, "ok": True}]
    assert run.best_wall(whole) == pytest.approx(8.0)


def test_total_time_counts_nested_same_layer_once():
    spans = [
        _span(0, "x", 0.0, 5.0),
        _span(1, "y", 1.0, 2.0, 0),
        _span(2, "x", 1.2, 1.8, 1),   # x under y under x: inside the first
        _span(3, "x", 6.0, 7.0),
    ]
    assert total_time(spans, {"x"}) == pytest.approx(6.0)
    assert total_time(spans, {"y"}) == pytest.approx(1.0)


def test_tracer_records_parents_counters_and_restores():
    class Mod:
        @staticmethod
        def outer(n):
            return Mod.inner(n) + 1

        @staticmethod
        def inner(n):
            if n < 0:
                raise ValueError("negative")
            return n

    original = Mod.inner
    tracer = Tracer()
    tracer.run_id = "r1"
    tracer.patch(Mod, "outer", "outer")
    tracer.patch(Mod, "inner", "inner",
                 lambda t, args, kwargs, result: t.count("items", result),
                 lambda t, exc: t.count("errors"))
    assert Mod.outer(3) == 4
    with pytest.raises(ValueError):
        Mod.inner(-1)
    tracer.unpatch()

    assert Mod.inner is original
    outer, inner, failed = tracer.spans
    assert (outer.name, outer.parent) == ("outer", None)
    assert (inner.name, inner.parent) == ("inner", outer.id)
    assert failed.parent is None and failed.end >= failed.start
    assert {s.run_id for s in tracer.spans} == {"r1"}
    assert tracer.counters == {"items": 3, "errors": 1}


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == \
        [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.E2E
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == \
        [(n, u, b) for n, u, b, _ in layers.METRICS]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_passes_checks_and_traces_every_layer(name, tmp_path):
    # trace mode makes an untraced and a traced run, so the two must agree
    result = run.measure(name, seed=3, seconds=0, trace=True, size="smoke",
                         work_root=str(tmp_path))
    assert result["correct"], result
    assert (result["attempted"], result["failed"]) == (2, 0)
    assert set(result["metrics"]) == {n for n, _, _, _ in layers.METRICS}
    assert (tmp_path / "traces" / f"{name}-seed3.json").is_file()


def test_smoke_end_to_end_metrics_are_positive(tmp_path):
    result = run.measure("cli-stages", seed=0, seconds=0, trace=False,
                         size="smoke", work_root=str(tmp_path))
    assert result["correct"]
    assert [k for k in result["metrics"]] == [n for n, _ in run.E2E]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toy-rips",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
