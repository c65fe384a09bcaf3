"""Benchmark entry point: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload toy-rips --seed 0 --seconds 35
    python3 perfbench/run.py --workload all

One process, jobs=1, a closed loop with one client: each run of the workload
starts when the previous one has finished, and a run starts only while it
is expected to end within `--seconds` (there is always at least one). Every
run is checked; a run that raises, exits non-zero or fails a check counts as
failed and the loop goes on.

With `--trace 0` the end-to-end metrics are reported: `wall_s` is the sum,
over the stages of a run, of each stage's fastest time (a workload without
stages is one stage, so this is its fastest run), scaled to a host of fixed
speed by a reference kernel timed between runs; the others are medians over
runs.
With `--trace 1` the loop makes pairs of an untraced and a traced run, and
the per-layer metrics come from the traced runs. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
`--workload all` runs every workload in both modes, each in its own process,
and prints one table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path[:0] = [ROOT, SRC]
# one BLAS thread, as the pipeline runs with jobs=1: on a small VM idle
# helper threads only add scheduling noise. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from perfbench import layers  # noqa: E402
from perfbench.tracer import Tracer, dump  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

E2E = [("wall_s", "s"), ("samples_per_s", "1/s"), ("setup_s", "s"),
       ("peak_rss_mb", "MB"), ("output_mb", "MB"), ("mean_aps", "ratio")]
SETUP_REPEATS = 5
# median time of reference_seconds() on the machine of baseline.json:
# wall_s is reported in seconds of a host of that speed
REFERENCE_S = 0.14
# transformed.csv digests of the bench-size runs at seed 0, recorded at the
# commit that added the benchmark
with open(os.path.join(PERFBENCH, "baseline.json"), encoding="utf-8") as _fh:
    BASELINE = json.load(_fh)


class SetupError(Exception):
    """The program cannot be imported or its inputs cannot be made."""


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import topostab.cli, topostab.pipeline"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SetupError(f"cannot import topostab: {proc.stderr.strip()}")
    return elapsed


def reference_seconds() -> float:
    """Wall time of a fixed kernel that does not call the program.

    Interpreter loops and numpy calls on small arrays, as the program's inner
    loops make. On a shared host the speed of a core drifts for minutes at a
    time; this kernel, timed between runs, measures that drift.
    """
    pts = np.random.default_rng(12345).random((2000, 2))
    total = 0.0
    t0 = time.perf_counter()
    for i in range(700):
        d = np.linalg.norm(pts - pts[i], axis=1)
        total += float(d[np.argsort(d, kind="stable")[:8]].sum())
        total += sum(v * v for v in range(60)) * 1e-9
    return time.perf_counter() - t0


def setup(workload, work_dir: str, seed: int, size: str):
    """(inputs of the first set-up, median set-up seconds).

    Set-up is the package import plus input generation, each done
    SETUP_REPEATS times; generation starts from an empty directory each time.
    """
    if not os.path.isfile(os.path.join(SRC, "topostab", "__init__.py")):
        raise SetupError(f"no topostab package under {SRC}")
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    import topostab
    if os.path.dirname(os.path.abspath(topostab.__file__)) != \
            os.path.join(SRC, "topostab"):
        raise SetupError(f"topostab imported from {topostab.__file__}")
    gens, first = [], None
    for k in range(SETUP_REPEATS):
        gen_dir = os.path.join(work_dir, f"setup{k}")
        t0 = time.perf_counter()
        inputs = workload.setup(gen_dir, seed, size)
        gens.append(time.perf_counter() - t0)
        first = first or inputs
    return first, statistics.median(imports) + statistics.median(gens)


def check(workload, outcome, got_digest, want_digest) -> list:
    """Problems with one run's outputs; empty when the run is correct."""
    problems = [f"missing artifact {rel}" for rel in workload.required
                if not os.path.isfile(os.path.join(outcome.out_dir, rel))]
    if outcome.mean_aps < workload.aps_floor:
        problems.append(f"mean_aps {outcome.mean_aps:.4f} below floor "
                        f"{workload.aps_floor}")
    if None not in (got_digest, want_digest) and got_digest != want_digest:
        problems.append(f"transformed.csv digest {got_digest[:12]} != "
                        f"expected {want_digest[:12]}")
    return problems


def one_run(workload, inputs, out_dir: str, want_digest,
            tracer=None) -> dict:
    """Run the workload once; never raises for a failure of the program."""
    if tracer is not None:
        layers.install(tracer, workload.top_dim)
    t0 = time.perf_counter()
    try:
        outcome = workload.run(inputs, out_dir)
        wall = time.perf_counter() - t0
        got = digest(outcome.transformed) \
            if os.path.isfile(outcome.transformed) else None
        problems = check(workload, outcome, got, want_digest)
    except Exception as exc:  # a failed run is counted, not fatal
        wall = time.perf_counter() - t0
        traceback.print_exc()
        outcome, problems = None, [f"{type(exc).__name__}: {exc}"]
    finally:
        if tracer is not None:
            tracer.unpatch()
    rec = {"wall_s": wall, "ok": not problems, "problems": problems}
    if outcome is not None and outcome.stages:
        # the glue between stages is a stage too, so the stages sum to wall
        rec["stages"] = dict(outcome.stages,
                             other=wall - sum(outcome.stages.values()))
    if outcome is not None:
        rec.update(n_samples=outcome.n_samples, mean_aps=outcome.mean_aps,
                   output_bytes=dir_bytes(out_dir), digest=got)
    return rec


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str = "bench", work_root: str = WORK) -> dict:
    """The result object for one workload: correct/attempted/failed/metrics."""
    workload = WORKLOADS[name]
    work_dir = os.path.join(work_root, f"{name}-seed{seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        probes = [reference_seconds()]
        inputs, setup_s = setup(workload, work_dir, seed, size)
        runs, traced, tracers = [], [], []
        # seed 0 must match the recorded digest; any other seed, run 1
        want_digest = BASELINE["transformed_sha256"][name] \
            if seed == 0 and size == "bench" else None
        t_start = time.perf_counter()
        while (not runs or (trace and len(runs + traced) % 2)
               or time.perf_counter() - t_start + step(runs, traced)
               <= seconds):
            k = len(runs) + len(traced)
            # traced runs come in pairs with untraced ones; the pairs
            # alternate which goes first, so warm-up does not bias overhead
            tracer = Tracer() if trace and k % 2 != k // 2 % 2 else None
            out_dir = os.path.join(work_dir, f"run{k}")
            if tracer is not None:
                tracer.run_id = f"{name}-seed{seed}-run{k}"
            rec = one_run(workload, inputs, out_dir, want_digest, tracer)
            probes.append(reference_seconds())
            shutil.rmtree(out_dir, ignore_errors=True)
            (traced if tracer is not None else runs).append(rec)
            print(f"{name}: run {k}{' traced' if tracer else ''} "
                  f"{rec['wall_s']:.3f} s {'ok' if rec['ok'] else 'FAILED'}",
                  file=sys.stderr)
            if tracer is not None:
                tracers.append(tracer)
            want_digest = want_digest or rec.get("digest")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    every = runs + traced
    for rec in every:
        for problem in rec["problems"]:
            print(f"{name}: run failed: {problem}", file=sys.stderr)
    failed = sum(not r["ok"] for r in every)
    if trace:
        metrics = per_layer(name, seed, runs, traced, tracers, work_root)
    else:
        metrics = end_to_end(runs, setup_s,
                             REFERENCE_S / statistics.median(probes))
    return {"correct": failed == 0, "attempted": len(every),
            "failed": failed, "metrics": metrics}


def step(runs, traced) -> float:
    """Expected duration of the next run (untraced, or a traced pair)."""
    last = [r["wall_s"] for r in runs[-1:] + traced[-1:]]
    return sum(last)


def _median(runs, key):
    ok = [r for r in runs if r["ok"]] or runs
    values = [r[key] for r in ok if key in r]
    return statistics.median(values) if values else 0.0


def best_wall(runs) -> float:
    """Sum over stages of the fastest time of each stage.

    On a shared machine contention only ever slows a run down, and it comes
    in bursts of seconds; the fastest time of each stage varies less between
    processes than the fastest whole run, when runs are few and long.
    """
    runs = [r for r in runs if r["ok"]] or runs
    staged = [r["stages"] for r in runs if "stages" in r]
    if len(staged) < len(runs):
        return min(r["wall_s"] for r in runs)
    return sum(min(s[name] for s in staged) for name in staged[0])


def end_to_end(runs, setup_s: float, speed: float) -> dict:
    """wall_s is scaled by `speed`, the reference time over the host's.

    setup_s is not: it is mostly file reads, which the kernel does not time.
    """
    unscaled = best_wall(runs)
    print(f"host speed {speed:.4f}; unscaled wall_s {unscaled:.4f} "
          f"setup_s {setup_s:.4f}", file=sys.stderr)
    wall = unscaled * speed
    values = {
        "wall_s": wall,
        "samples_per_s": _median(runs, "n_samples") / wall,
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output_mb": _median(runs, "output_bytes") / 1e6,
        "mean_aps": _median(runs, "mean_aps"),
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in E2E}


def per_layer(name, seed, runs, traced, tracers, work_root) -> dict:
    """Median of each layer metric over the traced runs; trace written once."""
    overhead = _median(traced, "wall_s") - _median(runs, "wall_s")
    samples = [layers.layer_metrics(t.spans, t.counters, overhead)
               for t in tracers]
    trace_dir = os.path.join(work_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    dump(tracers, os.path.join(trace_dir, f"{name}-seed{seed}.json"))
    return {metric: {"value": statistics.median(s[metric] for s in samples),
                     "unit": unit}
            for metric, unit, _, _ in layers.METRICS}


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced and traced, each in a fresh process."""
    table = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SetupError(f"{name} --trace {trace} exited "
                                 f"{proc.returncode}")
            table[(name, trace)] = json.loads(proc.stdout.splitlines()[-1])
    for name in WORKLOADS:
        e2e, lay = table[(name, 0)], table[(name, 1)]
        print(f"== {name}: {WORKLOADS[name].why}")
        rate = e2e["failed"] / e2e["attempted"]
        print(f"  {'failure_rate':28s} {rate:12.4f} ratio "
              f"({e2e['failed']}/{e2e['attempted']} runs)")
        for metric, body in e2e["metrics"].items():
            print(f"  {metric:28s} {body['value']:12.4f} {body['unit']}")
        print("  -- traced run (per layer)")
        for metric, unit, _, moves in layers.METRICS:
            value = lay["metrics"][metric]["value"]
            print(f"  {metric:28s} {value:12.4f} {unit:6s} -> {moves}")
        focus = WORKLOADS[name].focus
        traced_wall = e2e["metrics"]["wall_s"]["value"] + \
            lay["metrics"]["trace.overhead_s"]["value"]
        share = sum(lay["metrics"][m]["value"] for m in focus) / traced_wall
        print(f"  {' + '.join(focus)}: {share:.0%} of traced wall_s")
    return {"correct": all(r["correct"] for r in table.values()),
            "attempted": sum(r["attempted"] for r in table.values()),
            "failed": sum(r["failed"] for r in table.values()),
            "metrics": {f"{n}.{m}": v for (n, tr), r in table.items()
                        if tr == 0 for m, v in r["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds)
        else:
            result = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))
            for metric, body in result["metrics"].items():
                print(f"{args.workload} {metric} {body['value']:.6g} "
                      f"{body['unit']}")
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
