"""End-to-end acceptance checks.

Each test records one `CRITERION n: PASS/FAIL` line; the conftest echoes the
whole scorecard after the run so it survives pytest's output capture.
"""
from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from oracles import (aps_by_threshold_sweep, betti_at, betti_numbers,
                     brute_rips_simplices, check_axioms)
from topostab import cder, cli, complexes, covertree, persistence, stats, synth
from topostab.pdb_ingest import VDW_RADII


def report(scorecard, n, ok, detail=""):
    line = f"CRITERION {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    scorecard.append(line)
    print(line, flush=True)
    assert ok, line


TOY_CONFIG = {
    "corpus": {"kind": "synthetic", "n_per_class": 50, "n_points": 300,
               "noise": 0.05},
    "filtration": {"kind": "rips", "max_scale": 1.9, "max_dim": 2},
    "dims": [0, 1],
    "subsample_points": 60,
    "n_repeats": 5,
    "forest": {"space": {"n_trees": [50], "max_depth": [None],
                         "min_samples_leaf": [1], "max_features": ["sqrt"]},
               "n_iter": 1, "k_folds": 5},
}


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("toy")
    config = base / "toy.json"
    config.write_text(json.dumps(TOY_CONFIG))
    t0 = time.time()
    code = cli.main(["pipeline", "--config", str(config), "--jobs", "4",
                     "--out", str(base / "runs")])
    elapsed = time.time() - t0
    assert code == 0
    return {"base": base, "config": config,
            "run_dir": base / "runs" / "run_seed0", "elapsed": elapsed}


def read_feature_csv(path):
    lines = path.read_text().splitlines()
    names = lines[0].split(",")[1:]
    ids, rows = [], []
    for line in lines[1:]:
        cells = line.split(",")
        ids.append(cells[0])
        rows.append([float(c) for c in cells[1:]])
    return ids, names, np.array(rows)


@pytest.fixture(scope="module")
def proxy_run(toy_run, tmp_path_factory):
    base = tmp_path_factory.mktemp("proxy")
    ids, names, X = read_feature_csv(
        toy_run["run_dir"] / "features_cder_full.csv")
    assert X.shape[1] >= 3

    rng = np.random.default_rng(7)
    top3 = np.argsort(X.std(axis=0))[-3:]
    columns = {}
    for j, c in enumerate(top3):
        jitter = 0.05 * X[:, c].std()
        columns[f"proxy_{j}"] = X[:, c] + rng.normal(0, jitter, len(X))
    for j in range(7):
        columns[f"noise_{j}"] = rng.normal(size=len(X))

    names10 = list(columns)
    lines = ["id," + ",".join(names10)]
    for k, sample_id in enumerate(ids):
        lines.append(sample_id + "," +
                     ",".join(repr(float(columns[c][k])) for c in names10))
    sme_csv = base / "sme.csv"
    sme_csv.write_text("\n".join(lines) + "\n")

    config = dict(TOY_CONFIG)
    config["feature_sets"] = ["SME", "CDER", "CDER+SME"]
    config["sme_csv"] = str(sme_csv)
    path = base / "proxy.json"
    path.write_text(json.dumps(config))
    code = cli.main(["pipeline", "--config", str(path), "--jobs", "4",
                     "--out", str(base / "runs")])
    assert code == 0
    return {"base": base, "sme_csv": sme_csv,
            "run_dir": base / "runs" / "run_seed0",
            "planted": [f"proxy_{j}" for j in range(3)]}


def test_criterion_01_pairing_matches_rank_oracle(scorecard):
    rng = np.random.default_rng(201)
    t0 = time.time()
    mismatches = 0
    values_checked = 0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        pts = rng.normal(size=(n, 3))
        diff = pts[:, None, :] - pts[None, :, :]
        max_scale = float(np.sqrt((diff ** 2).sum(axis=2)).max()) + 0.1
        fc = complexes.build_rips(pts, max_scale=max_scale, max_dim=3)
        dgs = persistence.reduce(fc)
        simplices = brute_rips_simplices(pts, max_scale, 3)
        for v in sorted(set(simplices.values())):
            want = betti_numbers(simplices, v, 3)
            got = betti_at(dgs, v)
            got = got + [0] * (4 - len(got))
            values_checked += 1
            if got[:4] != want:
                mismatches += 1
    elapsed = time.time() - t0
    report(scorecard, 1, mismatches == 0 and elapsed < 30,
           f"200 clouds, {values_checked} critical values, "
           f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_02_known_topologies(scorecard):
    t0 = time.time()
    rng = np.random.default_rng(202)
    ang = rng.uniform(0, 2 * math.pi, 100)
    circle = np.column_stack([np.cos(ang), np.sin(ang), np.zeros(100)])
    dgs = persistence.reduce(complexes.build_rips(circle, max_scale=1.8,
                                                  max_dim=2))
    h1 = dgs[1]
    pers1 = h1[:, 1] - h1[:, 0]
    big = pers1 > 0.5
    circle_ok = int(big.sum()) == 1 and (pers1[~big] < 0.1).all()

    g = rng.normal(size=(200, 3))
    sphere = g / np.linalg.norm(g, axis=1, keepdims=True)
    dgs = persistence.reduce(complexes.build_weighted_alpha(
        sphere, np.zeros(200), max_dim=3))
    h2 = dgs[2]
    pers2 = np.sort(h2[:, 1] - h2[:, 0])
    second = pers2[-2] if len(pers2) > 1 else 0.0
    sphere_ok = len(pers2) >= 1 and \
        int((pers2 > 5 * second).sum()) == 1 and pers2[-1] > 5 * second
    elapsed = time.time() - t0
    report(scorecard, 2, circle_ok and sphere_ok and elapsed < 60,
           f"circle H1 top {pers1.max():.2f} (x{int(big.sum())}), "
           f"sphere H2 top/second {pers2[-1]:.2f}/{second:.2g}, "
           f"{elapsed:.1f}s")


def test_criterion_03_toy_classification(scorecard, toy_run):
    rep = json.loads((toy_run["run_dir"] / "report.json").read_text())
    aps = rep["feature_sets"]["CDER"]["per_repeat_aps"]
    ok = len(aps) == 5 and all(a >= 0.95 for a in aps) and \
        toy_run["elapsed"] < 600
    report(scorecard, 3, ok, f"per-repeat APS {[round(a, 3) for a in aps]}, "
           f"{toy_run['elapsed']:.0f}s")


def test_criterion_04_entropy_and_mass(scorecard):
    checks = [
        abs(cder.entropy([0.5, 0.5], 2) - 1.0) < 1e-12,
        abs(cder.entropy([1.0, 1.0, 1.0], 3) - 1.0) < 1e-12,
        cder.entropy([0.7, 0.0], 2) == 0.0,
        abs(cder.entropy([0.75, 0.25], 2) - 0.811278) < 1e-6,
    ]
    rng = np.random.default_rng(204)
    worst = 0.0
    for _ in range(50):
        n_labels = int(rng.integers(2, 5))
        clouds, labels = [], []
        for label in range(n_labels):
            for _ in range(int(rng.integers(1, 6))):
                clouds.append(rng.normal(size=(int(rng.integers(1, 41)), 2)))
                labels.append(f"l{label}")
        dset = cder.assign_weights(clouds, labels)
        total = sum(w.sum() for w in dset.weights)
        worst = max(worst, abs(total - 1.0))
    checks.append(worst <= 1e-12)
    report(scorecard, 4, all(checks), f"max |total weight - 1| = {worst:.2e}")


def test_criterion_05_cover_tree_axioms(scorecard):
    rng = np.random.default_rng(205)
    t0 = time.time()
    sizes = rng.integers(1, 1001, size=50)
    sizes[0] = 1000
    violations = 0
    for i, n in enumerate(sizes):
        pts = rng.normal(size=(int(n), 2 + i % 2))
        if i % 7 == 3:
            pts = pts * 100
        elif i % 7 == 5:
            pts = pts * 0.01
        if i % 5 == 4 and n >= 2:
            pts[n // 2:] += 50.0
        if not check_axioms(covertree.build(pts)).ok:
            violations += 1
    elapsed = time.time() - t0
    report(scorecard, 5, violations == 0,
           f"50 sets (max {int(sizes.max())} pts), {violations} violations, "
           f"{elapsed:.1f}s")


def test_criterion_06_statistics_oracles(scorecard):
    aps_cases = [
        ((0.9, 0.8, 0.7, 0.6), (1, 1, 0, 0), 1.0),
        ((0.9, 0.8, 0.7, 0.6), (0, 0, 0, 1), 0.25),
        ((0.9, 0.8, 0.7, 0.6), (1, 0, 1, 0), 0.8333),
    ]
    aps_ok = True
    for scores, truths, expected in aps_cases:
        got = stats.average_precision(scores, truths)
        oracle = aps_by_threshold_sweep(scores, truths)
        aps_ok &= abs(got - oracle) < 1e-4 and abs(got - expected) <= 1e-4

    p_direct = stats.t_sf(2.262, 9)
    # a +/-1 pattern of length 10 has sample sd sqrt(10/9), so t = 3 * mean
    d = np.tile([1.0, -1.0], 5) + 2.262 / 3
    b = np.arange(10, dtype=float)
    t_got, p_constructed = stats.paired_t_one_tailed(b + d, b)
    t_ok = abs(p_direct - 0.025) <= 1e-3 and \
        abs(p_constructed - 0.025) <= 1e-3 and abs(t_got - 2.262) < 5e-3

    x = (1.0, 2.0, 3.0, 4.0)
    pearson_ok = (
        abs(stats.pearson_r(x, x) - 1.0) <= 5e-3
        and abs(stats.pearson_r(x, tuple(-2 * v + 3 for v in x)) + 1.0) <= 5e-3
        and abs(stats.pearson_r(x, (1.0, 3.0, 2.0, 4.0)) - 0.80) <= 5e-3
    )
    report(scorecard, 6, aps_ok and t_ok and pearson_ok,
           f"APS ok={aps_ok}, p(t=2.262, n=10)={p_direct:.4f}, "
           f"pearson ok={pearson_ok}")


def test_criterion_07_proxy_table_and_correlation(scorecard, proxy_run):
    rep = json.loads((proxy_run["run_dir"] / "report.json").read_text())
    cder_aps = rep["feature_sets"]["CDER"]["per_repeat_aps"]
    both_aps = rep["feature_sets"]["CDER+SME"]["per_repeat_aps"]
    aps_ok = len(both_aps) == 5 and all(
        b >= c - 0.02 for b, c in zip(both_aps, cder_aps))

    corr_csv = proxy_run["base"] / "correlation.csv"
    code = cli.main([
        "correlate",
        "--cder", str(proxy_run["run_dir"] / "features_cder_full.csv"),
        "--sme", str(proxy_run["sme_csv"]),
        "--out", str(corr_csv)])
    best = {}
    for line in corr_csv.read_text().splitlines()[1:]:
        _, sme_name, r = line.split(",")
        if r != "nan":
            best[sme_name] = max(best.get(sme_name, 0.0), abs(float(r)))
    planted_ok = all(best.get(name, 0.0) > 0.9
                     for name in proxy_run["planted"])
    recovered = [round(best.get(name, 0.0), 3)
                 for name in proxy_run["planted"]]
    report(scorecard, 7, code == 0 and aps_ok and planted_ok,
           f"combined-vs-cder ok={aps_ok}, planted |r| {recovered}")


def test_criterion_08_deterministic_reports(scorecard, toy_run):
    t0 = time.time()
    code = cli.main(["pipeline", "--config", str(toy_run["config"]),
                     "--jobs", "4", "--out", str(toy_run["base"] / "rerun")])
    elapsed = time.time() - t0
    first = (toy_run["run_dir"] / "report.json").read_bytes()
    second = (toy_run["base"] / "rerun" / "run_seed0" /
              "report.json").read_bytes()
    report(scorecard, 8, code == 0 and first == second,
           f"report.json {len(first)} bytes identical, rerun {elapsed:.0f}s")


def test_criterion_09_vdw_weight_map(scorecard):
    expected = {"H": 1.2, "N": 1.55, "O": 1.52, "C": 1.7, "S": 1.8}
    report(scorecard, 9, VDW_RADII == expected, f"{len(VDW_RADII)} elements")


def test_criterion_10_leakage_guard(scorecard, tmp_path):
    clouds = tmp_path / "clouds"
    assert cli.main(["synth", "--shape", "both", "--n-samples", "5",
                     "--n-points", "40", "--noise", "0.05", "--seed", "0",
                     "--out", str(clouds)]) == 0
    corpus = tmp_path / "corpus.json"
    assert cli.main(["ingest", "--cloud-dir", str(clouds),
                     "--scores-csv", str(clouds / "scores.csv"),
                     "--out", str(corpus)]) == 0
    ph_dir = tmp_path / "ph"
    assert cli.main(["ph", "--corpus", str(corpus), "--filtration", "rips",
                     "--max-scale", "1.9", "--max-dim", "2",
                     "--dims", "0,1", "--out", str(ph_dir)]) == 0

    labels = tmp_path / "labels.csv"
    ids = sorted({line.split(",")[0]
                  for line in labels.read_text().splitlines()[1:]})
    train = [i for i in ids if not i.endswith("4")]
    held_out = set(ids) - set(train)
    (tmp_path / "train.txt").write_text("\n".join(train) + "\n")

    fit_args = ["cder-fit", "--transformed", str(ph_dir / "transformed.csv"),
                "--labels", str(labels),
                "--train-ids", str(tmp_path / "train.txt")]
    assert cli.main(fit_args + ["--out", str(tmp_path / "m1.json")]) == 0

    transformed = ph_dir / "transformed.csv"
    lines = transformed.read_text().splitlines()
    mutated, touched = [lines[0]], 0
    for line in lines[1:]:
        sid, dim, u, v = line.split(",")
        if sid in held_out:
            u, v = repr(float(u) + 100.0), repr(float(v) * 3.0 + 1.0)
            touched += 1
        mutated.append(f"{sid},{dim},{u},{v}")
    transformed.write_text("\n".join(mutated) + "\n")
    assert touched > 0
    assert cli.main(fit_args + ["--out", str(tmp_path / "m2.json")]) == 0

    same = (tmp_path / "m1.json").read_bytes() == \
        (tmp_path / "m2.json").read_bytes()
    report(scorecard, 10, same, f"{touched} held-out rows mutated, model unchanged")
