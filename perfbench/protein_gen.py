"""Seeded generator of protein-like PDB text for the protein-alpha workload.

Each structure is a self-avoiding chain of C/N/O/S atoms confined to a
ball. The two classes differ only in bond length and confinement radius,
so any signal the pipeline finds comes from the geometry the weighted-alpha
filtration sees. Output is byte-identical for a given seed: every number is
drawn from one numpy generator and written with fixed-width formatting.
"""

from __future__ import annotations

import os

import numpy as np

# (bond length in angstroms, confinement radius in angstroms) per class
STABLE_SHAPE = (1.35, 12.0)
UNSTABLE_SHAPE = (1.6, 15.0)
# backbone element cycle; every 25th atom is sulfur (a cysteine side chain)
ELEMENT_CYCLE = ("N", "C", "C", "O")
SULFUR_EVERY = 25
MIN_NONBONDED = 1.2
# rejected steps in a row before the walk backs up to escape a dead end
MAX_TRIES = 200
BACKTRACK = 4
TOPOLOGIES = ("HHH", "EHEE", "HEEH", "EEHEE")
SME_COLUMNS = ("buried_np", "hbond_bb", "net_charge")


def _chain(n_atoms: int, bond: float, radius: float, rng) -> np.ndarray:
    """Self-avoiding random walk with fixed step, kept inside a ball."""
    pts = np.zeros((n_atoms, 3))
    k, tries = 1, 0
    while k < n_atoms:
        step = rng.normal(size=3)
        cand = pts[k - 1] + bond * step / np.linalg.norm(step)
        ok = np.linalg.norm(cand) <= radius and (k <= 2 or np.min(
            np.linalg.norm(pts[:k - 2] - cand, axis=1)) >= MIN_NONBONDED)
        if ok:
            pts[k] = cand
            k, tries = k + 1, 0
            continue
        tries += 1
        if tries == MAX_TRIES:
            k, tries = max(1, k - BACKTRACK), 0
    return pts


def _element(k: int) -> str:
    return "S" if k % SULFUR_EVERY == SULFUR_EVERY - 1 else \
        ELEMENT_CYCLE[k % len(ELEMENT_CYCLE)]


def pdb_text(points: np.ndarray) -> str:
    """Fixed-column ATOM records, one residue per four atoms."""
    lines = []
    for k, (x, y, z) in enumerate(points):
        elem = _element(k)
        lines.append(
            f"ATOM  {k + 1:5d} {elem:<4s} GLY A{k // 4 + 1:4d}    "
            f"{x:8.3f}{y:8.3f}{z:8.3f}{1.0:6.2f}{0.0:6.2f}          "
            f"{elem:>2s}")
    lines.append("END")
    return "\n".join(lines) + "\n"


def generate(out_dir: str, seed: int, n_stable: int, n_unstable: int,
             n_atoms: int) -> dict:
    """Write structures/, stability_scores.csv and sme_features.csv.

    Returns the paths the pipeline config needs. Stable structures score
    above 1.0 and unstable ones at or below it, so a threshold of 1.0 splits
    them; unequal class sizes make `downsample` do work.
    """
    rng = np.random.default_rng(seed)
    struct_dir = os.path.join(out_dir, "structures")
    os.makedirs(struct_dir, exist_ok=True)
    classes = [True] * n_stable + [False] * n_unstable
    order = rng.permutation(len(classes))
    score_lines, sme_lines = ["id,score"], ["id," + ",".join(SME_COLUMNS)]
    for k, pos in enumerate(order):
        stable = classes[pos]
        bond, radius = STABLE_SHAPE if stable else UNSTABLE_SHAPE
        sample_id = f"{TOPOLOGIES[k % len(TOPOLOGIES)]}_{k:03d}"
        points = _chain(n_atoms, bond, radius, rng)
        with open(os.path.join(struct_dir, f"{sample_id}.pdb"), "w",
                  encoding="utf-8", newline="") as fh:
            fh.write(pdb_text(points))
        score = rng.uniform(1.2, 3.0) if stable else rng.uniform(-1.0, 0.9)
        score_lines.append(f"{sample_id},{score:.4f}")
        # SME columns: one weakly informative, two pure noise
        sme = (score + rng.normal(scale=1.5), rng.normal(), rng.normal())
        sme_lines.append(sample_id + "," + ",".join(f"{v:.4f}" for v in sme))
    paths = {"pdb_dir": struct_dir,
             "scores_csv": os.path.join(out_dir, "stability_scores.csv"),
             "sme_csv": os.path.join(out_dir, "sme_features.csv")}
    for key, lines in (("scores_csv", score_lines), ("sme_csv", sme_lines)):
        with open(paths[key], "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    return paths
