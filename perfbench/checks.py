"""Output checks, one per workload.

Each check reads what the CLI wrote and compares it with values the
benchmark computes itself (see refmodel.py); a mismatch raises CheckFailed
with the first difference found.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import kendalltau, spearmanr

import refmodel


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(name: str, got, want: float, tol: float) -> None:
    _require(
        isinstance(got, (int, float)) and abs(got - want) <= tol,
        f"{name} = {got!r}, expected {want!r} within {tol:g}",
    )


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def read_pmf_csv(path: Path):
    """Columns of a pmf CSV (s,prob or s,t,prob) and its mass defect."""
    lines = path.read_text().splitlines()
    _require(lines[-1].startswith("# mass_defect="), f"{path.name}: no trailing mass_defect line")
    rows = np.array([line.split(",") for line in lines[1:-1]], dtype=float)
    _require(np.all(rows[:, -1] > 0), f"{path.name}: a listed probability is not positive")
    idx = rows[:, :-1].astype(np.int64)
    _require(np.array_equal(idx, rows[:, :-1]), f"{path.name}: a support point is not an integer")
    return [idx[:, k] for k in range(idx.shape[1])] + [rows[:, -1]], float(lines[-1].split("=", 1)[1])


def _size_biased(support: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Size-biased law as a dense array over 0..max(support)."""
    dense = np.zeros(int(support.max()) + 1)
    dense[support] = probs
    w = np.arange(len(dense)) * dense
    return w / math.fsum(w.tolist())


def _marginals_match(name, s, t, p, law, tol):
    for axis, idx in (("row", s), ("column", t)):
        marginal = np.bincount(idx, weights=p, minlength=len(law))
        # a truncated limit law can reach past the degree law's support
        worst = float(np.max(np.abs(marginal - np.pad(law, (0, len(marginal) - len(law))))))
        _require(worst <= tol, f"{name}: {axis} marginal differs from the size-biased law by {worst:g}")


# -- generate-two-atom ------------------------------------------------------

# The two-atom graph's assortativity at n = m = 2e5, over 200 seeds of
# band.py: mean 0.025105, sd 0.001175.  Six sd either side of the limit.
ASSORTATIVITY_HALF_WIDTH = 6 * 0.001175


def check_generate(out: Path, n: int, m: int, seed: int, atoms, half_width=ASSORTATIVITY_HALF_WIDTH) -> None:
    manifest = _json(out / "manifest.json")
    for key, want in (("n", n), ("m", m), ("seed", seed)):
        _require(manifest.get(key) == want, f"manifest {key} = {manifest.get(key)!r}, expected {want}")
    header, _, body = (out / "graph.edgelist").read_text().partition("\n")
    _require(header.startswith("#"), "edge list has no header line")
    lines = body.count("\n")
    tokens = np.array(body.split(), dtype=np.int64)
    _require(len(tokens) == 2 * lines, "an edge line does not hold exactly two node ids")
    edges = tokens.reshape(-1, 2)
    i, j = edges[:, 0], edges[:, 1]
    _require(bool(np.all((1 <= i) & (i < j) & (j <= n))), "an edge line breaks 1 <= i < j <= n")
    codes = (i - 1) * n + (j - 1)
    _require(bool(np.all(np.diff(codes) > 0)), "edges are not unique and sorted")
    _require(len(edges) == manifest.get("edges"), f"{len(edges)} edge lines, manifest says {manifest.get('edges')}")
    mean, var = refmodel.edge_count_law(atoms, n, m)
    z = (len(edges) - mean) / math.sqrt(var)
    _require(abs(z) <= 5, f"edge count {len(edges)} is {z:+.1f} sd from the layer law's mean {mean:.0f}")
    _, x, y = refmodel.endpoint_degree_pairs(edges, n)
    rho = float(np.corrcoef(x, y)[0, 1])
    limit = refmodel.closed_form_assortativity(atoms, m / n)
    _close("endpoint-degree assortativity", rho, limit, half_width)


# -- empirical-1m-edges -----------------------------------------------------

def check_empirical(out: Path, edges: np.ndarray, n: int) -> None:
    summary = _json(out / "summary.json")
    _require(summary.get("n") == n, f"summary n = {summary.get('n')!r}, expected {n}")
    _require(summary.get("edges") == len(edges), f"summary edges = {summary.get('edges')!r}, expected {len(edges)}")
    deg, x, y = refmodel.endpoint_degree_pairs(edges, n)
    counts = np.bincount(deg)

    (ks, probs), defect = read_pmf_csv(out / "degree_pmf.csv")
    want_ks = np.nonzero(counts)[0]
    _require(defect == 0.0, f"degree_pmf.csv mass defect {defect!r}, expected 0")
    _require(np.array_equal(ks, want_ks), "degree_pmf.csv support differs from the node degrees")
    _require(np.array_equal(probs, counts[want_ks] / n), "degree_pmf.csv differs from the degree counts over n")

    (s, t, p), _ = read_pmf_csv(out / "bidegree_pmf.csv")
    _marginals_match("bidegree_pmf.csv", s, t, p, _size_biased(want_ks, counts[want_ks] / n), 1e-12)

    _close("assortativity", summary.get("assortativity"), float(np.corrcoef(x, y)[0, 1]), 1e-9)
    _close("kendall", summary.get("kendall"), float(kendalltau(x, y, variant="b").statistic), 1e-9)
    _close("spearman", summary.get("spearman"), float(spearmanr(x, y).statistic), 1e-9)


# -- converge-power-law -----------------------------------------------------

def _one(out: Path, pattern: str) -> Path:
    found = sorted(out.glob(pattern))
    _require(len(found) == 1, f"expected one {pattern} in {out.name}, found {len(found)}")
    return found[0]


def check_converge(out: Path, atoms, mu: float, rows: int) -> None:
    study = _json(_one(out, "study_*.json"))
    _close("theory assortativity", study.get("theory", {}).get("assortativity"),
           refmodel.closed_form_assortativity(atoms, mu), 1e-12)
    csv = _one(out, "study_*.csv")
    _require(csv.read_text().count("\n") == rows + 1, f"{csv.name} does not hold {rows} rows")


# -- theory-power-law -------------------------------------------------------

def check_theory(out: Path, atoms, mu: float) -> None:
    summary = _json(out / "summary.json")
    closed = refmodel.closed_form_assortativity(atoms, mu)
    _close("summary assortativity", summary.get("assortativity"), closed, 1e-12)

    (s, t, p), _ = read_pmf_csv(out / "limiting_bidegree_pmf.csv")
    _close("Pearson correlation of limiting_bidegree_pmf.csv", refmodel.pmf_pearson(s, t, p), closed, 1e-6)

    (k, f), _ = read_pmf_csv(out / "limiting_degree_pmf.csv")
    _close("mean of limiting_degree_pmf.csv", float(k @ f), mu * refmodel.cross_moment(atoms, 2, 1), 1e-6)
    _marginals_match("limiting_bidegree_pmf.csv", s, t, p, _size_biased(k, f), 1e-8)

    _close("summary kendall", summary.get("kendall"), refmodel.pmf_kendall(s, t, p), 1e-9)
    _close("summary spearman", summary.get("spearman"), refmodel.pmf_spearman(s, t, p), 1e-9)

    defects = _json(out / "manifest.json").get("mass_defects", {})
    for name in ("degree_pmf", "bidegree_pmf"):
        value = defects.get(name)
        _require(isinstance(value, float) and 0 <= value < 1e-8, f"manifest mass defect {name} = {value!r}")
