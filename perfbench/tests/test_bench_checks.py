"""The benchmark's checks accept the program's real output and reject
corrupted copies of it; the tracer and BENCHMARK.json agree on names.

Outputs come from the CLI at small sizes, so the suite runs in seconds:
    python3 -m pytest perfbench/tests
"""

import json
import shutil
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kendalltau, spearmanr

import checks
import refmodel
import run
import tracing
import workloads
from checks import CheckFailed
from superpose_net import cli

N_GEN = 20_000
N_EMP = 30_000
X_MAX = 60
TWO_ATOM = {"family": "tabular", "atoms": [list(a) for a in refmodel.TWO_ATOM]}


def _cli(tmp, command, config, *extra):
    path = tmp / f"{command}{'-'.join(extra)}.json"
    path.write_text(json.dumps(config))
    out = tmp / f"out-{command}{'-'.join(extra)}"
    assert cli.main([command, "--config", str(path), "--out", str(out), *extra]) == 0
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    gen = _cli(tmp, "generate", {"layer_distribution": TWO_ATOM, "model": {"n": N_GEN, "mu": 1.0, "seed": 5}})

    edges = refmodel.two_atom_edges(N_EMP, N_EMP, np.random.default_rng(5))
    refmodel.write_edge_list(edges, N_EMP, N_EMP, 5, tmp / "input.edgelist")
    emp = _cli(tmp, "empirical", {"input": {"edge_list": str(tmp / "input.edgelist")}})

    law = workloads.power_law(X_MAX)
    study = {"mu": 1.0, "n_grid": [3000], "replications": 2, "seed": 5, "metrics": ["tv1", "assortativity"]}
    conv = _cli(tmp, "converge", {"layer_distribution": law, "study": study}, "--threads", "1")
    conv2 = _cli(tmp, "converge", {"layer_distribution": law, "study": study}, "--threads", "2")

    theory = _cli(tmp, "theory", {"layer_distribution": law, "theory": {"mu": 1.0}})
    return {"generate": gen, "empirical": (emp, edges), "converge": conv,
            "converge --threads 2": conv2, "theory": theory}


def _check(name, outputs, out=None):
    atoms = workloads.power_law_atoms(X_MAX)
    if name == "generate":
        checks.check_generate(out or outputs[name], N_GEN, N_GEN, 5, refmodel.TWO_ATOM, half_width=0.03)
    elif name == "empirical":
        checks.check_empirical(out or outputs[name][0], outputs[name][1], N_EMP)
    elif name == "converge":
        checks.check_converge(out or outputs[name], atoms, 1.0, rows=4)
    else:
        checks.check_theory(out or outputs[name], atoms, 1.0)


def _dir(outputs, name):
    value = outputs[name]
    return value[0] if isinstance(value, tuple) else value


@pytest.mark.parametrize("name", ["generate", "empirical", "converge", "theory"])
def test_real_output_passes(outputs, name):
    _check(name, outputs)


def _edit_lines(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    edit(lines)
    path.write_text("".join(lines))


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _scale_entry(path, row, factor):
    def edit(lines):
        *head, p = lines[row].rstrip("\n").split(",")
        lines[row] = ",".join(head + [repr(float(p) * factor)]) + "\n"
    _edit_lines(path, edit)


def _swap(a, b):
    def edit(doc):
        doc[a], doc[b] = doc[b], doc[a]
    return edit


def _one_byte(path):
    data = bytearray(path.read_bytes())
    i = max(k for k, c in enumerate(data) if chr(c).isdigit())
    data[i] = ord("1") if data[i] != ord("1") else ord("2")
    path.write_bytes(bytes(data))


CORRUPTIONS = {
    "generate: duplicated edge line": ("generate", lambda d: _edit_lines(
        d / "graph.edgelist", lambda ls: ls.insert(5, ls[5]))),
    "generate: dropped edge line": ("generate", lambda d: _edit_lines(
        d / "graph.edgelist", lambda ls: ls.pop(5))),
    "generate: reversed pair": ("generate", lambda d: _edit_lines(
        d / "graph.edgelist", lambda ls: ls.__setitem__(5, " ".join(ls[5].split()[::-1]) + "\n"))),
    "generate: node above n": ("generate", lambda d: _edit_lines(
        d / "graph.edgelist", lambda ls: ls.__setitem__(-1, f"{ls[-1].split()[0]} {N_GEN + 1}\n"))),
    "generate: three ids on a line": ("generate", lambda d: _edit_lines(
        d / "graph.edgelist", lambda ls: ls.__setitem__(5, ls[5].rstrip("\n") + " 7\n"))),
    "generate: manifest edge count": ("generate", lambda d: _edit_json(
        d / "manifest.json", lambda doc: doc.__setitem__("edges", doc["edges"] + 1))),
    "empirical: perturbed degree pmf entry": ("empirical", lambda d: _scale_entry(
        d / "degree_pmf.csv", 2, 1 + 1e-15)),
    "empirical: perturbed bidegree pmf entry": ("empirical", lambda d: _scale_entry(
        d / "bidegree_pmf.csv", 3, 1 + 1e-6)),
    "empirical: swapped kendall and spearman": ("empirical", lambda d: _edit_json(
        d / "summary.json", _swap("kendall", "spearman"))),
    "empirical: edge count": ("empirical", lambda d: _edit_json(
        d / "summary.json", lambda doc: doc.__setitem__("edges", doc["edges"] - 1))),
    "converge: theory assortativity": ("converge", lambda d: _edit_json(
        next(d.glob("study_*.json")),
        lambda doc: doc["theory"].__setitem__("assortativity", doc["theory"]["assortativity"] + 1e-11))),
    "theory: swapped kendall and spearman": ("theory", lambda d: _edit_json(
        d / "summary.json", _swap("kendall", "spearman"))),
    "theory: summary assortativity": ("theory", lambda d: _edit_json(
        d / "summary.json", lambda doc: doc.__setitem__("assortativity", doc["assortativity"] * (1 + 1e-11)))),
    "theory: perturbed bidegree pmf entry": ("theory", lambda d: _scale_entry(
        d / "limiting_bidegree_pmf.csv", 2, 1.001)),
    "theory: perturbed degree pmf entry": ("theory", lambda d: _scale_entry(
        d / "limiting_degree_pmf.csv", 3, 1.001)),
    "theory: mass defect": ("theory", lambda d: _edit_json(
        d / "manifest.json", lambda doc: doc["mass_defects"].__setitem__("bidegree_pmf", 2e-8))),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupted_output_is_rejected(outputs, tmp_path, corruption):
    name, mutate = CORRUPTIONS[corruption]
    copy = tmp_path / "copy"
    shutil.copytree(_dir(outputs, name), copy)
    mutate(copy)
    with pytest.raises(CheckFailed):
        _check(name, outputs, copy)


def test_thread_count_comparison_sees_one_byte(outputs, tmp_path):
    """run.py compares a --threads 2 run's data files with the timed --threads 1 runs'."""
    one, two = outputs["converge"], outputs["converge --threads 2"]
    assert run.data_digest(two) == run.data_digest(one)
    copy = tmp_path / "copy"
    shutil.copytree(two, copy)
    _one_byte(next(copy.glob("study_*.csv")))
    assert run.data_digest(copy) != run.data_digest(one)


# -- the benchmark's own functionals ----------------------------------------

def test_pmf_functionals_match_scipy_on_a_sample():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 6, 400)
    y = np.minimum(x + rng.integers(0, 3, 400), 7)
    codes, counts = np.unique(x * 8 + y, return_counts=True)
    s, t, p = codes // 8, codes % 8, counts / counts.sum()
    assert refmodel.pmf_pearson(s, t, p) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)
    assert refmodel.pmf_kendall(s, t, p) == pytest.approx(kendalltau(x, y).statistic, abs=1e-12)
    assert refmodel.pmf_spearman(s, t, p) == pytest.approx(spearmanr(x, y).statistic, abs=1e-12)


def test_two_atom_limit_is_24_over_955():
    assert refmodel.closed_form_assortativity(refmodel.TWO_ATOM, 1.0) == pytest.approx(24 / 955, abs=1e-15)


# -- tracer -----------------------------------------------------------------

def test_tracer_names_self_time_and_missing_functions():
    def kendall(x):
        return x

    def run_study(x):  # calls kendall through the module that holds it
        return home.kendall(x) + home.kendall(x)

    home = types.SimpleNamespace(kendall=kendall, run_study=run_study)
    other = types.SimpleNamespace(kendall=kendall)  # a re-export of the same object
    tracer = tracing.Tracer()
    tracer.install([home, other])
    assert home.kendall is other.kendall is not kendall
    assert home.run_study(1) + other.kendall(1) == 3

    summary = tracer.summary()
    assert summary["stats.kendall"][1] == 3
    assert summary["study.run_study"][1] == 1
    assert summary["limits.fprime2_pmf"] == (0.0, 0)
    start, end, name, parent = tracer.arrays()
    total = end[parent == -1] - start[parent == -1]
    assert sum(v[0] for v in summary.values()) == pytest.approx(float(total.sum()), abs=1e-12)


def test_benchmark_json_names_every_reported_metric():
    doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in doc["per_layer"]]
    traced = [f"{m}.{k}" for m in tracing.METRIC_NAMES for k in ("self_s", "calls")]
    assert per_layer == traced + ["generate.edge_file_bytes", "cli.output_bytes", "cli.threads2_wall_s",
                                  "trace.overhead_s"]
    assert [m["name"] for m in doc["end_to_end"]] == ["wall_s", "setup_s", "cpu_s", "peak_rss_mb"]
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.WORKLOADS)
