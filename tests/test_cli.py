import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from superpose_net.cli import (
    ConfigError,
    dispatch,
    main,
    parse_config,
    serialize_config,
)


MINIMAL_GENERATE = {
    "command": "generate",
    "layer_distribution": {"family": "constant", "size": 3, "strength": 0.5},
    "model": {"n": 100, "mu": 1, "seed": 7},
}


class TestParseConfig:
    def test_minimal_generate(self):
        cfg = parse_config(json.dumps(MINIMAL_GENERATE))
        assert cfg.command == "generate"
        assert cfg.model["n"] == 100
        assert cfg.theory == {}

    def test_output_section_rejected(self):
        doc = {**MINIMAL_GENERATE, "output": {"formats": ["json"], "directory": "/nonexistent"}}
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert "<top>.output: unknown key" in str(exc.value)

    def test_config_file_path(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(MINIMAL_GENERATE))
        assert parse_config(str(path)).model["seed"] == 7
        assert parse_config(path).model["seed"] == 7

    @pytest.mark.parametrize("source", ["missing.json", "x" * 300, "nul\0byte", "[1, 2]"],
                             ids=["missing", "name_too_long", "nul_byte", "not_an_object"])
    def test_unreadable_path_is_config_error(self, source):
        with pytest.raises(ConfigError) as exc:
            parse_config(source)
        assert str(exc.value).startswith("<document>: cannot read config file")

    def test_bad_strength(self):
        doc = json.loads(json.dumps(MINIMAL_GENERATE))
        doc["layer_distribution"]["strength"] = 1.5
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        message = str(exc.value)
        assert message.startswith("layer_distribution: ") and "strength" in message

    def test_both_m_and_mu(self):
        doc = json.loads(json.dumps(MINIMAL_GENERATE))
        doc["model"]["m"] = 50
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert "model.m" in str(exc.value)

    def test_unknown_key_rejected(self):
        doc = json.loads(json.dumps(MINIMAL_GENERATE))
        doc["bogus"] = 1
        with pytest.raises(ConfigError):
            parse_config(json.dumps(doc))
        doc = json.loads(json.dumps(MINIMAL_GENERATE))
        doc["model"]["bogus"] = 1
        with pytest.raises(ConfigError):
            parse_config(json.dumps(doc))

    def test_round_trip(self):
        cfg = parse_config(json.dumps(MINIMAL_GENERATE))
        again = parse_config(json.dumps(serialize_config(cfg)))
        assert serialize_config(again) == serialize_config(cfg)

    def test_missing_required(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"command": "generate"}))


class TestDispatch:
    def test_theory_poisson_case(self, tmp_path):
        cfg = parse_config(json.dumps({
            "command": "theory",
            "layer_distribution": {"family": "constant", "size": 2, "strength": 1.0},
            "theory": {"mu": 0.5},
        }))
        dispatch(cfg, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["assortativity"] == pytest.approx(0.0, abs=1e-12)
        pmf_lines = (tmp_path / "limiting_degree_pmf.csv").read_text().splitlines()
        first = pmf_lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(math.exp(-1), abs=1e-12)
        assert (tmp_path / "manifest.json").exists()

    def test_empirical_path_graph(self, tmp_path):
        edge_file = tmp_path / "path.edgelist"
        edge_file.write_text("# superpose-net n=3 m=2 seed=0\n1 2\n2 3\n")
        cfg = parse_config(json.dumps({
            "command": "empirical",
            "input": {"edge_list": str(edge_file)},
        }))
        dispatch(cfg, tmp_path / "out")
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["assortativity"] == pytest.approx(-1.0)

    def test_generate_is_reproducible(self, tmp_path):
        cfg_doc = json.dumps(MINIMAL_GENERATE)
        dispatch(parse_config(cfg_doc), tmp_path / "a")
        dispatch(parse_config(cfg_doc), tmp_path / "b")
        assert (tmp_path / "a" / "graph.edgelist").read_bytes() == \
            (tmp_path / "b" / "graph.edgelist").read_bytes()

    def test_converge_command(self, tmp_path):
        cfg = parse_config(json.dumps({
            "command": "converge",
            "layer_distribution": {"family": "constant", "size": 3, "strength": 0.5},
            "study": {"mu": 1.0, "n_grid": [100], "replications": 2, "seed": 3,
                      "metrics": ["tv1"]},
        }))
        dispatch(cfg, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        stem = manifest["outputs"][0]
        assert "seed3" in stem
        assert (tmp_path / stem).exists()

    def test_tailfit_command(self, tmp_path):
        cfg = parse_config(json.dumps({
            "command": "tailfit",
            "layer_distribution": {"family": "power_law", "alpha": 3.0, "beta": 0.5,
                                   "b": 1.0, "x_min": 1, "x_max": 500},
            "theory": {"mu": 1.0},
        }))
        dispatch(cfg, tmp_path)
        pred = json.loads((tmp_path / "tail_prediction.json").read_text())
        assert pred["marginal_exponent"] == pytest.approx(2.0)

    def test_manifests_record_only_what_the_run_reads(self, tmp_path):
        """Only theory records a theory section, with the tail tolerance it
        ran with; converge records its own tolerance and no other; a section
        or a field the command does not read is accepted and not recorded."""
        edge_file = tmp_path / "path.edgelist"
        edge_file.write_text("# superpose-net n=3 m=2 seed=0\n1 2\n2 3\n")
        converge_study = {"mu": 1.0, "n_grid": [100], "replications": 1, "seed": 3,
                          "metrics": ["tv1"], "tail_epsilon": 0.5}
        runs = {
            "generate": ("generate", MINIMAL_GENERATE),
            # one config file serves generate and theory alike, as in the README
            "generate_with_extras": ("generate", {**MINIMAL_GENERATE, "theory": {"mu": 1.0},
                                                  "study": converge_study}),
            "empirical": ("empirical", {"input": {"edge_list": str(edge_file)}}),
            "converge": ("converge", {"layer_distribution": MINIMAL_GENERATE["layer_distribution"],
                                      "study": converge_study}),
            "theory": ("theory", {"layer_distribution": MINIMAL_GENERATE["layer_distribution"],
                                  "theory": {"mu": 1.0}}),
            # tailfit reads theory.mu alone
            "tailfit": ("tailfit", {"layer_distribution": {"family": "power_law", "alpha": 3.0, "beta": 0.5,
                                                           "b": 1.0, "x_min": 1, "x_max": 100},
                                    "theory": {"mu": 1.0, "tail_epsilon": 0.5}}),
        }
        manifests = {}
        for name, (command, doc) in runs.items():
            assert main([command, "--config", json.dumps(doc), "--out", str(tmp_path / name)]) == 0
            manifests[name] = json.loads((tmp_path / name / "manifest.json").read_text())
        for name in ("generate", "generate_with_extras", "empirical", "converge"):
            assert "theory" not in manifests[name]["config"]
        assert manifests["generate_with_extras"]["config"] == manifests["generate"]["config"]
        assert "layer_distribution" not in manifests["empirical"]["config"]
        assert json.dumps(manifests["converge"]).count("tail_epsilon") == 1
        assert manifests["converge"]["config"]["study"]["tail_epsilon"] == 0.5
        assert manifests["theory"]["config"]["theory"] == {"mu": 1.0}
        assert manifests["theory"]["tail_epsilon"] == 1e-10
        assert manifests["tailfit"]["config"]["theory"] == {"mu": 1.0}


class TestMainExitCodes:
    def test_config_error_is_1(self, tmp_path, capsys):
        code = main(["generate", "--config", "{}", "--out", str(tmp_path)])
        assert code == 1

    def test_hypothesis_violation_is_3(self, tmp_path):
        doc = json.dumps({
            "command": "tailfit",
            "layer_distribution": {"family": "power_law", "alpha": 2.5, "beta": 0.4,
                                   "b": 1.0, "x_min": 1, "x_max": 100},
            "theory": {"mu": 1.0},
        })
        code = main(["tailfit", "--config", doc, "--out", str(tmp_path)])
        assert code == 3

    def test_success_is_0(self, tmp_path):
        code = main(["theory", "--config", json.dumps({
            "layer_distribution": {"family": "constant", "size": 3, "strength": 0.5},
            "theory": {"mu": 1.0},
        }), "--out", str(tmp_path)])
        assert code == 0

    def test_rate_underflow_is_2_and_writes_no_pmf(self, tmp_path, capsys):
        code = main(["theory", "--config", json.dumps({
            "layer_distribution": {"family": "constant", "size": 1000, "strength": 0.5},
            "theory": {"mu": 1.0},
        }), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RateUnderflow"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command, doc, extra", [
        ("generate", {**MINIMAL_GENERATE, "model": {"n": 1, "m": 1, "seed": 0}}, []),
        ("converge", {"command": "converge",
                      "layer_distribution": MINIMAL_GENERATE["layer_distribution"],
                      "study": {"mu": 1.0, "n_grid": [200, 100], "replications": 1, "seed": 0}}, []),
        ("generate", MINIMAL_GENERATE, ["--threads", "-3"]),
        ("theory", {"layer_distribution": MINIMAL_GENERATE["layer_distribution"],
                    "theory": {"mu": 0}}, []),
        ("tailfit", {"layer_distribution": {"family": "power_law", "alpha": 3, "beta": 0.5,
                                            "b": 1, "x_min": 1, "x_max": 100},
                     "theory": {"mu": -1}}, []),
        ("generate", {**MINIMAL_GENERATE,
                      "layer_distribution": {"family": "constant", "size": 3.5, "strength": 0.5}}, []),
        ("theory", {"layer_distribution": {"family": "tabular", "atoms": [[3.5, 0.5, 1]]},
                    "theory": {"mu": 1.0}}, []),
        ("theory", {"layer_distribution": {"family": "power_law", "alpha": 3, "beta": 0.5,
                                           "b": 1, "x_min": 1, "x_max": 10.5},
                    "theory": {"mu": 1.0}}, []),
        ("converge", {"command": "converge",
                      "layer_distribution": MINIMAL_GENERATE["layer_distribution"],
                      "study": {"mu": 1.0, "n_grid": [100], "replications": 1, "seed": 0,
                                "fit_range": [10]}}, []),
        ("converge", {"command": "converge",
                      "layer_distribution": MINIMAL_GENERATE["layer_distribution"],
                      "study": {"mu": 1.0, "n_grid": [100], "replications": 1, "seed": 0,
                                "metrics": "tv1"}}, []),
        ("converge", {"command": "converge",
                      "layer_distribution": MINIMAL_GENERATE["layer_distribution"],
                      "study": {"mu": 1.0, "n_grid": [100], "replications": 1, "seed": 0,
                                "metrics": ["tv1", ["tv2"]]}}, []),
        ("tailfit", {"layer_distribution": {"family": "power_law", "alpha": 3, "beta": 0.5,
                                            "b": 1, "x_min": 1, "x_max": 100},
                     "theory": {"mu": 1.0}, "input": {"fit_range": [10]}}, []),
        ("generate", {**MINIMAL_GENERATE, "model": {"n": "100", "mu": 1, "seed": 7}}, []),
        ("converge", {"layer_distribution": MINIMAL_GENERATE["layer_distribution"],
                      "study": {"mu": 1.0, "n_grid": [100], "replications": 2.5, "seed": 0}}, []),
        ("generate", {**MINIMAL_GENERATE, "model": [1, 2]}, []),
        ("theory", {"layer_distribution": {"family": "tabular", "atoms": 5}, "theory": {"mu": 1.0}}, []),
        ("theory", {"layer_distribution": {"family": "tabular", "atoms": [[10**19, 0.5, 1]]},
                    "theory": {"mu": 1.0}}, []),
        ("theory", {"layer_distribution": {"family": "constant", "size": "3", "strength": 0.5},
                    "theory": {"mu": 1.0}}, []),
        ("theory", {"layer_distribution": MINIMAL_GENERATE["layer_distribution"],
                    "theory": {"mu": "1"}}, []),
        ("tailfit", {"layer_distribution": {"family": "power_law", "alpha": "3", "beta": 0.5,
                                            "b": 1, "x_min": 1, "x_max": 100},
                     "theory": {"mu": 1.0}}, []),
        ("converge", {"layer_distribution": MINIMAL_GENERATE["layer_distribution"],
                      "study": {"mu": 1.0, "n_grid": ["100"], "replications": 1, "seed": 0}}, []),
        ("generate", {**MINIMAL_GENERATE, "model": {"n": 10**19, "mu": 1, "seed": 7}}, []),
        ("converge", {"layer_distribution": MINIMAL_GENERATE["layer_distribution"],
                      "study": {"mu": 1.0, "n_grid": [100], "replications": 1, "seed": -1}}, []),
        ("converge", {"layer_distribution": MINIMAL_GENERATE["layer_distribution"],
                      "study": {"mu": 1.0, "n_grid": [100], "replications": 1, "seed": 0,
                                "tail_epsilon": 0}}, []),
        ("theory", {"layer_distribution": MINIMAL_GENERATE["layer_distribution"],
                    "theory": {"mu": True}}, []),
        ("generate", {**MINIMAL_GENERATE, "model": {"n": 4_000_000_000, "m": 3, "seed": 7}}, []),
        ("empirical", {"input": {"edge_list": 3}}, []),
        ("converge", {"layer_distribution": MINIMAL_GENERATE["layer_distribution"],
                      "study": {"mu": 1.0, "n_grid": [200, 200], "replications": 1, "seed": 0}}, []),
    ], ids=["n_is_1", "unsorted_n_grid", "negative_threads", "theory_mu_0", "tailfit_mu_negative",
            "constant_size_3_5", "tabular_size_3_5", "x_max_10_5", "study_fit_range_one_number",
            "metrics_string", "metrics_not_names", "input_fit_range_one_number",
            "n_string", "replications_2_5", "model_a_list", "atoms_a_number", "tabular_size_1e19",
            "constant_size_string", "theory_mu_string", "alpha_string", "n_grid_string", "n_1e19",
            "study_seed_negative", "study_tail_epsilon_0", "theory_mu_true", "n_overflows_edge_codes",
            "edge_list_a_number", "repeated_n_grid"])
    def test_invalid_values_are_config_errors(self, tmp_path, capsys, command, doc, extra):
        code = main([command, "--config", json.dumps(doc), "--out", str(tmp_path)] + extra)
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("rows", ["1,abc\n", "1,0.5\n", "1,0.5,0.5\n", "-1,1.0\n", "",
                                      "10000000000000,1.0\n", "1,0.0019\n1,1.0\n"],
                             ids=["not_a_number", "mass_not_one", "three_fields", "negative_s", "no_rows",
                                  "s_beyond_longest_law", "s_twice"])
    def test_bad_pmf_csv_is_config_error(self, tmp_path, capsys, rows):
        pmf_csv = tmp_path / "pmf.csv"
        pmf_csv.write_text("s,prob\n" + rows)
        doc = {"layer_distribution": {"family": "power_law", "alpha": 3, "beta": 0.5,
                                      "b": 1, "x_min": 1, "x_max": 100},
               "theory": {"mu": 1.0}, "input": {"pmf_csv": str(pmf_csv)}}
        code = main(["tailfit", "--config", json.dumps(doc), "--out", str(tmp_path / "out")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and err["message"].startswith("input.pmf_csv:")
        assert not (tmp_path / "out" / "tail_prediction.json").exists()

    def test_metrics_string_is_not_read_as_letters(self, tmp_path, capsys):
        doc = {"layer_distribution": MINIMAL_GENERATE["layer_distribution"],
               "study": {"mu": 1.0, "n_grid": [100], "replications": 1, "seed": 0, "metrics": "tv1"}}
        assert main(["converge", "--config", json.dumps(doc), "--out", str(tmp_path)]) == 1
        assert "metrics must be a list" in json.loads(capsys.readouterr().err)["message"]

    def test_long_inline_config_runs(self, tmp_path):
        atoms = [[k, 0.5, 0.01] for k in range(2, 102)]
        doc = "\n " + json.dumps({"layer_distribution": {"family": "tabular", "atoms": atoms},
                                 "model": {"n": 200, "mu": 1, "seed": 7}})
        assert len(doc) > 255  # longer than a file name may be
        assert main(["generate", "--config", doc, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "graph.edgelist").exists()

    @pytest.mark.parametrize("body", ["1 1\n", "2 5\n", "0 2\n", "1 2 3\n", "# n=4000000000\n1 2\n"])
    def test_invalid_edge_list_is_4(self, tmp_path, capsys, body):
        edge_file = tmp_path / "bad.edgelist"
        edge_file.write_text("# superpose-net n=3 m=1 seed=0\n" + body)
        code = main(["empirical", "--config", json.dumps({"input": {"edge_list": str(edge_file)}}),
                     "--out", str(tmp_path / "out")])
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidEdgeList"
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_memory_budget_is_2(self, tmp_path, capsys, monkeypatch):
        import superpose_net.limits as limits_mod

        def never(*args, **kwargs):
            raise AssertionError("the degree law was evaluated before the budget check")

        monkeypatch.setattr(limits_mod, "limiting_degree_pmf", never)
        code = main(["theory", "--config", json.dumps({
            "layer_distribution": {"family": "power_law", "alpha": 3.0, "beta": 0.0,
                                   "b": 0.5, "x_min": 1, "x_max": 20_000},
            "theory": {"mu": 1.0},
        }), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MemoryBudgetExceeded"
        assert not (tmp_path / "limiting_bidegree_pmf.csv").exists()

    @pytest.mark.parametrize("command, doc, edges", [
        ("theory", {"layer_distribution": {"family": "power_law", "alpha": 3, "beta": 0.5,
                                           "b": 1, "x_min": 1, "x_max": 10**9},
                    "theory": {"mu": 1.0}}, None),
        ("converge", {"layer_distribution": {"family": "constant", "size": 10**11, "strength": 0.5},
                      "study": {"mu": 1.0, "n_grid": [100], "replications": 1, "seed": 0,
                                "metrics": ["tv1"]}}, None),
        ("empirical", {}, "# n=1000000000\n1 2\n2 3\n"),
        ("empirical", {}, "".join(f"1 {leaf}\n" for leaf in range(2, 40_002))),
        ("generate", {**MINIMAL_GENERATE, "model": {"n": 100, "m": 10**13, "seed": 7}}, None),
        ("generate", {"layer_distribution": {"family": "constant", "size": 0, "strength": 0.5},
                      "model": {"n": 100, "m": 10**13, "seed": 7}}, None),
        ("generate", {**MINIMAL_GENERATE,
                      "model": {"n": 100, "m": 10**7, "seed": 7, "keep_layer_records": True}}, None),
        ("generate", {"layer_distribution": {"family": "constant", "size": 10**9, "strength": 1e-18},
                      "model": {"n": 2 * 10**9, "m": 1, "seed": 7}}, None),
        ("converge", {"layer_distribution": {"family": "constant", "size": 20_000, "strength": 0.5},
                      "study": {"mu": 1e-5, "n_grid": [200_000], "replications": 1, "seed": 1,
                                "metrics": ["tv1"]}}, None),
    ], ids=["power_law_x_max_1e9", "tv1_size_1e11", "empirical_n_1e9", "empirical_star_of_40000",
            "m_1e13", "m_1e13_edgeless", "records_of_1e7_layers", "one_layer_of_1e9_nodes",
            "study_grid_before_theory"])
    def test_unbounded_allocation_is_2(self, tmp_path, capsys, command, doc, edges):
        if edges is not None:
            (tmp_path / "g.edgelist").write_text(edges)
            doc = {"input": {"edge_list": str(tmp_path / "g.edgelist")}}
        start = time.perf_counter()
        code = main([command, "--config", json.dumps(doc), "--out", str(tmp_path / "out")])
        assert time.perf_counter() - start < 2.0
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "MemoryBudgetExceeded"
        assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("edges", ["", "# superpose-net n=0 m=0 seed=0\n"],
                             ids=["empty_file", "header_n_0"])
    def test_edge_list_without_nodes_is_2(self, tmp_path, capsys, edges):
        (tmp_path / "g.edgelist").write_text(edges)
        code = main(["empirical", "--config", json.dumps({"input": {"edge_list": str(tmp_path / "g.edgelist")}}),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "EmptyGraph"
        assert not list((tmp_path / "out").iterdir())

    def test_degenerate_theory_writes_every_file(self, tmp_path):
        """A point-mass limit has null rank functionals, as in empirical."""
        assert main(["theory", "--config", json.dumps({
            "layer_distribution": {"family": "tabular", "atoms": [[3, 1.0, 1.0]]},
            "theory": {"mu": 1e-12},
        }), "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "limiting_bidegree_pmf.csv", "limiting_degree_pmf.csv", "manifest.json", "summary.json"]
        summary = json.loads((tmp_path / "summary.json").read_text())
        for name in ("kendall", "spearman"):
            assert summary[name] is None
            assert summary[f"{name}_degenerate"] == "a marginal is a point mass"

    def test_degenerate_converge_writes_null_with_reasons(self, tmp_path):
        """A point-mass limit is reported as in theory: null and a reason,
        in the theory row, the replication rows and the pooled law."""
        assert main(["converge", "--config", json.dumps({
            "layer_distribution": {"family": "constant", "size": 3, "strength": 1.0},
            "study": {"mu": 0.01, "n_grid": [100], "replications": 2, "seed": 0,
                      "tail_epsilon": 0.5, "metrics": ["kendall", "assortativity"]},
        }), "--out", str(tmp_path)]) == 0
        (report,) = tmp_path.glob("study_*.json")
        doc = json.loads(report.read_text())
        assert doc["theory"]["kendall"] is None
        assert doc["theory"]["kendall_degenerate"] == "a marginal is a point mass"
        pooled = doc["summary"]["100"]
        assert pooled["kendall_pooled"] is None
        assert pooled["kendall_degenerate_pooled"] == "a marginal is a point mass"
        rows = report.with_suffix(".csv").read_text().splitlines()[1:]
        assert sorted(rows) == [
            "100,0,assortativity,,degenerate: marginal variance is zero",
            "100,0,kendall,,degenerate: a marginal is a point mass",
            "100,1,assortativity,,degenerate: marginal variance is zero",
            "100,1,kendall,,degenerate: a marginal is a point mass",
        ]

    def test_increment_law_is_sized_by_its_window(self, tmp_path):
        """A layer of 10^9 nodes at strength 1e-8 has a short increment law."""
        start = time.perf_counter()
        assert main(["theory", "--config", json.dumps({
            "layer_distribution": {"family": "constant", "size": 10**9, "strength": 1e-8},
            "theory": {"mu": 1e-9},
        }), "--out", str(tmp_path)]) == 0
        assert time.perf_counter() - start < 2.0

    def test_theory_evaluates_each_law_once(self, tmp_path, monkeypatch):
        import superpose_net.cli as cli_mod
        import superpose_net.limits as limits_mod

        calls = []
        for name in ("limiting_degree_pmf", "limiting_laws"):
            real = getattr(limits_mod, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(limits_mod, name, counted)
        monkeypatch.setattr(cli_mod, "limiting_laws", limits_mod.limiting_laws)
        assert main(["theory", "--config", json.dumps({
            "layer_distribution": {"family": "tabular", "atoms": [[2, 1.0, 0.5], [4, 1.0, 0.5]]},
            "theory": {"mu": 1.0},
        }), "--out", str(tmp_path)]) == 0
        assert sorted(calls) == ["limiting_degree_pmf", "limiting_laws"]

    def test_threads_flag_does_not_change_output(self, tmp_path):
        doc = json.dumps({
            "layer_distribution": {"family": "tabular",
                                   "atoms": [[3, 0.6, 0.5], [8, 0.2, 0.5]]},
            "model": {"n": 400, "mu": 1, "seed": 21},
        })
        for name, threads in (("t1", "1"), ("t4", "4")):
            assert main(["generate", "--config", doc, "--out", str(tmp_path / name),
                         "--threads", threads]) == 0
        assert (tmp_path / "t1" / "graph.edgelist").read_bytes() == \
            (tmp_path / "t4" / "graph.edgelist").read_bytes()

    def test_seed_override(self, tmp_path):
        doc = json.dumps(MINIMAL_GENERATE)
        assert main(["generate", "--config", doc, "--out", str(tmp_path / "a"),
                     "--seed", "99"]) == 0
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["seed"] == 99


def test_cli_import_leaves_scipy_out():
    """scipy's import alone costs about a second, more than a typical run."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, superpose_net.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
