import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from laws import power_pmf_csv

from superpose_net.cli import (
    COMMANDS,
    ConfigError,
    dispatch,
    main,
    parse_config,
    run,
)


MINIMAL_GENERATE = {
    "command": "generate",
    "layer_distribution": {"family": "constant", "size": 3, "strength": 0.5},
    "model": {"n": 100, "mu": 1, "seed": 7},
}
ONE_STUDY = {"mu": 1.0, "n_grid": [100], "replications": 1, "seed": 0}
# laws with P_21 = 0, by test id prefix: no layer links, every layer is empty, every layer has one node,
# every layer has one node or links none
EDGELESS_LAWS = {
    "": {"family": "constant", "size": 5, "strength": 0.0},
    "size_0_": {"family": "constant", "size": 0, "strength": 0.5},
    "size_1_": {"family": "constant", "size": 1, "strength": 0.5},
    "size_1_and_strength_0_": {"family": "tabular", "atoms": [[1, 0.5, 0.5], [4, 0.0, 0.5]]},
}


class TestParseConfig:
    def test_minimal_generate(self):
        cfg = parse_config(json.dumps(MINIMAL_GENERATE))
        assert cfg.command == "generate"
        assert cfg.document["model"]["n"] == 100
        assert "theory" not in cfg.document

    def test_output_section_rejected(self):
        doc = {**MINIMAL_GENERATE, "output": {"formats": ["json"], "directory": "/nonexistent"}}
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert "<top>.output: unknown key" in str(exc.value)

    def test_config_file_path(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(MINIMAL_GENERATE))
        assert parse_config(str(path)).document["model"]["seed"] == 7
        assert parse_config(path).document["model"]["seed"] == 7

    def test_seed_fills_in_a_missing_seed(self):
        """The seed is written in before the check, so it supplies a needed
        field the config leaves out."""
        unseeded = json.dumps({**MINIMAL_GENERATE, "model": {"n": 100, "mu": 1}})
        with pytest.raises(ConfigError, match="model.seed: required"):
            parse_config(unseeded)
        assert parse_config(unseeded, seed=4).document["model"] == {"n": 100, "mu": 1, "seed": 4}

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
        again = parse_config(json.dumps({"command": cfg.command, **cfg.document}))
        assert again.document == cfg.document == {k: v for k, v in MINIMAL_GENERATE.items() if k != "command"}

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

    def test_empirical_computes_degrees_once(self, tmp_path, degree_passes):
        edge_file = tmp_path / "path.edgelist"
        edge_file.write_text("# superpose-net n=4 m=3 seed=0\n1 2\n2 3\n3 4\n")
        dispatch(parse_config(json.dumps({"command": "empirical", "input": {"edge_list": str(edge_file)}})),
                 tmp_path / "out")
        assert len(degree_passes) == 1

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

        # a fit range from s = 0 fits the points s >= 1; log 0 never enters the fit
        weights = (np.arange(12) + 1.0) ** -2  # p(s) proportional to (s + 1)^-2 on 0..11
        pmf_csv = tmp_path / "pmf.csv"
        rows = "".join(f"{s},{p!r}\n" for s, p in enumerate((weights / weights.sum()).tolist()))
        pmf_csv.write_text("s,prob\n" + rows)
        cfg = parse_config(json.dumps({
            "command": "tailfit",
            "layer_distribution": {"family": "power_law", "alpha": 3.0, "beta": 0.5,
                                   "b": 1.0, "x_min": 1, "x_max": 500},
            "theory": {"mu": 1.0}, "input": {"pmf_csv": str(pmf_csv), "fit_range": [0, 11]},
        }))
        dispatch(cfg, tmp_path / "from_zero")
        fitted = json.loads((tmp_path / "from_zero" / "tail_prediction.json").read_text())
        assert math.isfinite(fitted["fitted_slope"]) and fitted["fit_range"] == [0, 11]

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
            # empirical reads input.edge_list alone
            "empirical": ("empirical", {"input": {"edge_list": str(edge_file), "pmf_csv": "unread.csv",
                                                  "fit_range": [20, 200]}}),
            "converge": ("converge", {"layer_distribution": MINIMAL_GENERATE["layer_distribution"],
                                      "study": converge_study}),
            "theory": ("theory", {"layer_distribution": MINIMAL_GENERATE["layer_distribution"],
                                  "theory": {"mu": 1.0}}),
            # tailfit reads theory.mu, input.pmf_csv and input.fit_range
            "tailfit": ("tailfit", {"layer_distribution": {"family": "power_law", "alpha": 3.0, "beta": 0.5,
                                                           "b": 1.0, "x_min": 1, "x_max": 100},
                                    "theory": {"mu": 1.0, "tail_epsilon": 0.5},
                                    "input": {"edge_list": str(edge_file), "fit_range": [20, 60]}}),
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
        assert manifests["empirical"]["config"]["input"] == {"edge_list": str(edge_file)}
        assert manifests["tailfit"]["config"]["input"] == {"fit_range": [20, 60]}

    def test_tabular_manifest_reruns_as_given(self, tmp_path):
        """A tabular law's atoms are recorded as the config gave them, with
        a repeated atom and out of order; rerunning the manifest's config
        gives the same edge list.  Sections are recorded in one order."""
        dist = {"family": "tabular", "atoms": [[4, 0.5, 0.25], [3, 0.6, 0.25], [4, 0.5, 0.5]]}
        doc = {"model": {"n": 300, "mu": 1, "seed": 7}, "theory": {"mu": 2.0}, "layer_distribution": dist}
        assert main(["generate", "--config", json.dumps(doc), "--out", str(tmp_path / "a")]) == 0
        config = json.loads((tmp_path / "a" / "manifest.json").read_text())["config"]
        assert list(config) == ["command", "layer_distribution", "model"]
        assert config["layer_distribution"] == dist
        assert main(["generate", "--config", json.dumps(config), "--out", str(tmp_path / "b")]) == 0
        for name in ("graph.edgelist", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("atoms, model, digests", [
        ([[3, 0.5, 0.5], [0, 0.5, 0.25], [1, 1.0, 0.25]], {"n": 20, "m": 6, "seed": 3},
         ("bb99d5d8486aa3af21d8c39e5e708517445f9a3d0f708474b25ce724f7fd497c",
          "5495e39e83a38f5b733b7d955621ec8862b4a193b7bee79d9ff71980ffccfbdd")),
        # a size above n, edgeless atoms (sizes 0 and 1, strength 0), dense
        # and sparse strengths, and a few hundred layers
        ([[45, 0.01, 0.05], [0, 0.5, 0.1], [1, 1.0, 0.1], [5, 0.0, 0.15], [4, 0.6, 0.3], [7, 0.15, 0.3]],
         {"n": 30, "m": 300, "seed": 5},
         ("4e7d92924f1bd656debe9ba9575b3349760fc3cec2fdd5f90907df870c8cec23",
          "78a56cf07855bc2c80cae4135c384eebadb7de3a091cd90094befecf316e5206")),
    ], ids=["small", "mixed_atoms"])
    def test_generate_writes_layer_records(self, tmp_path, atoms, model, digests):
        """layers.jsonl holds one line per layer, each with its atom (its
        size clamped to n), its sorted distinct nodes and its edges among
        them; their union is the graph.  Both files are pinned by hash."""
        n = model["n"]
        assert main(["generate", "--config", json.dumps({
            "layer_distribution": {"family": "tabular", "atoms": atoms},
            "model": {**model, "keep_layer_records": True},
        }), "--out", str(tmp_path)]) == 0
        records = [json.loads(line) for line in (tmp_path / "layers.jsonl").read_text().splitlines()]
        assert len(records) == model["m"]
        union = set()
        for rec in records:
            assert [rec["size"], rec["strength"]] in [[min(x, n), y] for x, y, _ in atoms]
            nodes = rec["nodes"]
            assert len(nodes) == rec["size"] and nodes == sorted(set(nodes))
            assert all(1 <= v <= n for v in nodes)
            assert all(i < j and i in nodes and j in nodes for i, j in rec["edges"])
            union.update(map(tuple, rec["edges"]))
        body = (tmp_path / "graph.edgelist").read_text().splitlines()[1:]
        assert union == {tuple(map(int, line.split())) for line in body}
        assert len(union) == len(body)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"] == ["graph.edgelist", "layers.jsonl"]
        assert manifest["raw_edges"] == sum(len(rec["edges"]) for rec in records) >= manifest["edges"] == len(body)
        for name, digest in zip(("layers.jsonl", "graph.edgelist"), digests):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("case", ["generate", "generate_records", "empirical", "theory", "converge",
                                      "tailfit", "tailfit_pmf"])
    def test_manifest_lists_exactly_the_files_written(self, tmp_path, case):
        edge_file = tmp_path / "path.edgelist"
        edge_file.write_text("# superpose-net n=3 m=2 seed=0\n1 2\n2 3\n")
        power_law = {"family": "power_law", "alpha": 3.0, "beta": 0.5, "b": 1.0, "x_min": 1, "x_max": 100}
        command, doc = {
            "generate": ("generate", MINIMAL_GENERATE),
            "generate_records": ("generate", {**MINIMAL_GENERATE,
                                              "model": {**MINIMAL_GENERATE["model"], "keep_layer_records": True}}),
            "empirical": ("empirical", {"input": {"edge_list": str(edge_file)}}),
            "theory": ("theory", {"layer_distribution": MINIMAL_GENERATE["layer_distribution"],
                                  "theory": {"mu": 1.0}}),
            "converge": ("converge", {"layer_distribution": MINIMAL_GENERATE["layer_distribution"],
                                      "study": {**ONE_STUDY, "metrics": ["tv1", "assortativity"]}}),
            "tailfit": ("tailfit", {"layer_distribution": power_law, "theory": {"mu": 1.0}}),
            "tailfit_pmf": ("tailfit", {"layer_distribution": power_law, "theory": {"mu": 1.0},
                                        "input": {"pmf_csv": str(power_pmf_csv(tmp_path / "pmf.csv"))}}),
        }[case]
        out = tmp_path / "out"
        assert main([command, "--config", json.dumps(doc), "--out", str(out)]) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert len(set(outputs)) == len(outputs)
        assert sorted(p.name for p in out.iterdir() if p.name != "manifest.json") == sorted(outputs)
        for path in out.glob("*.json"):  # one JSON writer: each file parses and ends in one newline
            text = path.read_text()
            json.loads(text)
            assert text.endswith("\n") and not text.endswith("\n\n"), path.name

    def test_layer_records_need_a_sample_that_kept_them(self, tmp_path):
        from superpose_net.errors import MissingRecords
        from superpose_net.generate import GenConfig, generate_graph, write_layer_records
        from superpose_net.layers import LayerTypeDistribution
        g = generate_graph(GenConfig(n=20, layers=6, seed=3), LayerTypeDistribution.constant(3, 0.5))
        assert g.layer_records is None
        with pytest.raises(MissingRecords):
            write_layer_records(g, tmp_path / "layers.jsonl")


class TestStudyFileNames:
    """converge names its two study files study_seed<seed>_<hash>, <hash>
    being 12 hex digits of the SHA-256 of the config its manifest records."""

    DOC = {"layer_distribution": {"family": "constant", "size": 3, "strength": 0.5},
           "study": {"mu": 1.0, "n_grid": [100], "replications": 1, "seed": 3, "metrics": ["tv1"]}}

    @staticmethod
    def names(out: Path, doc: dict, *flags) -> list:
        assert main(["converge", "--config", json.dumps(doc), "--out", str(out), *flags]) == 0
        return sorted(p.name for p in out.iterdir() if p.name != "manifest.json")

    def test_name_is_the_hash_of_the_recorded_config(self, tmp_path):
        names = self.names(tmp_path, self.DOC)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        digest = hashlib.sha256(json.dumps(manifest["config"], sort_keys=True).encode()).hexdigest()[:12]
        assert names == [f"study_seed3_{digest}.csv", f"study_seed3_{digest}.json"]
        assert manifest["spec_hash"] == digest
        assert json.loads((tmp_path / names[1]).read_text())["spec_hash"] == digest

    @pytest.mark.parametrize("section, name, value", [
        ("layer_distribution", "strength", 0.6), ("study", "mu", 0.5), ("study", "n_grid", [100, 200]),
        ("study", "replications", 2), ("study", "seed", 4), ("study", "metrics", ["tv1", "tv2"]),
        ("study", "tail_epsilon", 1e-9), ("study", "fit_range", [10, 40]),
    ], ids=["law", "mu", "n_grid", "replications", "seed", "metrics", "tail_epsilon", "fit_range"])
    def test_each_recorded_field_changes_the_hash(self, tmp_path, section, name, value):
        changed = {**self.DOC, section: {**self.DOC[section], name: value}}
        digests = {file.rsplit("_", 1)[1] for file in self.names(tmp_path / "a", self.DOC)}
        assert digests.isdisjoint(file.rsplit("_", 1)[1] for file in self.names(tmp_path / "b", changed))

    def test_seed_flag_names_as_the_config_seed(self, tmp_path):
        seeded = {**self.DOC, "study": {**self.DOC["study"], "seed": 4}}
        assert self.names(tmp_path / "flag", self.DOC, "--seed", "4") == self.names(tmp_path / "config", seeded)

    @pytest.mark.parametrize("law, study, stem", [
        ({"family": "power_law", "alpha": 3.0, "beta": 0.5, "b": 1.0, "x_min": 1, "x_max": 100},
         {"mu": 1.0, "n_grid": [200], "replications": 2, "seed": 1}, "study_seed1_f06166263f61"),
        ({"family": "constant", "size": 4, "strength": 0.5},
         {"mu": 0.5, "n_grid": [500, 2000], "replications": 3, "seed": 4,
          "metrics": ["tv1", "tv2", "assortativity", "kendall", "spearman", "tail_slope", "subgraph_counts"]},
         "study_seed4_a9ac7ef2c5fc"),
    ], ids=["power_law", "constant"])
    def test_names_are_pinned(self, tmp_path, law, study, stem):
        assert self.names(tmp_path, {"layer_distribution": law, "study": study}) == [f"{stem}.csv", f"{stem}.json"]


def test_reads_names_only_known_parts():
    """Every part _READS lists names layer_distribution, a section of
    _FIELDS or one of its fields, so a typo cannot make a needed field
    optional or fail every run of a command."""
    from superpose_net.cli import _FIELDS, _READS, _SECTIONS
    known = {*_FIELDS, *(f"{section}.{field}" for section in _SECTIONS for field in _FIELDS[section])}
    for cmd, parts in _READS.items():
        for part in parts:
            section, dot, names = part.rstrip("!").rpartition(".")
            for name in names.split("|"):
                assert section + dot + name in known, f"{cmd}: {part}"


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

    def test_every_typed_error_exits_as_documented(self, tmp_path, capsys, monkeypatch):
        """Each SuperposeError of errors.py, then an OSError, raised by a
        runner gives the exit code and error kind that README lists."""
        from superpose_net import cli, errors
        documented = {"ConfigError": (1, "config"), "Degenerate": (2, "degenerate"),
                      "HypothesisViolation": (3, "hypothesis"), "InvalidEdgeList": (4, "InvalidEdgeList")}
        typed = [obj for obj in vars(errors).values()
                 if isinstance(obj, type) and issubclass(obj, errors.SuperposeError)]
        assert set(documented) < {cls.__name__ for cls in typed}
        cases = [(cls("field", "reason") if cls is ConfigError else cls("reason"),
                  documented.get(cls.__name__, (2, cls.__name__))) for cls in typed]
        doc = json.dumps(small_config("theory", tmp_path))
        for exc, (code, kind) in [*cases, (OSError("reason"), (4, "io"))]:
            def runner(cfg, exc=exc):
                raise exc

            monkeypatch.setitem(cli._RUNNERS, "theory", runner)
            assert main(["theory", "--config", doc, "--out", str(tmp_path / "out")]) == code, exc
            assert json.loads(capsys.readouterr().err) == {"error": kind, "message": str(exc)}
        assert not list((tmp_path / "out").iterdir())

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
        ("converge", {"layer_distribution": MINIMAL_GENERATE["layer_distribution"],
                      "study": {"mu": 1.0, "n_grid": [100], "replications": 1, "seed": 0,
                                "metrics": ["tv1", "tv1"]}}, []),
        ("converge", {"layer_distribution": MINIMAL_GENERATE["layer_distribution"],
                      "study": {"mu": 1.0, "n_grid": [], "replications": 1, "seed": 0}}, []),
        ("converge", {"layer_distribution": MINIMAL_GENERATE["layer_distribution"],
                      "study": {"mu": 1.0, "n_grid": [100], "replications": 1, "seed": 0,
                                "metrics": []}}, []),
        ("tailfit", {"layer_distribution": {"family": "power_law", "alpha": 3, "beta": 0.5,
                                            "b": 1, "x_min": 1, "x_max": 100},
                     "theory": {"mu": 1e308}}, []),
    ], ids=["n_is_1", "unsorted_n_grid", "negative_threads", "theory_mu_0", "tailfit_mu_negative",
            "constant_size_3_5", "tabular_size_3_5", "x_max_10_5", "study_fit_range_one_number",
            "metrics_string", "metrics_not_names", "input_fit_range_one_number",
            "n_string", "replications_2_5", "model_a_list", "atoms_a_number", "tabular_size_1e19",
            "constant_size_string", "theory_mu_string", "alpha_string", "n_grid_string", "n_1e19",
            "study_seed_negative", "study_tail_epsilon_0", "theory_mu_true", "n_overflows_edge_codes",
            "edge_list_a_number", "repeated_n_grid", "metrics_repeated", "n_grid_empty", "metrics_empty",
            "tailfit_constants_overflow"])
    def test_invalid_values_are_config_errors(self, tmp_path, capsys, command, doc, extra):
        code = main([command, "--config", json.dumps(doc), "--out", str(tmp_path)] + extra)
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("text", [*("s,prob\n" + rows for rows in [
        "1,abc\n", "1,0.5\n", "1,0.5,0.5\n", "-1,1.0\n", "", "10000000000000,1.0\n", "1,0.0019\n1,1.0\n",
        "1,inf\n2,-inf\n", "1,nan\n", "1,1e308\n2,1e308\n"]), "0,0.25\n1,0.75\n# mass_defect=0.25\n"],
                             ids=["not_a_number", "mass_not_one", "three_fields", "negative_s", "no_rows",
                                  "s_beyond_longest_law", "s_twice", "inf_and_minus_inf", "nan",
                                  "mass_overflows", "no_header"])
    def test_bad_pmf_csv_is_config_error(self, tmp_path, capsys, text):
        pmf_csv = tmp_path / "pmf.csv"
        pmf_csv.write_text(text)
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

    @pytest.mark.parametrize("body", [
        "1 1\n", "2 5\n", "0 2\n", "1 2 3\n", "# n=4000000000\n1 2\n",
        pytest.param(b"1 2\n\xe9 3\n", id="not_utf8_in_an_edge"),
        pytest.param(b"1 2\n2 3\n#\xe9\n", id="not_utf8_in_a_comment"),
        pytest.param(b"1 2\n" * 20_000 + b"\xe9 3\n", id="not_utf8_on_line_20000"),
    ])
    def test_invalid_edge_list_is_4(self, tmp_path, capsys, body):
        edge_file = tmp_path / "bad.edgelist"
        data = body if type(body) is bytes else body.encode()
        edge_file.write_bytes(b"# superpose-net n=3 m=1 seed=0\n" + data)
        code = main(["empirical", "--config", json.dumps({"input": {"edge_list": str(edge_file)}}),
                     "--out", str(tmp_path / "out")])
        assert code == 4
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidEdgeList"
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("comment", ["# made by tool seed=abc\n", "# run m=1.5\n"], ids=["seed_abc", "m_1_5"])
    def test_unread_header_values_are_ignored(self, tmp_path, capsys, comment):
        """m and seed are not read from a graph, so one that is not an
        integer changes nothing; node ids are checked against n, so n
        stays strict."""
        codes = {}
        for name, text in (("plain", ""), ("commented", comment), ("n_abc", comment + "# n=abc\n")):
            (tmp_path / f"{name}.edgelist").write_text(text + "1 2\n2 3\n")
            doc = {"input": {"edge_list": str(tmp_path / f"{name}.edgelist")}}
            codes[name] = main(["empirical", "--config", json.dumps(doc), "--out", str(tmp_path / name)])
        assert codes == {"plain": 0, "commented": 0, "n_abc": 4}
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidEdgeList"
        assert (tmp_path / "commented" / "summary.json").read_bytes() == \
            (tmp_path / "plain" / "summary.json").read_bytes()

    def test_memory_budget_is_2(self, tmp_path, capsys, monkeypatch):
        import superpose_net.limits as limits_mod

        def never(*args, **kwargs):
            raise AssertionError("the degree law was evaluated before the budget check")

        for name in ("limiting_degree_pmf", "_degree_law"):
            monkeypatch.setattr(limits_mod, name, never)
        code = main(["theory", "--config", json.dumps({
            "layer_distribution": {"family": "power_law", "alpha": 3.0, "beta": 0.0,
                                   "b": 0.5, "x_min": 1, "x_max": 20_000},
            "theory": {"mu": 1.0},
        }), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MemoryBudgetExceeded"
        assert not (tmp_path / "limiting_bidegree_pmf.csv").exists()

    def test_kendall_fits_what_the_limit_budget_admits(self, tmp_path, capsys, monkeypatch):
        """A budget that admits the limit laws but not three copies of the
        occupied f2: kendall holds one copy, so theory reports it."""
        from superpose_net import errors
        from superpose_net.layers import LayerTypeDistribution
        from superpose_net.limits import LimitParams, _own_layer, limiting_laws
        params = LimitParams(1.0, LayerTypeDistribution.constant(3, 0.5))
        f2, k = limiting_laws(params)[1].probs, len(_own_layer(params.dist, joint=True)[1])
        occupied = np.count_nonzero(f2.sum(axis=1)) * np.count_nonzero(f2.sum(axis=0))
        laws_need, three_copies = 8 * ((k + len(f2)) ** 2 + f2.size), 24 * occupied
        assert laws_need < three_copies
        monkeypatch.setattr(errors, "MEMORY_BUDGET", (laws_need + three_copies) // 2)
        doc = {"layer_distribution": MINIMAL_GENERATE["layer_distribution"], "theory": {"mu": 1.0}}
        assert main(["theory", "--config", json.dumps(doc), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        assert math.isfinite(json.loads((tmp_path / "summary.json").read_text())["kendall"])

    def test_study_degree_arrays_over_budget_is_2_before_the_limit_laws(self, tmp_path, capsys, monkeypatch):
        import superpose_net.limits as limits_mod

        def never(*args, **kwargs):
            raise AssertionError("a limit law was evaluated before the budget check")

        for name in ("limiting_laws", "limiting_degree_pmf", "_own_layer", "_degree_law"):
            monkeypatch.setattr(limits_mod, name, never)
        code = main(["converge", "--config", json.dumps({
            "layer_distribution": {"family": "power_law", "alpha": 3.0, "beta": 0.5,
                                   "b": 1.0, "x_min": 1, "x_max": 100_000},
            "study": {"mu": 1e-9, "n_grid": [2_000_000_000], "replications": 1, "seed": 0},
        }), "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MemoryBudgetExceeded" and err["message"].startswith("degree arrays")
        assert not list(tmp_path.glob("study_*"))

    @pytest.mark.parametrize("command, law, section", [
        pytest.param(command, law, section, id=prefix + name)
        for prefix, law in EDGELESS_LAWS.items()
        for name, command, section in [
            ("theory", "theory", {"theory": {"mu": 1.0}}),
            *((name, "converge", {"study": {**ONE_STUDY, "metrics": metrics}}) for name, metrics in [
                ("assortativity", ["assortativity"]), ("tv1_assortativity", ["tv1", "assortativity"]),
                ("tv2", ["tv2"]), ("kendall", ["kendall"]), ("spearman", ["spearman"])]),
        ]
    ] + [
        # tailfit takes only power laws, whose one size-1 atom links nothing
        pytest.param("tailfit", {"family": "power_law", "alpha": 3, "beta": 0.5, "b": 1, "x_min": 1, "x_max": 1},
                     {"theory": {"mu": 1.0}}, id="tailfit"),
    ])
    def test_no_edge_mass_is_one_error_from_every_entry(self, tmp_path, capsys, command, law, section):
        code = main([command, "--config", json.dumps({"layer_distribution": law, **section}),
                     "--out", str(tmp_path)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ZeroEdgeMass", "message": "P_21 = 0: the model produces no edges in the limit"}
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("prefix", ["", "size_0_", "size_1_", "size_1_and_strength_0_"],
                             ids=["strength_0", "size_0", "size_1", "size_1_and_strength_0"])
    def test_degree_law_of_an_edgeless_law_is_the_point_mass_at_0(self, tmp_path, prefix):
        doc = {"layer_distribution": EDGELESS_LAWS[prefix],
               "study": {**ONE_STUDY, "replications": 2, "metrics": ["tv1"]}}
        assert main(["converge", "--config", json.dumps(doc), "--out", str(tmp_path)]) == 0
        (report,) = tmp_path.glob("study_*.csv")
        assert report.read_text().splitlines()[1:] == ["100,0,tv1,0.0,", "100,1,tv1,0.0,"]

    def test_theory_at_a_huge_rate_has_finite_moments(self, tmp_path):
        # mu**2 overflows a double; the mean degree mu * P_21 = 2e-100 does not
        assert main(["theory", "--config", json.dumps({
            "layer_distribution": {"family": "tabular", "atoms": [[0, 0.5, 1.0], [2, 1.0, 1e-300]]},
            "theory": {"mu": 1e200},
        }), "--out", str(tmp_path)]) == 0
        moments = json.loads((tmp_path / "summary.json").read_text())["moments"]
        assert all(map(math.isfinite, moments.values()))
        assert moments["e_dstar3"] == pytest.approx(2e-100, rel=1e-12)

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

    def test_budget_message_gives_three_significant_digits(self, tmp_path, capsys):
        doc = {"layer_distribution": {"family": "constant", "size": 3, "strength": 0.5},
               "model": {"n": 100, "mu": 1e300, "seed": 0}}
        assert main(["generate", "--config", json.dumps(doc), "--out", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["message"] == (
            "sampled layers would take 2.98e+294 GiB, over the 1 GiB budget")

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

    def test_theory_at_a_tail_epsilon_below_rounding_exits_0(self, tmp_path, monkeypatch):
        """The degree law of constant(50, 0.3) at tail_epsilon 1e-15 stops
        near 1800 points, so its bidegree law fits; the files are not
        written, as the 1851 x 1851 law takes seconds to format."""
        import superpose_net.cli as cli_mod

        shapes = []
        monkeypatch.setattr(cli_mod, "pmf_to_csv", lambda f, path: shapes.append(f.probs.shape))
        assert main(["theory", "--config", json.dumps({
            "layer_distribution": {"family": "constant", "size": 50, "strength": 0.3},
            "theory": {"mu": 1.0, "tail_epsilon": 1e-15},
        }), "--out", str(tmp_path)]) == 0
        assert len(shapes) == 2 and max(map(max, shapes)) < 10_000

    def test_theory_evaluates_each_law_once(self, tmp_path, monkeypatch):
        import superpose_net.limits as limits_mod

        calls = []
        for name in ("limiting_degree_pmf", "limiting_laws", "limiting_moments", "_own_layer", "_degree_law"):
            real = getattr(limits_mod, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(limits_mod, name, counted)
        assert main(["theory", "--config", json.dumps({
            "layer_distribution": {"family": "tabular", "atoms": [[2, 1.0, 0.5], [4, 1.0, 0.5]]},
            "theory": {"mu": 1.0},
        }), "--out", str(tmp_path)]) == 0
        # one binomial pass and one degree recursion, both inside limiting_laws
        assert sorted(calls) == ["_degree_law", "_own_layer", "limiting_laws", "limiting_moments"]

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
        """--seed replaces the config's seed; the manifest records it, and its
        config repeats the run."""
        study = {**ONE_STUDY, "replications": 2}
        runs = {"generate": (MINIMAL_GENERATE, "model"),
                "converge": ({"layer_distribution": MINIMAL_GENERATE["layer_distribution"], "study": study}, "study")}
        for command, (doc, section) in runs.items():
            a, b = tmp_path / command / "a", tmp_path / command / "b"
            assert main([command, "--config", json.dumps(doc), "--out", str(a), "--seed", "99"]) == 0
            manifest = json.loads((a / "manifest.json").read_text())
            assert manifest["seed"] == 99
            assert manifest["config"][section] == {**doc[section], "seed": 99}
            assert main([command, "--config", json.dumps(manifest["config"]), "--out", str(b)]) == 0
            data = sorted(p.name for p in a.iterdir() if p.name != "manifest.json")
            assert data == sorted(p.name for p in b.iterdir() if p.name != "manifest.json")
            assert all((a / name).read_bytes() == (b / name).read_bytes() for name in data)

    @pytest.mark.parametrize("command, seed, field", [
        ("generate", "18446744073709551616", "model.seed"),
        ("generate", "-9223372036854775809", "model.seed"),
        ("converge", "18446744073709551616", "study.seed"),
    ], ids=["generate_2_64", "generate_below_int64", "converge_2_64"])
    def test_out_of_range_seed_is_a_config_error(self, tmp_path, capsys, command, seed, field):
        """A --seed gets the 64-bit check of a seed in the config, before anything runs."""
        doc = small_config(command, tmp_path)
        assert main([command, "--config", json.dumps(doc), "--out", str(tmp_path / "out"), f"--seed={seed}"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "config" and err["message"].startswith(f"{field}: ")
        assert not (tmp_path / "out").exists()

    def test_seed_is_ignored_by_theory(self, tmp_path):
        doc = json.dumps(small_config("theory", tmp_path))
        assert main(["theory", "--config", doc, "--out", str(tmp_path / "seeded"), "--seed", "5"]) == 0
        assert main(["theory", "--config", doc, "--out", str(tmp_path / "plain")]) == 0
        for name in ("limiting_degree_pmf.csv", "limiting_bidegree_pmf.csv", "summary.json"):
            assert (tmp_path / "seeded" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def run_python(*args):
    """A Python process with args and src on its path, its output captured.
    Its standard streams are buffered, as on any run without a terminal, so
    output that cli.run() failed to flush would be lost."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True)


def run_process(*args):
    return run_python("-m", "superpose_net.cli", *args)


def small_config(command: str, tmp_path: Path) -> dict:
    """A config of command that runs in well under a second, with its input files."""
    if command == "empirical":
        edge_file = tmp_path / "path.edgelist"
        edge_file.write_text("# superpose-net n=4 m=2 seed=0\n1 2\n2 3\n3 4\n")
        return {"input": {"edge_list": str(edge_file)}}
    if command == "tailfit":
        return {"layer_distribution": {"family": "power_law", "alpha": 3.0, "beta": 0.5, "b": 1.0,
                                       "x_min": 1, "x_max": 500},
                "theory": {"mu": 1.0}, "input": {"pmf_csv": str(power_pmf_csv(tmp_path / "pmf.csv"))}}
    dist = MINIMAL_GENERATE["layer_distribution"]
    return {"generate": MINIMAL_GENERATE,
            "theory": {"layer_distribution": dist, "theory": {"mu": 1.0}},
            "converge": {"layer_distribution": dist,
                         "study": {"mu": 1.0, "n_grid": [100], "replications": 2, "seed": 3}}}[command]


class TestProcessEntry:
    """A CLI process ends through cli.run(), without interpreter teardown;
    it must write what main() writes and report errors the same way."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_process_writes_what_main_writes(self, tmp_path, command):
        doc = json.dumps(small_config(command, tmp_path))
        proc = run_process(command, "--config", doc, "--out", str(tmp_path / "process"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == proc.stderr == ""
        assert main([command, "--config", doc, "--out", str(tmp_path / "in_process")]) == 0
        written = sorted(p.name for p in (tmp_path / "process").iterdir())
        assert "manifest.json" in written
        assert written == sorted(p.name for p in (tmp_path / "in_process").iterdir())
        for name in written:
            assert (tmp_path / "process" / name).read_bytes() == (tmp_path / "in_process" / name).read_bytes()

    @pytest.mark.parametrize("code, command, doc, input_file, error", [
        (1, "generate", {}, None, {"error": "config"}),
        (2, "theory", {"layer_distribution": {"family": "constant", "size": 1000, "strength": 0.5},
                       "theory": {"mu": 1.0}}, None, {"error": "RateUnderflow"}),
        (2, "theory", {"layer_distribution": {"family": "constant", "size": 3, "strength": 1.0},
                       "theory": {"mu": 1e308}}, None, {"error": "RateUnderflow"}),
        (2, "tailfit", {"layer_distribution": {"family": "power_law", "alpha": 3, "beta": 0.5,
                                               "b": 1.0, "x_min": 1, "x_max": 100},
                        "theory": {"mu": 1.0}}, ("pmf_csv", "s,prob\n1,0.5\n2,0.25\n3,0.25\n"),
         {"error": "degenerate", "message": "the last support point of input.pmf_csv is 3, below 10, "
                                            "so the default fit window is empty"}),
        (3, "tailfit", {"layer_distribution": {"family": "power_law", "alpha": 2.5, "beta": 0.4,
                                               "b": 1.0, "x_min": 1, "x_max": 100},
                        "theory": {"mu": 1.0}}, None, {"error": "hypothesis"}),
        (4, "empirical", {}, ("edge_list", "# superpose-net n=3 m=1 seed=0\n1 1\n"), {"error": "InvalidEdgeList"}),
    ], ids=["config", "rate_underflow", "rate_overflowing_a_double", "tailfit_pmf_below_the_default_window",
            "hypothesis", "invalid_edge_list"])
    def test_error_exit_writes_one_json_line(self, tmp_path, code, command, doc, input_file, error):
        if input_file is not None:
            field, body = input_file
            (tmp_path / "input").write_text(body)
            doc = {**doc, "input": {field: str(tmp_path / "input")}}
        proc = run_process(command, "--config", json.dumps(doc), "--out", str(tmp_path / "out"))
        assert proc.returncode == code
        assert proc.stdout == "" and proc.stderr.endswith("\n") and proc.stderr.count("\n") == 1
        reported = json.loads(proc.stderr)
        assert set(reported) == {"error", "message"} and reported.items() >= error.items()

    def test_run_flushes_both_streams_and_exits_with_the_code(self):
        """Text without a newline stays in the buffers until a flush."""
        main_code = "lambda: sys.stdout.write('out') and sys.stderr.write('err') and 5"
        proc = run_python("-c", f"import sys, superpose_net.cli as cli; cli.main = {main_code}; cli.run()")
        assert (proc.returncode, proc.stdout, proc.stderr) == (5, "out", "err")

    def test_help_exits_0_with_usage_on_a_pipe(self):
        proc = run_process("--help")
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.startswith("usage: superpose-net") and "generate" in proc.stdout


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is in the standard library from Python 3.11")
def test_console_script_is_the_process_entry():
    import tomllib
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    module, _, name = pyproject["project"]["scripts"]["superpose-net"].partition(":")
    assert getattr(importlib.import_module(module), name) is run


def test_cli_import_leaves_scipy_out():
    """scipy's import alone costs about a second, more than a typical run."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, superpose_net.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_converge_output_does_not_depend_on_the_string_hash_seed(tmp_path):
    """A study whose only replication has no edges notes every bidegree
    metric as degenerate; those rows and the summary keep ALL_METRICS order
    under any PYTHONHASHSEED."""
    src = Path(__file__).resolve().parents[1] / "src"
    doc = json.dumps({"layer_distribution": {"family": "constant", "size": 2, "strength": 1e-9},
                      "study": {"mu": 0.5, "n_grid": [20], "replications": 1, "seed": 1,
                                "metrics": ["tv1", "tv2", "assortativity", "kendall", "spearman"]}})
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        out = tmp_path / hash_seed
        subprocess.run([sys.executable, "-m", "superpose_net.cli", "converge", "--config", doc, "--out", str(out)],
                       env=env, check=True)
        outputs.append({path.name: path.read_bytes() for path in sorted(out.glob("study_*"))})
    assert len(outputs[0]) == 2 and outputs[0] == outputs[1]
