"""Command-line front end.

Subcommands: generate, empirical, theory, converge, tailfit.  All inputs
come from a JSON config, with a --seed written into it before it is
checked.  A run computes everything first, then writes its files and a
manifest that names them and records the config, whose hash names
converge's files.  One table gives the exit codes: 1 config error, 2
degenerate statistic or any other typed error (a rate underflow, an array
over the memory budget), 3 hypothesis violation, 4 I/O error or an
invalid edge-list file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional

from . import __version__
from .errors import (
    ConfigError,
    DegenerateMarginal,
    HypothesisViolation,
    InsufficientSupport,
    InvalidEdgeList,
    SuperposeError,
)
from .layers import LayerTypeDistribution
from .limits import LimitParams, limit_values, tail_prediction
from .pmf import (_DEFAULT_T_LO, FUNCTIONALS, checked_fit_range, functionals, pmf1d_from_csv, pmf_to_csv, size_biased,
                  tail_slope_fit)

COMMANDS = ("generate", "empirical", "theory", "converge", "tailfit")
# (exit code, error kind) of each typed error; any other SuperposeError is (2, its class name)
_EXITS = {ConfigError: (1, "config"), InsufficientSupport: (2, "degenerate"), DegenerateMarginal: (2, "degenerate"),
          HypothesisViolation: (3, "hypothesis"), InvalidEdgeList: (4, "InvalidEdgeList")}


@dataclass
class RunConfig:
    """A checked config.  document holds the parts of the config the
    command reads, a --seed override included; the manifest records it.
    layer_distribution is the law built from it."""
    command: str
    document: dict
    layer_distribution: Optional[LayerTypeDistribution] = None

    @property
    def record(self) -> dict:
        """The config as the manifest records it and converge hashes it."""
        return {"command": self.command, **self.document}


def _is_int(value) -> bool:
    return type(value) is int and -(2**63) <= value < 2**63


def _is_number(value) -> bool:
    return _is_int(value) or type(value) is float and math.isfinite(value)


def _is_atom(value) -> bool:
    return type(value) is list and len(value) == 3 and _is_int(value[0]) and all(map(_is_number, value[1:]))


# each JSON kind a config field may take: what it must be, and its test
_KINDS = {
    "int": ("an integer", _is_int),
    "number": ("a finite number", _is_number),
    "bool": ("true or false", lambda v: type(v) is bool),
    "path": ("a path string", lambda v: type(v) is str),
    "ints": ("a list of integers", lambda v: type(v) is list and all(map(_is_int, v))),
    "metrics": ("a list of metric names", lambda v: type(v) is list and all(type(m) is str for m in v)),
    "pair": ("a [lo, hi] pair of numbers", lambda v: type(v) is list and len(v) == 2 and all(map(_is_number, v))),
    "atoms": ("a list of [size, strength, prob] atoms", lambda v: type(v) is list and all(map(_is_atom, v))),
}

# every allowed field of each section and of each layer_distribution
# family, with its kind; the theory and study fields are the keywords of
# LimitParams and StudySpec, which hold their defaults and check the ranges
_FIELDS = {
    "model": {"n": "int", "m": "int", "mu": "number", "seed": "int", "keep_layer_records": "bool"},
    "theory": {"mu": "number", "tail_epsilon": "number"},
    "study": {"mu": "number", "n_grid": "ints", "replications": "int", "seed": "int",
              "metrics": "metrics", "tail_epsilon": "number", "fit_range": "pair"},
    "input": {"edge_list": "path", "pmf_csv": "path", "fit_range": "pair"},
    "layer_distribution": {
        "constant": {"size": "int", "strength": "number"},
        "tabular": {"atoms": "atoms"},
        "power_law": {"alpha": "number", "beta": "number", "b": "number", "x_min": "int", "x_max": "int"},
    },
}
_SECTIONS = ("model", "theory", "study", "input")
# the sections and fields ("a|b": either) each command reads, "!" marking a
# part it needs (a layer_distribution needs every field of its family); the
# others are checked for their fields, then dropped, so a manifest records
# only what a run read
_READS = {"generate": ("layer_distribution!", "model", "model.n!", "model.m|mu!", "model.seed!"),
          "empirical": ("input.edge_list!",), "theory": ("layer_distribution!", "theory", "theory.mu!"),
          "converge": ("layer_distribution!", "study", "study.mu!", "study.n_grid!", "study.replications!",
                       "study.seed!"),
          "tailfit": ("layer_distribution!", "theory.mu!", "input.pmf_csv", "input.fit_range")}


def _check_fields(section, fields: dict, path: str) -> None:
    """ConfigError unless section is an object of known fields, each of its kind."""
    if type(section) is not dict:
        raise ConfigError(path, "must be an object")
    for key, value in section.items():
        if key not in fields:
            raise ConfigError(f"{path}.{key}", "unknown key")
        what, test = _KINDS[fields[key]]
        if not test(value):
            shown = json.dumps(value)
            shown = shown if len(shown) <= 40 else shown[:37] + "..."
            raise ConfigError(f"{path}.{key}", f"{key} must be {what}, got {shown}")


def _parts(cmd: str):
    """Each part of _READS[cmd] as (path, section or "", names, needed)."""
    for part in _READS[cmd]:
        path = part.rstrip("!")
        section, _, names = path.rpartition(".")
        yield path, section, names.split("|"), path != part


def _check_document(raw: dict, cmd: str) -> None:
    """Check every section of raw against _FIELDS and the needs of cmd against _READS."""
    unknown = raw.keys() - {"command", *_FIELDS}
    if unknown:
        raise ConfigError(f"<top>.{sorted(unknown)[0]}", "unknown key")
    for name in _SECTIONS:
        _check_fields(raw.get(name, {}), _FIELDS[name], name)
    if "layer_distribution" in raw:
        dist = raw["layer_distribution"]
        if type(dist) is not dict:
            raise ConfigError("layer_distribution", "must be an object")
        families = _FIELDS["layer_distribution"]
        family = dist.get("family")
        if type(family) is not str or family not in families:
            raise ConfigError("layer_distribution.family", f"must be one of constant/tabular/power_law, got {family!r}")
        fields = {k: v for k, v in dist.items() if k != "family"}
        _check_fields(fields, families[family], "layer_distribution")
        missing = sorted(families[family].keys() - fields.keys())
        if missing:
            raise ConfigError(f"layer_distribution.{missing[0]}", "missing required field")
    for path, section, names, needed in _parts(cmd):
        if needed and not any(name in (raw.get(section, {}) if section else raw) for name in names):
            raise ConfigError(path, f"required for command {cmd!r}")
    if "m" in raw.get("model", {}) and "mu" in raw.get("model", {}):
        raise ConfigError("model.m", "give either m or mu, not both")
    if cmd == "tailfit" and raw["layer_distribution"]["family"] != "power_law":
        raise ConfigError("layer_distribution.family", "tailfit needs a power_law distribution")


def parse_config(source, command: Optional[str] = None, seed: Optional[int] = None) -> RunConfig:
    """Validate a JSON config, a seed written in, into a RunConfig.  Text
    whose first non-blank character is { is the JSON; else a file path."""
    text = str(source)
    if not text.lstrip().startswith("{"):
        try:
            text = Path(text).read_text()
        except (OSError, ValueError) as exc:
            raise ConfigError("<document>", f"cannot read config file: {exc}")
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError("<document>", f"invalid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("<document>", "top level must be an object")

    cmd = command or raw.get("command")
    if cmd not in COMMANDS:
        raise ConfigError("command", f"must be one of {COMMANDS}, got {cmd!r}")
    if command and "command" in raw and raw["command"] != command:
        raise ConfigError("command", f"config says {raw['command']!r} but {command!r} was invoked")
    seeded = {"generate": "model", "converge": "study"}.get(cmd)
    if seed is not None and seeded and type(raw.get(seeded, {})) is dict:
        raw[seeded] = {**raw.get(seeded, {}), "seed": seed}
    _check_document(raw, cmd)

    reads = {(section, name) for _, section, names, _ in _parts(cmd) for name in names}
    cfg = RunConfig(cmd, {})
    for name in ("layer_distribution", *_SECTIONS):
        section = {k: v for k, v in raw.get(name, {}).items() if ("", name) in reads or (name, k) in reads}
        if section:
            cfg.document[name] = section
    if "layer_distribution" in cfg.document:
        args = dict(cfg.document["layer_distribution"])
        build = getattr(LayerTypeDistribution, args.pop("family"))
        cfg.layer_distribution = _validated("layer_distribution", build, **args)
    return cfg


# -- dispatch --------------------------------------------------------------

def _validated(section: str, build, **kwargs):
    """build(**kwargs), reporting a ValueError from its checks as a
    ConfigError on the config section the values came from."""
    try:
        return build(**kwargs)
    except ValueError as exc:
        raise ConfigError(section, str(exc)) from None


def _write_json(doc, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=2, default=float) + "\n")


# each runner only computes: it returns {file name: writer of that file}
# and the facts the manifest adds, and imports the sampler and study
# modules it uses, so a command loads no module it does not run
def _run_generate(cfg: RunConfig):
    from .generate import GenConfig, generate_graph, write_edge_list, write_layer_records
    model = cfg.document["model"]
    gen = _validated(
        "model", GenConfig, n=model["n"], layers=model.get("m"), mu=model.get("mu"),
        seed=model["seed"], keep_layer_records=model.get("keep_layer_records", False),
    )
    g = generate_graph(gen, cfg.layer_distribution)
    files = {"graph.edgelist": partial(write_edge_list, g)}
    if gen.keep_layer_records:
        files["layers.jsonl"] = partial(write_layer_records, g)
    return files, {"seed": gen.seed, "n": g.n, "m": g.m, "edges": g.edge_count}


def _run_empirical(cfg: RunConfig):
    from .generate import read_edge_list
    from .stats import bidegree_distribution, degree_distribution
    g = read_edge_list(cfg.document["input"]["edge_list"])
    f1 = degree_distribution(g)
    f2 = bidegree_distribution(g)
    summary = {"n": g.n, "edges": g.edge_count, **functionals(f2, FUNCTIONALS)}
    files = {"degree_pmf.csv": partial(pmf_to_csv, f1), "size_biased_pmf.csv": partial(pmf_to_csv, size_biased(f1)),
             "bidegree_pmf.csv": partial(pmf_to_csv, f2), "summary.json": partial(_write_json, summary)}
    return files, {"mass_defects": {"degree_pmf": 0.0, "bidegree_pmf": 0.0}}


def _run_theory(cfg: RunConfig):
    params = _validated("theory", LimitParams, dist=cfg.layer_distribution, **cfg.document["theory"])
    summary, f1, f2 = limit_values(params, ("assortativity", "kendall", "spearman"))
    files = {"limiting_degree_pmf.csv": partial(pmf_to_csv, f1), "limiting_bidegree_pmf.csv": partial(pmf_to_csv, f2),
             "summary.json": partial(_write_json, summary)}
    return files, {"mass_defects": {"degree_pmf": f1.mass_defect, "bidegree_pmf": f2.mass_defect},
                   "tail_epsilon": params.tail_epsilon}


def _run_converge(cfg: RunConfig):
    import hashlib  # its OpenSSL import would cost every other command about 5 ms
    from .study import StudySpec, run_study
    spec = _validated("study", StudySpec, dist=cfg.layer_distribution, **cfg.document["study"])
    report = run_study(spec)
    spec_hash = hashlib.sha256(json.dumps(cfg.record, sort_keys=True).encode()).hexdigest()[:12]
    stem = f"study_seed{spec.seed}_{spec_hash}"
    doc = {"spec_hash": spec_hash, "summary": report.summary, "theory": report.theory}
    files = {f"{stem}.csv": report.to_csv, f"{stem}.json": partial(_write_json, doc)}
    return files, {"seed": spec.seed, "spec_hash": spec_hash}


def _run_tailfit(cfg: RunConfig):
    pred = _validated("theory", tail_prediction, mu=cfg.document["theory"]["mu"], dist=cfg.layer_distribution)
    summary = dict(vars(pred))
    given = cfg.document.get("input", {})
    fit_range = given.get("fit_range")
    if fit_range is not None:
        fit_range = _validated("input", checked_fit_range, fit_range=fit_range)
    if "pmf_csv" in given:
        pmf = _validated("input.pmf_csv", pmf1d_from_csv, path=given["pmf_csv"])
        fit_range = fit_range or (_DEFAULT_T_LO, len(pmf.probs) - 1)
        slope, stderr = tail_slope_fit(pmf, fit_range)
        summary["fitted_slope"] = slope
        summary["fitted_slope_stderr"] = stderr
        summary["fit_range"] = list(fit_range)
    return {"tail_prediction.json": partial(_write_json, summary)}, {}


_RUNNERS = {"generate": _run_generate, "empirical": _run_empirical, "theory": _run_theory,
            "converge": _run_converge, "tailfit": _run_tailfit}


def dispatch(cfg: RunConfig, out_dir) -> None:
    """Run cfg's command; once it has computed everything, write its files
    and a manifest whose outputs name exactly those files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files, facts = _RUNNERS[cfg.command](cfg)
    for name, write in files.items():
        write(out_dir / name)
    _write_json({"config": cfg.record, "version": __version__,
                 "outputs": list(files), **facts}, out_dir / "manifest.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="superpose-net",
        description="Multilayer Bernoulli graph sampler and limit analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON config (or inline JSON)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument(
            "--threads", type=int, default=1,
            help="accepted for compatibility; must be >= 1 and changes nothing",
        )
    args = parser.parse_args(argv)

    try:
        if args.threads < 1:
            raise ConfigError("--threads", f"must be >= 1, got {args.threads}")
        dispatch(parse_config(args.config, command=args.command, seed=args.seed), args.out)
    except SuperposeError as exc:
        code, kind, message = *_EXITS.get(type(exc), (2, type(exc).__name__)), str(exc)
    except OSError as exc:
        code, kind, message = 4, "io", str(exc)
    else:
        return 0
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def run() -> None:
    """main() as a process: its output files are closed when it returns, so
    flush the standard streams and exit with its code, skipping interpreter
    teardown.  An exception out of main(), SystemExit included, exits as usual."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
