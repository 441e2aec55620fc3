"""Command-line front end.

Subcommands: generate, empirical, theory, converge, tailfit.  All inputs
come from a JSON config; every run writes a manifest sufficient to
reproduce it.  Exit codes: 1 config error, 2 degenerate statistic or
any other typed error (a rate underflow, an array over the memory budget),
3 hypothesis violation, 4 I/O error or an invalid edge-list file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
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
from .generate import GenConfig, generate_graph, read_edge_list, write_edge_list, write_layer_records
from .layers import LayerTypeDistribution
from .limits import LimitParams, limiting_assortativity, limiting_laws, limiting_moments, tail_prediction
from .pmf import FUNCTIONALS, functionals, pmf1d_from_csv, pmf1d_to_csv, pmf2d_to_csv, size_biased
from .stats import bidegree_distribution, degree_distribution
from .study import _DEFAULT_T_LO, StudySpec, checked_fit_range, run_study, tail_slope_fit

COMMANDS = ("generate", "empirical", "theory", "converge", "tailfit")
EXIT_CONFIG, EXIT_DEGENERATE, EXIT_HYPOTHESIS, EXIT_IO = 1, 2, 3, 4


@dataclass
class RunConfig:
    command: str
    layer_distribution: Optional[LayerTypeDistribution] = None
    model: dict = field(default_factory=dict)
    theory: dict = field(default_factory=dict)
    study: dict = field(default_factory=dict)
    input: dict = field(default_factory=dict)


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
# the sections and single fields each command reads; the others are checked
# for their fields, then dropped, so a manifest records only what a run read
_READS = {"generate": ("layer_distribution", "model"), "empirical": ("input",),
          "theory": ("layer_distribution", "theory"), "converge": ("layer_distribution", "study"),
          "tailfit": ("layer_distribution", "theory.mu", "input")}

# the fields each command needs ("a|b": one of the two); a
# layer_distribution needs every field of its family
_REQUIRED = {
    "generate": ("layer_distribution", "model.n", "model.m|mu", "model.seed"),
    "empirical": ("input.edge_list",),
    "theory": ("layer_distribution", "theory.mu"),
    "converge": ("layer_distribution", "study.mu", "study.n_grid", "study.replications", "study.seed"),
    "tailfit": ("layer_distribution", "theory.mu"),
}


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


def _check_document(raw: dict, cmd: str) -> None:
    """Check every section of raw against _FIELDS and the needs of cmd
    against _REQUIRED."""
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
    for need in _REQUIRED[cmd]:
        section, _, names = need.rpartition(".")
        if not any(name in (raw.get(section, {}) if section else raw) for name in names.split("|")):
            raise ConfigError(need, f"required for command {cmd!r}")
    if "m" in raw.get("model", {}) and "mu" in raw.get("model", {}):
        raise ConfigError("model.m", "give either m or mu, not both")
    if cmd == "tailfit" and raw["layer_distribution"]["family"] != "power_law":
        raise ConfigError("layer_distribution.family", "tailfit needs a power_law distribution")


def parse_config(source, command: Optional[str] = None) -> RunConfig:
    """Validate a JSON config into a RunConfig.  Text whose first non-blank
    character is { is the JSON itself; anything else is a file path."""
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
    _check_document(raw, cmd)

    reads = _READS[cmd]
    cfg = RunConfig(command=cmd, **{name: {k: v for k, v in raw.get(name, {}).items()
                                           if name in reads or f"{name}.{k}" in reads} for name in _SECTIONS})
    if "layer_distribution" in raw and "layer_distribution" in reads:
        args = dict(raw["layer_distribution"])
        build = getattr(LayerTypeDistribution, args.pop("family"))
        cfg.layer_distribution = _validated("layer_distribution", build, **args)
    return cfg


def serialize_config(cfg: RunConfig) -> dict:
    doc: dict = {"command": cfg.command}
    if cfg.layer_distribution is not None:
        d = cfg.layer_distribution
        if d.family == "tabular":
            doc["layer_distribution"] = {"family": "tabular", "atoms": [[x, y, p] for x, y, p in d.atoms()]}
        else:
            doc["layer_distribution"] = {"family": d.family, **d.params}
    for key in _SECTIONS:
        section = getattr(cfg, key)
        if section:
            doc[key] = section
    return doc


# -- dispatch --------------------------------------------------------------

def _validated(section: str, build, **kwargs):
    """build(**kwargs), reporting a ValueError from its checks as a
    ConfigError on the config section the values came from."""
    try:
        return build(**kwargs)
    except ValueError as exc:
        raise ConfigError(section, str(exc)) from None


def _manifest(cfg: RunConfig, out_dir: Path, outputs: list, extra: dict) -> None:
    doc = {"config": serialize_config(cfg), "version": __version__, "outputs": outputs, **extra}
    (out_dir / "manifest.json").write_text(json.dumps(doc, indent=2, default=float) + "\n")


def _run_generate(cfg: RunConfig, out_dir: Path) -> None:
    model = cfg.model
    gen = _validated(
        "model", GenConfig, n=model["n"], layers=model.get("m"), mu=model.get("mu"),
        seed=model["seed"], keep_layer_records=model.get("keep_layer_records", False),
    )
    g = generate_graph(gen, cfg.layer_distribution)
    outputs = []
    path = out_dir / "graph.edgelist"
    write_edge_list(g, path)
    outputs.append(path.name)
    if gen.keep_layer_records:
        rec = out_dir / "layers.jsonl"
        write_layer_records(g, rec)
        outputs.append(rec.name)
    _manifest(cfg, out_dir, outputs, {"seed": gen.seed, "n": g.n, "m": g.m, "edges": g.edge_count})


def _run_empirical(cfg: RunConfig, out_dir: Path) -> None:
    g = read_edge_list(cfg.input["edge_list"])
    f1 = degree_distribution(g)
    f2 = bidegree_distribution(g)
    outputs = []
    pmf1d_to_csv(f1, out_dir / "degree_pmf.csv")
    pmf1d_to_csv(size_biased(f1), out_dir / "size_biased_pmf.csv")
    pmf2d_to_csv(f2, out_dir / "bidegree_pmf.csv")
    outputs += ["degree_pmf.csv", "size_biased_pmf.csv", "bidegree_pmf.csv"]
    summary = {"n": g.n, "edges": g.edge_count, **functionals(f2, FUNCTIONALS)}
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, default=float) + "\n")
    outputs.append("summary.json")
    _manifest(cfg, out_dir, outputs, {"mass_defects": {"degree_pmf": 0.0, "bidegree_pmf": 0.0}})


def _run_theory(cfg: RunConfig, out_dir: Path) -> None:
    params = _validated("theory", LimitParams, dist=cfg.layer_distribution, **cfg.theory)
    f1, f2 = limiting_laws(params)
    # the limit's assortativity in closed form, its rank functionals from f2
    summary = {"assortativity": limiting_assortativity(params)}
    summary.update(functionals(f2, ("kendall", "spearman")))
    summary["moments"] = vars(limiting_moments(params))
    pmf1d_to_csv(f1, out_dir / "limiting_degree_pmf.csv")
    pmf2d_to_csv(f2, out_dir / "limiting_bidegree_pmf.csv")
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, default=float) + "\n")
    _manifest(
        cfg, out_dir,
        ["limiting_degree_pmf.csv", "limiting_bidegree_pmf.csv", "summary.json"],
        {"mass_defects": {"degree_pmf": f1.mass_defect, "bidegree_pmf": f2.mass_defect},
         "tail_epsilon": params.tail_epsilon},
    )


def _run_converge(cfg: RunConfig, out_dir: Path) -> None:
    spec = _validated("study", StudySpec, dist=cfg.layer_distribution, **cfg.study)
    report = run_study(spec)
    stem = f"study_seed{spec.seed}_{report.spec_hash}"
    report.to_csv(out_dir / f"{stem}.csv")
    report.to_json(out_dir / f"{stem}.json")
    _manifest(cfg, out_dir, [f"{stem}.csv", f"{stem}.json"], {"seed": spec.seed, "spec_hash": report.spec_hash})


def _run_tailfit(cfg: RunConfig, out_dir: Path) -> None:
    pred = _validated("theory", tail_prediction, mu=cfg.theory["mu"], dist=cfg.layer_distribution)
    summary = dict(vars(pred))
    fit_range = cfg.input.get("fit_range")
    if fit_range is not None:
        fit_range = _validated("input", checked_fit_range, fit_range=fit_range)
    if "pmf_csv" in cfg.input:
        pmf = _validated("input.pmf_csv", pmf1d_from_csv, path=cfg.input["pmf_csv"])
        fit_range = fit_range or (_DEFAULT_T_LO, len(pmf.probs) - 1)
        slope, stderr = tail_slope_fit(pmf, fit_range)
        summary["fitted_slope"] = slope
        summary["fitted_slope_stderr"] = stderr
        summary["fit_range"] = list(fit_range)
    (out_dir / "tail_prediction.json").write_text(json.dumps(summary, indent=2, default=float) + "\n")
    _manifest(cfg, out_dir, ["tail_prediction.json"], {})


_RUNNERS = {"generate": _run_generate, "empirical": _run_empirical, "theory": _run_theory,
            "converge": _run_converge, "tailfit": _run_tailfit}


def dispatch(cfg: RunConfig, out_dir, seed_override=None) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if seed_override is not None and cfg.command in ("generate", "converge"):
        (cfg.model if cfg.command == "generate" else cfg.study)["seed"] = seed_override
    _RUNNERS[cfg.command](cfg, out_dir)


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

    def fail(code, kind, message):
        print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
        return code

    try:
        if args.threads < 1:
            raise ConfigError("--threads", f"must be >= 1, got {args.threads}")
        dispatch(parse_config(args.config, command=args.command), args.out, seed_override=args.seed)
    except ConfigError as exc:
        return fail(EXIT_CONFIG, "config", str(exc))
    except (DegenerateMarginal, InsufficientSupport) as exc:
        return fail(EXIT_DEGENERATE, "degenerate", str(exc))
    except HypothesisViolation as exc:
        return fail(EXIT_HYPOTHESIS, "hypothesis", str(exc))
    except OSError as exc:
        return fail(EXIT_IO, "io", str(exc))
    except InvalidEdgeList as exc:
        return fail(EXIT_IO, "InvalidEdgeList", str(exc))
    except SuperposeError as exc:
        return fail(EXIT_DEGENERATE, type(exc).__name__, str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
