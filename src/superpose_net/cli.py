"""Command-line front end.

Subcommands: generate, empirical, theory, converge, tailfit.  All inputs
come from a JSON config; every run writes a manifest sufficient to
reproduce it.  Exit codes: 1 config error, 2 degenerate statistic or
any other typed error (a rate underflow, an over-budget limit law),
3 hypothesis violation, 4 I/O error or an invalid edge-list file.
"""

from __future__ import annotations

import argparse
import json
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
from .limits import (
    LimitParams,
    check_bidegree_budget,
    limiting_assortativity,
    limiting_bidegree_pmf,
    limiting_degree_pmf,
    limiting_moments,
    tail_prediction,
)
from .pmf import FUNCTIONALS, pmf1d_from_csv, pmf1d_to_csv, pmf2d_to_csv, size_biased
from .stats import bidegree_distribution, degree_distribution
from .study import DEFAULT_METRICS, StudySpec, run_study, tail_slope_fit

COMMANDS = ("generate", "empirical", "theory", "converge", "tailfit")
EXIT_CONFIG, EXIT_DEGENERATE, EXIT_HYPOTHESIS, EXIT_IO = 1, 2, 3, 4

_DEFAULT_TAIL_EPSILON = 1e-10


@dataclass
class RunConfig:
    command: str
    layer_distribution: Optional[LayerTypeDistribution] = None
    model: dict = field(default_factory=dict)
    theory: dict = field(default_factory=dict)
    study: dict = field(default_factory=dict)
    input: dict = field(default_factory=dict)


def _reject_unknown(section: dict, allowed: set, path: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", "unknown key")


def _parse_distribution(section, path="layer_distribution") -> LayerTypeDistribution:
    if not isinstance(section, dict):
        raise ConfigError(path, "must be an object")
    family = section.get("family")
    try:
        if family == "constant":
            _reject_unknown(section, {"family", "size", "strength"}, path)
            return LayerTypeDistribution.constant(section["size"], section["strength"])
        if family == "tabular":
            _reject_unknown(section, {"family", "atoms"}, path)
            return LayerTypeDistribution.tabular(section["atoms"])
        if family == "power_law":
            _reject_unknown(
                section, {"family", "alpha", "beta", "b", "x_min", "x_max"}, path
            )
            return LayerTypeDistribution.power_law(
                section["alpha"], section["beta"], section["b"],
                section["x_min"], section["x_max"],
            )
    except KeyError as exc:
        raise ConfigError(f"{path}.{exc.args[0]}", "missing required field")
    except ValueError as exc:
        field_name = "strength" if "strength" in str(exc) else "size" if "size" in str(exc) else family or path
        raise ConfigError(f"{path}.{field_name}", str(exc))
    raise ConfigError(f"{path}.family", f"must be one of constant/tabular/power_law, got {family!r}")


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
    except json.JSONDecodeError as exc:
        raise ConfigError("<document>", f"invalid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("<document>", "top level must be an object")

    _reject_unknown(
        raw,
        {"command", "layer_distribution", "model", "theory", "study", "input"},
        "<top>",
    )
    cmd = command or raw.get("command")
    if cmd not in COMMANDS:
        raise ConfigError("command", f"must be one of {COMMANDS}, got {cmd!r}")
    if command and "command" in raw and raw["command"] != command:
        raise ConfigError("command", f"config says {raw['command']!r} but {command!r} was invoked")

    cfg = RunConfig(command=cmd)

    if "layer_distribution" in raw:
        cfg.layer_distribution = _parse_distribution(raw["layer_distribution"])

    model = dict(raw.get("model", {}))
    _reject_unknown(model, {"n", "m", "mu", "seed", "keep_layer_records"}, "model")
    if "m" in model and "mu" in model:
        raise ConfigError("model.m", "give either m or mu, not both")
    cfg.model = model

    theory = dict(raw.get("theory", {}))
    _reject_unknown(theory, {"mu", "tail_epsilon"}, "theory")
    theory.setdefault("tail_epsilon", _DEFAULT_TAIL_EPSILON)
    cfg.theory = theory

    study = dict(raw.get("study", {}))
    _reject_unknown(
        study,
        {"mu", "n_grid", "replications", "seed", "metrics", "tail_epsilon", "fit_range"},
        "study",
    )
    cfg.study = study

    inp = dict(raw.get("input", {}))
    _reject_unknown(inp, {"edge_list", "pmf_csv", "fit_range"}, "input")
    cfg.input = inp

    _check_required(cfg)
    return cfg


def _check_required(cfg: RunConfig) -> None:
    need_dist = cfg.command in ("generate", "theory", "converge", "tailfit")
    if need_dist and cfg.layer_distribution is None:
        raise ConfigError("layer_distribution", f"required for command {cfg.command!r}")
    if cfg.command == "generate":
        for key in ("n", "seed"):
            if key not in cfg.model:
                raise ConfigError(f"model.{key}", "required for command 'generate'")
        if "m" not in cfg.model and "mu" not in cfg.model:
            raise ConfigError("model.m", "one of m / mu required")
    if cfg.command in ("theory", "tailfit") and "mu" not in cfg.theory:
        raise ConfigError("theory.mu", f"required for command {cfg.command!r}")
    if cfg.command == "converge":
        for key in ("mu", "n_grid", "replications", "seed"):
            if key not in cfg.study:
                raise ConfigError(f"study.{key}", "required for command 'converge'")
    if cfg.command == "empirical" and "edge_list" not in cfg.input:
        raise ConfigError("input.edge_list", "required for command 'empirical'")
    if cfg.command == "tailfit" and cfg.layer_distribution.family != "power_law":
        raise ConfigError("layer_distribution.family", "tailfit needs a power_law distribution")


def serialize_config(cfg: RunConfig) -> dict:
    doc: dict = {"command": cfg.command}
    if cfg.layer_distribution is not None:
        d = cfg.layer_distribution
        if d.family == "constant":
            doc["layer_distribution"] = {"family": "constant", **d.params}
        elif d.family == "power_law":
            doc["layer_distribution"] = {"family": "power_law", **d.params}
        else:
            doc["layer_distribution"] = {
                "family": "tabular",
                "atoms": [[x, y, p] for x, y, p in d.atoms()],
            }
    for key in ("model", "theory", "study", "input"):
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
    doc = {
        "config": serialize_config(cfg),
        "version": __version__,
        "outputs": outputs,
        **extra,
    }
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
    summary = {"n": g.n, "edges": g.edge_count}
    for name, fn in FUNCTIONALS.items():
        try:
            summary[name] = fn(f2)
        except DegenerateMarginal as exc:
            summary[name] = None
            summary[f"{name}_degenerate"] = str(exc)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, default=float) + "\n")
    outputs.append("summary.json")
    _manifest(cfg, out_dir, outputs, {"mass_defects": {"degree_pmf": 0.0, "bidegree_pmf": 0.0}})


def _run_theory(cfg: RunConfig, out_dir: Path) -> None:
    params = _validated(
        "theory", LimitParams, mu=cfg.theory["mu"], dist=cfg.layer_distribution,
        tail_epsilon=cfg.theory["tail_epsilon"],
    )
    check_bidegree_budget(params)  # before the degree law, which can take seconds
    f1 = limiting_degree_pmf(params)
    f2 = limiting_bidegree_pmf(params, f1)
    pmf1d_to_csv(f1, out_dir / "limiting_degree_pmf.csv")
    pmf2d_to_csv(f2, out_dir / "limiting_bidegree_pmf.csv")
    # the limit's assortativity in closed form, its rank functionals from f2
    summary = {"assortativity": limiting_assortativity(params)}
    summary.update((name, fn(f2)) for name, fn in FUNCTIONALS.items() if name != "assortativity")
    summary["moments"] = vars(limiting_moments(params))
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, default=float) + "\n")
    _manifest(
        cfg, out_dir,
        ["limiting_degree_pmf.csv", "limiting_bidegree_pmf.csv", "summary.json"],
        {"mass_defects": {"degree_pmf": f1.mass_defect, "bidegree_pmf": f2.mass_defect}},
    )


def _run_converge(cfg: RunConfig, out_dir: Path) -> None:
    study = cfg.study
    spec = _validated(
        "study", StudySpec,
        dist=cfg.layer_distribution,
        mu=study["mu"],
        n_grid=tuple(study["n_grid"]),
        replications=study["replications"],
        seed=study["seed"],
        metrics=tuple(study.get("metrics", DEFAULT_METRICS)),
        tail_epsilon=study.get("tail_epsilon", _DEFAULT_TAIL_EPSILON),
        fit_range=tuple(study["fit_range"]) if study.get("fit_range") else None,
    )
    report = run_study(spec)
    stem = f"study_seed{spec.seed}_{report.spec_hash}"
    report.to_csv(out_dir / f"{stem}.csv")
    report.to_json(out_dir / f"{stem}.json")
    _manifest(cfg, out_dir, [f"{stem}.csv", f"{stem}.json"], {"seed": spec.seed, "spec_hash": report.spec_hash})


def _run_tailfit(cfg: RunConfig, out_dir: Path) -> None:
    p = cfg.layer_distribution.params
    pred = _validated(
        "theory", tail_prediction, alpha=p["alpha"], beta=p["beta"], b=p["b"],
        mu=cfg.theory["mu"], dist=cfg.layer_distribution,
    )
    summary = dict(vars(pred))
    if "pmf_csv" in cfg.input:
        pmf = _validated("input.pmf_csv", pmf1d_from_csv, path=cfg.input["pmf_csv"])
        fit_range = tuple(cfg.input.get("fit_range", (10, pmf.support_max)))
        slope, stderr = tail_slope_fit(pmf, fit_range)
        summary["fitted_slope"] = slope
        summary["fitted_slope_stderr"] = stderr
        summary["fit_range"] = list(fit_range)
    (out_dir / "tail_prediction.json").write_text(json.dumps(summary, indent=2, default=float) + "\n")
    _manifest(cfg, out_dir, ["tail_prediction.json"], {})


def dispatch(cfg: RunConfig, out_dir, seed_override=None) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if seed_override is not None:
        if cfg.command == "generate":
            cfg.model["seed"] = seed_override
        elif cfg.command == "converge":
            cfg.study["seed"] = seed_override
    if cfg.command == "generate":
        _run_generate(cfg, out_dir)
    elif cfg.command == "empirical":
        _run_empirical(cfg, out_dir)
    elif cfg.command == "theory":
        _run_theory(cfg, out_dir)
    elif cfg.command == "converge":
        _run_converge(cfg, out_dir)
    elif cfg.command == "tailfit":
        _run_tailfit(cfg, out_dir)


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
        cfg = parse_config(args.config, command=args.command)
    except ConfigError as exc:
        return fail(EXIT_CONFIG, "config", str(exc))
    try:
        dispatch(cfg, args.out, seed_override=args.seed)
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
