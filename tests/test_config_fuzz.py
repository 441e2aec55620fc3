"""Malformed configs end in a typed error, never in a traceback.

Each example takes a valid config of one command, applies one to three
mutations (a value from a fixed pool in place of a field, a list entry or
a whole section; a deleted key; an unknown key) and runs cli.main on it
in-process.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from superpose_net.cli import main

POOL = ["3", "", True, None, [], {}, 3.5, -1, 0, [10]]
# huge values go only where a range check or a memory budget refuses them
# before any work, so that a mutation cannot start a run of minutes
HUGE = [10**13, 10**19]
HUGE_FIELDS = [("model", "n"), ("model", "m"), ("study", "n_grid", 0),
               ("layer_distribution", "size"), ("layer_distribution", "atoms", 1, 0),
               ("layer_distribution", "x_max")]


def base_config(command, work):
    """A valid, quick config of command; its input files go into work."""
    if command == "generate":
        return {"command": "generate",
                "layer_distribution": {"family": "constant", "size": 3, "strength": 0.5},
                "model": {"n": 100, "m": 100, "seed": 7, "keep_layer_records": False}}
    if command == "empirical":
        (work / "g.edgelist").write_text("# superpose-net n=4 m=2 seed=0\n1 2\n2 3\n3 4\n")
        return {"command": "empirical", "input": {"edge_list": str(work / "g.edgelist")}}
    if command == "theory":
        return {"layer_distribution": {"family": "tabular", "atoms": [[2, 1.0, 0.5], [4, 0.5, 0.5]]},
                "theory": {"mu": 1.0, "tail_epsilon": 1e-10}}
    if command == "converge":
        return {"layer_distribution": {"family": "constant", "size": 3, "strength": 0.5},
                "study": {"mu": 1.0, "n_grid": [50, 100], "replications": 2, "seed": 3,
                          "metrics": ["tv1", "tv2", "assortativity"], "fit_range": [2, 10]}}
    (work / "pmf.csv").write_text("s,prob\n" + "".join(f"{s},0.1\n" for s in range(10, 20)))
    return {"layer_distribution": {"family": "power_law", "alpha": 3, "beta": 0.5, "b": 1,
                                   "x_min": 1, "x_max": 100},
            "theory": {"mu": 1.0}, "input": {"pmf_csv": str(work / "pmf.csv"), "fit_range": [10, 19]}}


def paths(node, prefix=()):
    """The path of every field, list entry and section below node."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def present(doc, path):
    """Whether path names an entry of an object or a list in doc."""
    try:
        parent = at(doc, path[:-1])
        parent[path[-1]]
    except (KeyError, IndexError, TypeError):
        return False
    return isinstance(parent, (dict, list))


def mutate(doc, data):
    pooled = st.sampled_from(POOL).map(copy.deepcopy)  # a later mutation may edit it in place
    kind = data.draw(st.sampled_from(["replace", "huge", "delete", "add"]))
    huge = [p for p in HUGE_FIELDS if present(doc, p)]
    if kind == "huge" and huge:
        path = data.draw(st.sampled_from(huge))
        at(doc, path[:-1])[path[-1]] = data.draw(st.sampled_from(HUGE))
    elif kind == "add":
        dicts = [()] + [p for p in paths(doc) if isinstance(at(doc, p), dict)]
        at(doc, data.draw(st.sampled_from(dicts)))["bogus"] = data.draw(pooled)
    elif kind == "delete":
        keys = [p for p in paths(doc) if isinstance(at(doc, p[:-1]), dict)]
        if keys:
            path = data.draw(st.sampled_from(keys))
            del at(doc, path[:-1])[path[-1]]
    else:
        everything = list(paths(doc))
        if everything:
            path = data.draw(st.sampled_from(everything))
            at(doc, path[:-1])[path[-1]] = data.draw(pooled)


@given(st.sampled_from(["generate", "empirical", "theory", "converge", "tailfit"]),
       st.integers(1, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_mutated_config_ends_in_a_typed_error(command, mutations, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        doc = base_config(command, work)
        for _ in range(mutations):
            mutate(doc, data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", json.dumps(doc), "--out", str(work / "out")])
        assert code in {0, 1, 2, 3, 4}
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert set(json.loads(lines[0])) == {"error", "message"}
