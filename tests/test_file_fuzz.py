"""Malformed input files end in a typed error, never in a traceback.

Each example takes a valid edge list (read by empirical) or a valid
pmf_csv (read by tailfit), applies one to three byte mutations (bytes
from a fixed pool inserted at any offset; a line deleted or repeated; a
key of the header line replaced) and runs cli.main on it in-process.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpose_net.cli import main

POOL = [b"\xff", b"\x00", b"\r", b"\t", b"#", b"-", b".", b"e", b"1" * 25, b"inf", b"nan"]
KEYS = [b"n", b"m", b"seed", b"s", b"t", b"prob", b"x", b""]

FILES = {
    "edge_list": (b"# superpose-net n=4 m=2 seed=0\n1 2\n2 3\n3 4\n", "empirical", {}),
    "pmf_csv": (b"s,prob\n" + b"".join(b"%d,0.1\n" % s for s in range(10, 20)) + b"# mass_defect=0.0\n",
                "tailfit", {"layer_distribution": {"family": "power_law", "alpha": 3, "beta": 0.5, "b": 1,
                                                   "x_min": 1, "x_max": 100},
                            "theory": {"mu": 1.0}}),
}


def mutate(body: bytes, data) -> bytes:
    kind = data.draw(st.sampled_from(["insert", "delete_line", "repeat_line", "header_key"]))
    lines = body.splitlines(keepends=True)
    if kind == "insert":
        at = data.draw(st.integers(0, len(body)))
        return body[:at] + data.draw(st.sampled_from(POOL)) + body[at:]
    if kind == "header_key":
        keys = list(re.finditer(rb"[a-z_]+", lines[0])) if lines else []
        if not keys:
            return body
        key = data.draw(st.sampled_from(keys))
        lines[0] = lines[0][: key.start()] + data.draw(st.sampled_from(KEYS)) + lines[0][key.end():]
    elif lines:
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = [] if kind == "delete_line" else [lines[i], lines[i]]
    return b"".join(lines)


@pytest.mark.parametrize("fmt", list(FILES))
@given(mutations=st.integers(1, 3), data=st.data())
@settings(max_examples=100, deadline=None)
def test_mutated_file_ends_in_a_typed_error(fmt, mutations, data):
    body, command, doc = FILES[fmt]
    for _ in range(mutations):
        body = mutate(body, data)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "input").write_bytes(body)
        doc = {**doc, "input": {fmt: str(work / "input")}}
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", json.dumps(doc), "--out", str(work / "out")])
        assert code in {0, 1, 2, 3, 4}
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert set(json.loads(lines[0])) == {"error", "message"}
