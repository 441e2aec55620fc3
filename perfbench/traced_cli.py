"""Run one CLI command in this process with every TRACED function wrapped.

    python3 perfbench/traced_cli.py SPANS.npz SUMMARY.json -- <cli arguments>

Writes the spans to SPANS.npz and {"exit": code, "functions": {metric:
[self_s, calls]}} to SUMMARY.json.  The package is imported from
PYTHONPATH, as in an untraced run.
"""

from __future__ import annotations

import json
import sys

import tracing


def main(argv) -> int:
    spans_path, summary_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit(__doc__)
    from superpose_net import cli

    tracer = tracing.Tracer()
    tracer.install(tracing.package_modules("superpose_net"))
    code = cli.main(cli_args)
    tracer.save(spans_path)
    with open(summary_path, "w") as fh:
        json.dump({"exit": code, "functions": tracer.summary()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
