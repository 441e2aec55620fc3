"""Benchmark of the superpose-net CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds src/superpose_net.  Every
CLI invocation is a fresh interpreter (python -m superpose_net.cli with
src on PYTHONPATH).  The run builds the workload's inputs from --seed,
times set-up, then runs the CLI back to back for about --seconds (at least
once; it stops where the next invocation would end further past --seconds
than it now stands short of it) and checks the output.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

--trace 0 reports the end-to-end metrics:
  wall_s       spawn to exit of the CLI process, mean over the run
  setup_s      spawn to exit of an interpreter that imports
               superpose_net.cli and parses the config, no dispatch;
               median of three
  cpu_s        user + system CPU of the CLI process (os.wait4), mean
  peak_rss_mb  peak resident set of the CLI process (os.wait4), median
The timings are means, not medians, because a run holds only two to four
invocations: their mean covers the whole run, where a median would be one
invocation (README.md, "Bounds and run length").
Every timed invocation runs with --threads 1.
--trace 1 also runs the CLI once under the span tracer (traced_cli.py) and
once more, untraced, with --threads 2, whose data files must equal those of
the timed runs; it reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import CheckFailed
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"
TRACES = BENCH / "traces"

SETUP_REPEATS = 3
CLI_TIMEOUT_S = 150
SETUP_CODE = (
    "import sys; from superpose_net.cli import parse_config; "
    "parse_config(sys.argv[1], command=sys.argv[2])"
)


@dataclass(frozen=True)
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # an installed package has its bytecode cached; let the warm-up write it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # one BLAS thread: the only parallelism measured is the CLI's own --threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv, env, log: Path) -> Sample:
    """Run argv to completion; wall time from spawn to exit, usage from wait4."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode)


def data_digest(out: Path) -> dict:
    """sha256 of every output file except the manifest, which may carry timings."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir()) if p.name != "manifest.json"
    }


def cli_argv(command: str, config: Path, out: Path, threads: int = 1) -> list:
    return [sys.executable, "-m", "superpose_net.cli", command,
            "--config", str(config), "--out", str(out), "--threads", str(threads)]


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    env, log = child_env(), work / "stderr.log"
    prepared = workload.prepare(work, seed)
    config = work / "config.json"
    config.write_text(json.dumps(prepared.config))

    # the first interpreter fills the bytecode cache and is not timed
    setup_argv = [sys.executable, "-c", SETUP_CODE, str(config), workload.command]
    setups = [spawn(setup_argv, env, log) for _ in range(1 + (0 if trace else SETUP_REPEATS))]
    if any(s.code for s in setups):
        raise SystemExit(f"set-up interpreter failed; see {log}:\n{log.read_text()[-2000:]}")

    problems = []
    checked, out = work / "checked", work / "out"
    samples, first = [], None
    start = time.perf_counter()

    def another() -> bool:
        # one more invocation if it would end nearer to --seconds than now
        if not samples:
            return True
        typical = statistics.median(s.wall_s for s in samples)
        return time.perf_counter() - start + typical / 2 < seconds

    while another():
        shutil.rmtree(out, ignore_errors=True)
        sample = spawn(cli_argv(workload.command, config, out), env, log)
        samples.append(sample)
        if sample.code:
            continue
        if first is None:
            first = data_digest(out)
            out.rename(checked)
        elif data_digest(out) != first:
            problems.append("two invocations with the same input wrote different outputs")

    extra, traced_out, threads2_out = [], work / "traced", work / "threads2"
    if trace:
        spans_path = TRACES / f"{workload.name}.spans.npz"
        summary_path = work / "trace.json"
        TRACES.mkdir(exist_ok=True)
        traced = spawn([sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), str(summary_path), "--",
                        *cli_argv(workload.command, config, traced_out)[3:]], env, log)
        # --threads promises unchanged results; the timed runs use one thread
        threads2 = spawn(cli_argv(workload.command, config, threads2_out, threads=2), env, log)
        if first is not None and not threads2.code and data_digest(threads2_out) != first:
            problems.append("--threads 2 wrote different data files than --threads 1")
        extra = [traced, threads2]
    ops = samples + extra
    failed = sum(1 for s in ops if s.code)
    if failed:
        print(f"{failed} CLI invocations exited non-zero:\n{log.read_text()[-2000:]}", file=sys.stderr)

    if first is None:
        problems.append("no CLI invocation succeeded, so nothing was checked")
    else:
        try:
            prepared.check(checked)
        except CheckFailed as exc:
            problems.append(f"check failed: {exc}")

    wall = statistics.fmean(s.wall_s for s in samples)
    if not trace:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(s.wall_s for s in setups[1:]), "s"),
            "cpu_s": (statistics.fmean(s.cpu_s for s in samples), "s"),
            "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in samples), "MB"),
        }
    else:
        metrics = {}
        if not any(s.code for s in extra):
            functions = json.loads(summary_path.read_text())["functions"]
            for name, (self_s, calls) in functions.items():
                metrics[f"{name}.self_s"] = (self_s, "s")
                metrics[f"{name}.calls"] = (calls, "count")
            edge_file = Path(prepared.config.get("input", {}).get("edge_list") or traced_out / "graph.edgelist")
            metrics["generate.edge_file_bytes"] = (edge_file.stat().st_size if edge_file.exists() else 0, "bytes")
            metrics["cli.output_bytes"] = (sum(p.stat().st_size for p in traced_out.iterdir()), "bytes")
            metrics["cli.threads2_wall_s"] = (threads2.wall_s, "s")
            metrics["trace.overhead_s"] = (traced.wall_s - wall, "s")

    for problem in problems:
        print(f"{workload.name}: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "superpose_net" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'superpose_net' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    work = RUNS / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
