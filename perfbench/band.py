"""Derive the assortativity band that the generate-two-atom check uses.

Samples the two-atom graph at the workload's size with the benchmark's own
numpy sampler over independent seeds and prints the mean and standard
deviation of the endpoint-degree assortativity, next to the limit 24/955.

    python3 perfbench/band.py --seeds 200
"""

from __future__ import annotations

import argparse
import statistics

import numpy as np

import refmodel
from workloads import GENERATE_N as N


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=200)
    args = parser.parse_args()
    values = []
    for seed in range(args.seeds):
        edges = refmodel.two_atom_edges(N, N, np.random.default_rng([seed, 0xBA7D]))
        _, x, y = refmodel.endpoint_degree_pairs(edges, N)
        values.append(float(np.corrcoef(x, y)[0, 1]))
    mean, sd = statistics.fmean(values), statistics.stdev(values)
    limit = refmodel.closed_form_assortativity(refmodel.TWO_ATOM, 1.0)
    print(f"seeds={args.seeds} n={N} limit={limit:.6f} mean={mean:.6f} sd={sd:.6f} "
          f"(mean-limit)/sd={(mean - limit) / sd:+.2f} "
          f"min={min(values):.6f} max={max(values):.6f}")


if __name__ == "__main__":
    main()
