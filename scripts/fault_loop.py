"""Median ms and minor page faults per op of an in-process optimal_msb loop.

Draws ten sets of the five GMM measures of gmm_mixtures.json at n points
each from one seed, runs three untimed warm-up ops, then `--ops` timed ops
cycling over the draws, and prints the median ms per op and this process's
minor page faults per op (resource.getrusage) over the timed ops.  BLAS
runs on one thread, as in the benchmark.

    PYTHONPATH=src python scripts/fault_loop.py --n 200 --eta 20 --seed 1 --ops 200
"""

import argparse
import json
import os
import resource
import statistics
import time
from pathlib import Path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--eta", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=200)
    args = parser.parse_args()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is first imported
    import numpy as np

    from bridgetree import SolverConfig, optimal_msb, sample_gmm

    spec = json.loads(Path(__file__).with_name("gmm_mixtures.json").read_text())
    mixtures = [[(c["mean"], c["std"], c["weight"]) for c in m["components"]]
                for m in spec["mixtures"]]
    rng = np.random.default_rng(args.seed)
    draws = [[sample_gmm(mix, args.n, spec["interval"], seed=rng) for mix in mixtures]
             for _ in range(10)]
    config = SolverConfig(eta=args.eta)
    for k in range(3):
        optimal_msb(draws[k], config)
    faults, times = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, []
    for k in range(args.ops):
        start = time.perf_counter()
        optimal_msb(draws[k % 10], config)
        times.append(time.perf_counter() - start)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    print(f"n={args.n} eta={args.eta} seed={args.seed} ops={args.ops}: "
          f"{statistics.median(times) * 1e3:.2f} ms/op median, "
          f"{faults / args.ops:.1f} minor faults/op")


if __name__ == "__main__":
    main()
