"""Measure the memory an opened index holds, in a fresh process.

    python3 perfbench/memory.py --workload inproc-kdist-64k-zipf-single \
        --seed 1 --n 65536 --path index.rls

Opens the saved index with ``DistanceIndex.open(path, mmap=True)``, answers
the workload's warm-up pairs once (``batch`` calls of 1024 pairs, or one
``query`` per pair), and prints as its last line
``{"rss_growth_bytes": ...}``: the growth of VmRSS from just before the
open to just after the last answer.  The kernel tier is loaded before the
first reading, as in the benchmark process.  A fresh interpreter starts from the
same heap every run.  The benchmark process has generated and encoded
trees before it opens an index, and how much of that freed memory the
index then reuses varies from run to run by more than the index needs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import measure, workloads  # noqa: E402
from repro import kernels  # noqa: E402
from repro.api import DistanceIndex  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--path", required=True)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    us, vs = workloads.warm_pool(workload, args.n, args.seed)
    pairs = list(zip(us, vs))
    # the kernel tier's modules load here, as in the benchmark process,
    # so that the growth below is the index's and not an import's
    kernels.probe()
    measure.release_free_memory()
    before = measure.proc_rss_bytes()
    index = DistanceIndex.open(args.path, mmap=True)
    if workload.mode == "batch":
        step = workloads.BATCH_PAIRS
        for base in range(0, len(pairs), step):
            index.batch(pairs[base : base + step], raw=True)
    else:
        query = index.query
        for u, v in pairs:
            query(u, v)
    print(json.dumps({"rss_growth_bytes": measure.proc_rss_bytes() - before}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
