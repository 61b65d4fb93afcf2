"""Run one benchmark workload and print its result as a JSON last line.

    python3 perfbench/run.py --workload inproc-freedman-64k-uniform \
        --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout: the program under test is imported
from the checkout's ``src/``.  Scratch files (stores, trace dumps) go to
``.perfbench-run/`` at the checkout root.  ``--trace 0`` prints every
end-to-end metric, ``--trace 1`` every per-layer metric; both check every
answer against the tree-distance oracle.  The last line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the lines before it give the environment and, per metric, the unit,
the sample count and how the value was taken.  ``--n`` shrinks the tree
(the benchmark's own tests use it); the named workloads leave it unset.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=None, help="override the tree size")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program under test at {ROOT}/src/repro", file=sys.stderr)
        return 2
    # the checkout root and its src/ replace this script's own directory
    sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]
    workdir = os.path.join(ROOT, ".perfbench-run")
    os.makedirs(os.path.join(workdir, "tmp"), exist_ok=True)
    # the kernel build and anything else using a temporary directory stay
    # inside the checkout
    os.environ["TMPDIR"] = os.path.join(workdir, "tmp")

    from perfbench import measure

    allowed = sorted(os.sched_getaffinity(0))
    bench_cpu, server_cpu = measure.choose_cpus()
    measure.pin(0, bench_cpu)  # before any thread exists, so all inherit it

    from repro import kernels
    from repro.kernels import native

    native.ensure_built()
    selected = kernels.probe()["selected"]
    if selected != "native":
        print(f"error: kernel tier {selected!r} selected, not native", file=sys.stderr)
        return 3

    from perfbench import layers, workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    opts = workloads.Options(
        root=ROOT,
        workdir=workdir,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        n=args.n or workload.n,
        server_cpu=server_cpu,
    )
    result = workloads.run(workload, opts)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "n": opts.n,
        "cpu_count": os.cpu_count(),
        "allowed_cpus": allowed,
        "affinity": sorted(os.sched_getaffinity(0)),
        "bench_cpu": bench_cpu,
        "server_cpu": server_cpu if workload.mode == "serve" else None,
        "python": platform.python_version(),
        "kernel": selected,
    }
    print("env " + json.dumps(env, sort_keys=True))
    windows = result["windows"]
    for index, window in enumerate(windows):
        print(
            f"window {index}: {window.answered}/{window.attempted} pairs answered in "
            f"{window.seconds:.3f} s (x{window.host_factor:.4f} host-normalised), "
            f"failures {window.failures}, "
            f"wrong answers {window.wrong}"
        )
    metrics = {}
    if args.trace:
        for name, unit, _ in layers.PER_LAYER:
            value = float(result["per_layer"][name])
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<44} {value:>16.6f} {unit}")
    else:
        for name, (value, unit, samples, note) in result["end_to_end"].items():
            metrics[name] = {"value": float(value), "unit": unit}
            print(f"  {name:<24} {value:>16.6f} {unit:<5} samples={samples:<8} {note}")
    wrong = sum(window.wrong for window in windows)
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": sum(window.attempted for window in windows),
                "failed": sum(window.failed for window in windows),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
