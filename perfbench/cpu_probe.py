"""Time the host-speed probe on one CPU until stdin closes.

    python3 perfbench/cpu_probe.py --interval 0.02

Prints ``ready`` once started, then runs :func:`perfbench.measure.probe`
every ``--interval`` seconds.  When its standard input closes it prints
the probe durations, in seconds, as one JSON list and exits.  The serve
workload pins it to the server's CPU, so that the server's time can be
host-normalised like the in-process workloads' time.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0:1] = [ROOT]

from perfbench import measure  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--interval", type=float, required=True)
    args = parser.parse_args(argv)
    durations = []
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], args.interval)[0]:
        durations.append(measure.probe())
    print(json.dumps(durations), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
