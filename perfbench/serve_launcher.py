"""Run ``repro-labels serve`` with the benchmark's tracing wrappers on.

    python3 perfbench/serve_launcher.py --spec freedman --trace-out T.json \
        serve labels.rls --mmap --port 0

Installs the library wrappers and the serve-layer wrappers
(:func:`perfbench.layers.install_server`), then calls the CLI's entry
point with the remaining arguments.  Each SIGUSR1 writes a mark
(:meth:`perfbench.tracing.Tracer.mark`) to ``T.json.mark1``,
``T.json.mark2``, ...; the spans and marks go to ``T.json`` when the
server exits.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import layers  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="scheme spec of the served index")
    parser.add_argument("--trace-out", required=True, help="JSON file for the spans")
    args, serve_args = parser.parse_known_args(argv)

    from repro import cli
    from repro.core.registry import make_scheme_from_spec

    tracer = Tracer()
    layers.install_library(tracer, type(make_scheme_from_spec(args.spec)))
    layers.install_server(tracer)
    marks: list[dict] = []

    def write_mark(signum, frame) -> None:
        marks.append(tracer.mark())
        path = f"{args.trace_out}.mark{len(marks)}"
        with open(path + ".tmp", "w") as handle:
            json.dump(marks[-1], handle)
        os.replace(path + ".tmp", path)

    signal.signal(signal.SIGUSR1, write_mark)
    try:
        return cli.main(serve_args)
    finally:
        tracer.uninstall()
        tracer.dump(args.trace_out, marks=marks)


if __name__ == "__main__":
    sys.exit(main())
