"""The repository benchmark: in-process and loopback distance queries.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` builds an index from a seeded tree, times one closed-loop
workload against it through the public API, checks every answer against
:class:`repro.oracles.exact_oracle.TreeDistanceOracle`, and prints one JSON
result line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs an untraced and a traced window and reports per-layer metrics.

Modules:

- :mod:`perfbench.measure` — percentiles, ``/proc`` readers, CPU pinning
  and the host-speed probe that normalises times;
- :mod:`perfbench.tracing` — in-memory spans around public entry points
  and the self-time arithmetic over them;
- :mod:`perfbench.layers` — which entry points belong to which layer, and
  the per-layer metrics derived from a trace;
- :mod:`perfbench.workloads` — the three named workloads;
- ``serve_launcher.py`` — starts ``repro-labels serve`` with the tracing
  wrappers installed, for the traced serve run;
- ``cpu_probe.py`` — times the host-speed probe on the server's CPU;
- ``memory.py`` — measures an opened index's memory in a fresh process.
"""
