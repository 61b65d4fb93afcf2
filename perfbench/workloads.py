"""The three named workloads: set-up, timed window and answer checks.

Every workload is a closed loop driven from this one process, pinned to
one CPU; the serve workload's server runs as a subprocess pinned to
another.  A run sets up :data:`SETUP_REPEATS` times (tree generation,
encode, save, open — plus server spawn and connect for serve) and reports
the median as ``setup_s``.  The in-process workloads warm up and time a
window of ``seconds / SETUP_REPEATS`` after each set-up; the serve
workload warms up and times one window of ``seconds`` against the last
server.  Every answer a window returned is then checked against
:class:`~repro.oracles.exact_oracle.TreeDistanceOracle`.

Reported times are host-normalised: every :data:`perfbench.measure.SEGMENT_S`
a window times a short fixed reference loop on each CPU it uses
(``perfbench/cpu_probe.py`` on the server's), and a set-up is bracketed by
bursts of it; wall times are scaled by the reference's nominal over its
mean duration (:func:`perfbench.measure.host_factor`).  The report prints
the wall-clock figures next to the normalised ones.  ``rss_mb`` of the
in-process workloads comes from a fresh process (``perfbench/memory.py``).

A traced run (``trace=True``) sets up once with the tracing wrappers on,
times an untraced window and a traced window of ``seconds / 2`` each, and
reports per-layer metrics (:mod:`perfbench.layers`).
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import math
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field

from perfbench import layers, measure
from perfbench.tracing import Tracer, rebase, window_totals
from repro.api import DistanceIndex
from repro.core.registry import make_scheme_from_spec
from repro.generators import workloads as generators
from repro.obs.hist import Histogram
from repro.oracles.exact_oracle import TreeDistanceOracle
from repro.serve.client import AsyncLabelClient, ServerBusy, ServerError

SETUP_REPEATS = 3
#: pairs per ``DistanceIndex.batch`` call on the batch workload
BATCH_PAIRS = 1024
#: client connections and QUERY requests kept outstanding on each
CONNECTIONS = 2
OUTSTANDING = 64
ZIPF_SKEW = 1.1
#: pairs in the warm-up pool
WARM_PAIRS = 1 << 14
#: longest warm-up before a timed window
WARMUP_S = 0.5
#: a serve request still unanswered this long after the window is a timeout
HANG_S = 10.0
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 15.0

_READY = re.compile(r"^serving .* on (\S+):(\d+) \[")


@dataclass(frozen=True)
class Workload:
    """One named workload: what is built, and how it is driven."""

    name: str
    spec: str
    n: int
    pairs: str  #: ``uniform`` or ``zipf``
    mode: str  #: ``batch``, ``single`` or ``serve``
    #: a generous pairs/s ceiling, used only to size the pair pool
    max_rate: int


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("inproc-freedman-64k-uniform", "freedman", 65536, "uniform", "batch", 30_000),
        Workload("inproc-kdist-64k-zipf-single", "k-distance:k=4", 65536, "zipf", "single", 60_000),
        Workload("serve-freedman-4k-pipelined", "freedman", 4096, "uniform", "serve", 100_000),
    )
}


@dataclass
class Options:
    """Everything a run needs besides the workload."""

    root: str  #: checkout root (holds ``src/``)
    workdir: str  #: scratch directory inside the checkout
    seed: int
    seconds: float
    trace: bool
    n: int
    server_cpu: int


@dataclass
class Window:
    """What one timed window did and returned."""

    #: wall seconds of the timed work (host-speed probes excluded)
    seconds: float = 0.0
    #: CPU seconds of the answering process over the timed work
    cpu_seconds: float = 0.0
    attempted: int = 0
    answered: int = 0
    #: seconds per call, in the order the calls ended
    latencies: array | memoryview = field(default_factory=lambda: array("d"))
    #: host-speed probes (seconds each) timed on the benchmark's CPU during
    #: the window, and for serve on the server's CPU
    probes: array = field(default_factory=lambda: array("d"))
    server_probes: array | None = None
    #: in-process windows: calls recorded when each probe ran
    probe_calls: array = field(default_factory=lambda: array("q"))
    #: failed operations by reason (busy, error, disconnect, timeout, ...)
    failures: dict = field(default_factory=dict)
    #: ``(us, vs, answers)``: ``answers`` yields ``(op, answer)`` for each
    #: answered operation ``op``, whose pair is slot ``op % len(us)``
    answers: tuple = ()
    wrong: int = 0

    def fail(self, reason: str, count: int = 1) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + count

    @property
    def failed(self) -> int:
        return sum(self.failures.values()) + self.wrong

    @property
    def host_factor(self) -> float:
        """Multiplier that host-normalises a wall time of this window.

        A serve round trip runs on both CPUs, so there it is the geometric
        mean of the two CPUs' factors (:func:`perfbench.measure.host_factor`).
        """
        factor = measure.host_factor(self.probes)
        if self.server_probes:
            factor = math.sqrt(factor * measure.host_factor(self.server_probes))
        return factor

    def host_latencies(self) -> array:
        """Per-call latencies, host-normalised.

        In-process, a call is scaled by the probes run just before and just
        after it (a latency is local, and the host's speed drifts within a
        window); serve calls are scaled by the window's factor.
        """
        latencies = self.latencies
        if not self.probe_calls:
            factor = self.host_factor
            return array("d", (latency * factor for latency in latencies))
        out = array("d")
        probes, marks = self.probes, self.probe_calls
        for index, start in enumerate(marks):
            stop = marks[index + 1] if index + 1 < len(marks) else len(latencies)
            after = probes[index + 1] if index + 1 < len(probes) else probes[index]
            factor = 2 * measure.PROBE_NOMINAL_S / (probes[index] + after)
            out.extend(latency * factor for latency in latencies[start:stop])
        return out

    @property
    def pairs_per_s(self) -> float:
        """Pairs per host-normalised second."""
        seconds = self.seconds * self.host_factor
        return self.answered / seconds if seconds > 0 else 0.0


class _Prober:
    """Runs a host-speed probe every ``SEGMENT_S`` between closed-loop calls
    and keeps the time it takes out of the window."""

    def __init__(self, window: Window) -> None:
        self.probes = window.probes
        self.calls = window.probe_calls
        self.seconds = self.cpu = 0.0
        self.due = 0.0

    def __call__(self, now: float, recorded: int) -> None:
        """Probe if one is due; ``recorded`` calls have ended by ``now``."""
        if now < self.due:
            return
        cpu = time.process_time()
        self.calls.append(recorded)
        self.probes.append(measure.probe())
        self.cpu += time.process_time() - cpu
        end = time.perf_counter()
        self.seconds += end - now
        self.due = end + measure.SEGMENT_S


# -- inputs ---------------------------------------------------------------------


def pair_pool(workload: Workload, n: int, seed: int, count: int, stream: str):
    """``(us, vs)`` arrays of ``count`` seeded pairs from the workload's mix."""
    rng = random.Random(f"perfbench/{workload.name}/{seed}/{stream}")
    if workload.pairs == "zipf":
        pairs = generators.zipf_pairs(n, count, skew=ZIPF_SKEW, seed=rng)
    else:
        pairs = generators.uniform_pairs(n, count, rng)
    us = array("i", [u for u, _ in pairs])
    vs = array("i", [v for _, v in pairs])
    return us, vs


def warm_pool(workload: Workload, n: int, seed: int):
    """The warm-up pairs: a seeded stream of their own, ``WARM_PAIRS`` long."""
    return pair_pool(workload, n, seed, WARM_PAIRS, "warm-up")


def pool_size(workload: Workload, seconds: float) -> int:
    """A power of two covering ``max_rate * seconds`` pairs."""
    want = max(BATCH_PAIRS * 4, int(workload.max_rate * seconds))
    return 1 << (want - 1).bit_length()


def expected_answer(oracle, bound):
    """The answer checker: exact distance, or ``None`` beyond ``bound``."""
    distance = oracle.distance
    if bound is None:
        return distance
    return lambda u, v: None if (d := distance(u, v)) > bound else d


def check_window(window: Window, oracle, bound) -> None:
    """Compare every recorded answer with the oracle; count wrong ones."""
    expect = expected_answer(oracle, bound)
    us, vs, answers = window.answers
    mask = len(us) - 1
    for op, got in answers:
        slot = op & mask
        if got != expect(us[slot], vs[slot]):
            window.wrong += 1


def _recorded(values, overflow, count, skip):
    """``(op, answer)`` for ops ``0..count-1`` not in ``skip``."""
    size = len(values)
    for op in range(count):
        if op in skip:
            continue
        yield op, values[op] if op < size else overflow[op]


# -- in-process workloads ----------------------------------------------------------


def tree_seed(seed: int, repeat: int) -> int:
    """The tree an in-process run builds in its ``repeat``-th set-up.

    Each set-up builds a tree of its own, so that a run's metrics average
    over :data:`SETUP_REPEATS` trees: label sizes, and with them parse
    costs, differ from one random tree to the next by several percent.
    """
    return seed * SETUP_REPEATS + repeat


def setup_index(workload: Workload, opts: Options, path: str, repeat: int):
    """One set-up: generate, encode, save and open the index.

    Returns ``(seconds, index)``.
    """
    start = time.perf_counter()
    tree = generators.make_tree("random", opts.n, tree_seed(opts.seed, repeat))
    built = DistanceIndex.build(tree, workload.spec)
    built.save(path)
    del built, tree
    index = DistanceIndex.open(path, mmap=True)
    return time.perf_counter() - start, index


def index_memory(workload: Workload, opts: Options, path: str) -> int:
    """VmRSS growth of a fresh process that opens ``path`` and answers the
    warm-up pairs (``perfbench/memory.py``)."""
    argv = [
        sys.executable, os.path.join(opts.root, "perfbench", "memory.py"),
        "--workload", workload.name, "--seed", str(opts.seed),
        "--n", str(opts.n), "--path", path,
    ]
    # a fixed hash seed lays out the child's dicts the same way every run
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        argv, cwd=opts.root, env=env, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        raise RuntimeError(f"memory probe failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["rss_growth_bytes"]


def buffers(mode: str, size: int):
    """``(answers, latencies)`` storage for a window over ``size`` pairs."""
    if mode == "batch":
        return array("q", bytes(8 * size)), array("d", bytes(8 * (size // BATCH_PAIRS)))
    return [None] * size, array("d", bytes(8 * size))


def batch_window(index, us, vs, seconds: float, storage) -> Window:
    """Closed loop of ``index.batch(pairs, raw=True)``, 1024 pairs a call."""
    window = Window()
    calls_cap = len(us) // BATCH_PAIRS
    flat, latencies = storage
    overflow: dict[int, list] = {}
    failed: set[int] = set()
    batch = index.batch
    clock = time.perf_counter
    prober = _Prober(window)
    calls = recorded = 0
    cpu_start = time.process_time()
    start = end = clock()
    deadline = start + seconds
    while end < deadline:
        prober(end, recorded)
        base = (calls % calls_cap) * BATCH_PAIRS
        chunk = list(zip(us[base : base + BATCH_PAIRS], vs[base : base + BATCH_PAIRS]))
        began = clock()
        try:
            answers = batch(chunk, raw=True)
        except Exception as error:  # keep timing; the failure is reported
            end = clock()
            window.fail(type(error).__name__, BATCH_PAIRS)
            failed.add(calls)
            calls += 1
            continue
        end = clock()
        if recorded < calls_cap:
            latencies[recorded] = end - began
        else:
            latencies.append(end - began)
        recorded += 1
        if calls < calls_cap:
            flat[base : base + BATCH_PAIRS] = array("q", answers)
        else:
            overflow[calls] = answers
        calls += 1
    window.cpu_seconds = time.process_time() - cpu_start - prober.cpu
    # a view, not a copy: the storage is reused and was allocated up front
    window.latencies = memoryview(latencies)[:recorded]
    window.seconds = end - start - prober.seconds
    window.attempted = calls * BATCH_PAIRS
    window.answered = recorded * BATCH_PAIRS

    def answers():
        for call in range(calls):
            if call in failed:
                continue
            got = overflow.get(call)
            base = (call % calls_cap) * BATCH_PAIRS
            for offset in range(BATCH_PAIRS):
                value = flat[base + offset] if got is None else got[offset]
                yield call * BATCH_PAIRS + offset, value

    window.answers = (us, vs, answers())
    return window


def single_window(index, us, vs, seconds: float, storage) -> Window:
    """Closed loop of ``index.query(u, v)`` (a typed result), one pair a call."""
    window = Window()
    size = len(us)
    mask = size - 1
    values, latencies = storage
    overflow: dict[int, object] = {}
    failed: set[int] = set()
    query = index.query
    clock = time.perf_counter
    prober = _Prober(window)
    op = recorded = 0
    cpu_start = time.process_time()
    start = end = clock()
    deadline = start + seconds
    while end < deadline:
        prober(end, recorded)
        slot = op & mask
        began = clock()
        try:
            result = query(us[slot], vs[slot])
        except Exception as error:  # keep timing; the failure is reported
            end = clock()
            window.fail(type(error).__name__)
            failed.add(op)
            op += 1
            continue
        end = clock()
        if recorded < size:
            latencies[recorded] = end - began
        else:
            latencies.append(end - began)
        recorded += 1
        if op < size:
            values[op] = result.value
        else:
            overflow[op] = result.value
        op += 1
    window.cpu_seconds = time.process_time() - cpu_start - prober.cpu
    # a view, not a copy: the storage is reused and was allocated up front
    window.latencies = memoryview(latencies)[:recorded]
    window.seconds = end - start - prober.seconds
    window.attempted = op
    window.answered = recorded
    window.answers = (us, vs, _recorded(values, overflow, op, failed))
    return window


def run_inprocess(workload: Workload, opts: Options) -> dict:
    """Set up, time and check one in-process workload.

    An untraced run times a window of ``seconds / SETUP_REPEATS`` after
    each of its set-ups, each over a tree of its own (:func:`tree_seed`),
    so the timed work is spread over the whole run and over several trees.
    A traced run sets up once.
    """
    repeats = 1 if opts.trace else SETUP_REPEATS
    seconds = opts.seconds / (2 if opts.trace else SETUP_REPEATS)
    us, vs = pair_pool(workload, opts.n, opts.seed, pool_size(workload, seconds), "timed")
    warm_us, warm_vs = warm_pool(workload, opts.n, opts.seed)
    drive = batch_window if workload.mode == "batch" else single_window
    warm_storage = buffers(workload.mode, len(warm_us))
    storage = [buffers(workload.mode, len(us)) for _ in range(max(repeats, 2))]
    scheme_cls = type(make_scheme_from_spec(workload.spec))

    tracer = Tracer()
    if opts.trace:
        layers.install_library(tracer, scheme_cls)
    paths = []
    setup_times = []
    sizes = []
    windows = []
    for repeat in range(repeats):
        index = None  # release the previous repeat first
        paths.append(os.path.join(opts.workdir, f"{workload.name}-{opts.seed}-{repeat}.rls"))
        probes = measure.probe_burst()
        elapsed, index = setup_index(workload, opts, paths[-1], repeat)
        setup_times.append((elapsed, measure.host_factor(probes + measure.probe_burst())))
        sizes.append(index.stats())
        setup_mark = tracer.mark()
        tracer.uninstall()
        gc.collect()
        gc.freeze()  # the benchmark's own inputs stay out of the collector's scans
        try:
            drive(index, warm_us, warm_vs, min(WARMUP_S, seconds / 4), warm_storage)
            windows.append(drive(index, us, vs, seconds, storage[repeat]))
            if opts.trace:
                cache_before = index.stats()["cache"]
                layers.install_library(tracer, scheme_cls)
                first = tracer.mark()
                traced = drive(index, us, vs, seconds, storage[1])
                last = tracer.mark()
                tracer.uninstall()
                cache_after = index.stats()["cache"]
        finally:
            gc.unfreeze()

    bound = index.scheme.k if index.kind == "bounded" else None
    for repeat, window in enumerate(windows):
        tree = generators.make_tree("random", opts.n, tree_seed(opts.seed, repeat))
        oracle = TreeDistanceOracle(tree)
        check_window(window, oracle, bound)
    index = None
    rss = None if opts.trace else index_memory(workload, opts, paths[-1])
    for path in paths:
        os.remove(path)
    if not opts.trace:
        answered = sum(window.answered for window in windows)
        cpu = sum(window.cpu_seconds * window.host_factor for window in windows)
        return {
            "windows": windows,
            "end_to_end": _end_to_end(
                windows,
                setup_times,
                cpu_us_per_pair=cpu * 1e6 / max(answered, 1),
                rss=(rss, "VmRSS growth of a fresh process from before open to "
                     f"after {WARM_PAIRS} warm-up pairs"),
                stats={
                    "n": sum(size["n"] for size in sizes),
                    "file_bytes": sum(size["file_bytes"] for size in sizes),
                    "max_label_bits": max(size["max_label_bits"] for size in sizes),
                },
            ),
        }

    check_window(traced, oracle, bound)
    tracer.dump(
        os.path.join(opts.workdir, f"trace-{workload.name}-{opts.seed}.json"),
        marks=[setup_mark, first, last],
    )
    metrics = layers.setup_metrics(
        window_totals(rebase(tracer.spans, 0, setup_mark["spans"]), layers.EMPTY_MARK, setup_mark)
    )
    metrics.update(
        layers.layer_metrics(
            window_totals(rebase(tracer.spans, first["spans"], last["spans"]), first, last),
            pairs=traced.answered,
            window_ns=round(traced.seconds * 1e9),  # without the probes
            cache=_cache_delta(cache_before, cache_after),
        )
    )
    metrics.update(
        (name, 0.0) for name, _, _ in layers.PER_LAYER if name.startswith("serve.")
    )
    metrics["trace.overhead_share"] = _overhead(windows[0], traced)
    return {"windows": [*windows, traced], "per_layer": metrics}


def _cache_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key] for key in ("hits", "misses")}


def _overhead(untraced: Window, traced: Window) -> float:
    """Share of untraced throughput lost with the wrappers installed."""
    if not untraced.pairs_per_s:
        return 0.0
    return 1.0 - traced.pairs_per_s / untraced.pairs_per_s


# -- serve workload ---------------------------------------------------------------


@dataclass
class Server:
    """A running ``repro-labels serve`` subprocess."""

    proc: asyncio.subprocess.Process
    host: str
    port: int

    @property
    def pid(self) -> int:
        return self.proc.pid


async def start_server(argv: list[str], opts: Options) -> Server:
    """Spawn the server, pin it, and wait for its ready line."""
    env = dict(os.environ)
    src = os.path.join(opts.root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = await asyncio.create_subprocess_exec(
        *argv,
        cwd=opts.root,
        env=env,
        stdout=asyncio.subprocess.PIPE,
        stderr=asyncio.subprocess.STDOUT,
    )
    output = []
    try:
        try:
            measure.pin(proc.pid, opts.server_cpu)
        except ProcessLookupError:
            pass  # already exited: the missing ready line reports it
        loop = asyncio.get_running_loop()
        deadline = loop.time() + READY_TIMEOUT_S
        while True:
            line = await asyncio.wait_for(
                proc.stdout.readline(), max(0.0, deadline - loop.time())
            )
            if not line:
                raise RuntimeError(
                    "server exited before its ready line: "
                    + b"".join(output).decode(errors="replace")[-2000:]
                )
            output.append(line)
            match = _READY.search(line.decode(errors="replace"))
            if match:
                return Server(proc, match.group(1), int(match.group(2)))
    except BaseException:
        await stop_server(proc)
        raise


async def stop_server(proc: asyncio.subprocess.Process) -> None:
    """SIGTERM the server, wait for it (killing after a timeout), drain output."""
    if proc.returncode is None:
        try:
            proc.send_signal(signal.SIGTERM)
            await asyncio.wait_for(proc.wait(), STOP_TIMEOUT_S)
        except ProcessLookupError:
            pass
        except TimeoutError:
            proc.kill()
        await proc.wait()
    await proc.stdout.read()


def trace_path(workload: Workload, opts: Options) -> str:
    """Where the traced server writes its spans (and ``.mark1``/``.mark2``)."""
    return os.path.join(opts.workdir, f"trace-{workload.name}-{opts.seed}-server.json")


def server_argv(path: str, opts: Options, workload: Workload, traced: bool) -> list[str]:
    """The serve command line, behind the tracing launcher when ``traced``."""
    serve = ["serve", path, "--mmap", "--host", "127.0.0.1", "--port", "0"]
    if not traced:
        return [sys.executable, "-m", "repro.cli", *serve]
    launcher = os.path.join(opts.root, "perfbench", "serve_launcher.py")
    return [
        sys.executable, launcher,
        "--spec", workload.spec, "--trace-out", trace_path(workload, opts),
        *serve,
    ]


async def serve_window(clients, us, vs, seconds: float) -> Window:
    """``OUTSTANDING`` closed-loop QUERY callers per connection."""
    window = Window()
    size = len(us)
    mask = size - 1
    values = [None] * size
    overflow: dict[int, object] = {}
    failed: dict[int, str] = {}
    latencies = window.latencies
    counter = itertools.count()
    clock = time.perf_counter
    deadline = clock() + seconds

    async def caller(client) -> None:
        query = client.query
        while True:
            began = clock()
            if began >= deadline:
                return
            op = next(counter)
            slot = op & mask
            try:
                value = await query(us[slot], vs[slot], raw=True)
            except ServerBusy:  # still BUSY after the client's retries
                failed[op] = "busy"
                continue
            except ServerError:
                failed[op] = "error"
                continue
            except (ConnectionError, OSError):
                failed[op] = "disconnect"
                continue
            except asyncio.CancelledError:
                failed[op] = "timeout"
                raise
            latencies.append(clock() - began)
            if op < size:
                values[op] = value
            else:
                overflow[op] = value

    async def prober() -> None:
        # blocks the event loop for one probe every SEGMENT_S; the server
        # keeps working through the requests already queued
        while clock() < deadline:
            window.probes.append(measure.probe())
            await asyncio.sleep(measure.SEGMENT_S)

    start = clock()
    loop = asyncio.get_running_loop()
    tasks = [loop.create_task(caller(client)) for client in clients for _ in range(OUTSTANDING)]
    tasks.append(loop.create_task(prober()))
    done, pending = await asyncio.wait(tasks, timeout=seconds + HANG_S)
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    window.seconds = clock() - start
    for task in done:
        task.result()  # an unexpected exception is a benchmark failure
    attempted = next(counter)
    for reason in failed.values():
        window.fail(reason)
    window.attempted = attempted
    window.answered = attempted - len(failed)
    window.answers = (us, vs, _recorded(values, overflow, attempted, failed))
    return window


async def _serve_setup(workload: Workload, opts: Options, path: str, traced: bool):
    """One set-up: generate, encode, save, spawn the server, connect.

    Returns ``(seconds, tree, server, clients)``.
    """
    start = time.perf_counter()
    tree = generators.make_tree("random", opts.n, opts.seed)
    built = DistanceIndex.build(tree, workload.spec)
    built.save(path)
    del built
    server = await start_server(server_argv(path, opts, workload, traced), opts)
    clients = []
    try:
        for _ in range(CONNECTIONS):
            clients.append(await AsyncLabelClient.connect(server.host, server.port))
    except BaseException:
        await _close(server, clients)
        raise
    return time.perf_counter() - start, tree, server, clients


async def _close(server: Server, clients) -> None:
    for client in clients:
        await client.close()
    await stop_server(server.proc)


def _hist_delta_p50(before: dict, after: dict) -> float:
    """Median of the observations a histogram gained between two snapshots."""
    hist = Histogram.from_dict(after)
    earlier = Histogram.from_dict(before)
    hist.counts = [a - b for a, b in zip(hist.counts, earlier.counts)]
    hist.total -= earlier.total
    return hist.percentile(0.5)


async def _signal_mark(server: Server, path: str, timeout: float = 30.0) -> dict:
    """Ask the traced server for a mark and wait until it is written."""
    server.proc.send_signal(signal.SIGUSR1)
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not os.path.exists(path):
        if loop.time() > deadline or server.proc.returncode is not None:
            raise RuntimeError(f"traced server wrote no mark {path}")
        await asyncio.sleep(0.005)
    with open(path) as handle:
        return json.load(handle)


async def start_cpu_probe(opts: Options) -> asyncio.subprocess.Process:
    """Start ``perfbench/cpu_probe.py`` on the server's CPU."""
    proc = await asyncio.create_subprocess_exec(
        sys.executable, os.path.join(opts.root, "perfbench", "cpu_probe.py"),
        "--interval", str(measure.SEGMENT_S),
        cwd=opts.root, stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
    )
    try:
        measure.pin(proc.pid, opts.server_cpu)
        line = await asyncio.wait_for(proc.stdout.readline(), READY_TIMEOUT_S)
        if line.strip() != b"ready":
            raise RuntimeError(f"cpu probe did not start: {line!r}")
    except BaseException:
        await stop_cpu_probe(proc)
        raise
    return proc


async def stop_cpu_probe(proc: asyncio.subprocess.Process) -> array:
    """Close the probe's stdin and return its probe durations."""
    proc.stdin.close()
    try:
        out = await asyncio.wait_for(proc.stdout.read(), STOP_TIMEOUT_S)
        await asyncio.wait_for(proc.wait(), STOP_TIMEOUT_S)
    finally:
        if proc.returncode is None:
            proc.kill()
            await proc.wait()
    return array("d", json.loads(out.strip().splitlines()[-1]) if out.strip() else [])


async def _timed_serve(
    server: Server, clients, pools, seconds: float, opts: Options, marks=()
) -> dict:
    """Warm up, then time one window against ``server``; gather its counters.

    ``marks`` are the two mark files a traced server writes on SIGUSR1:
    one is requested just before the window and one just after.
    """
    (us, vs), (warm_us, warm_vs) = pools
    kernel = (await clients[0].stats()).get("kernel")
    if kernel != "native":
        raise RuntimeError(f"the server's kernel tier is {kernel!r}, not native")
    await serve_window(clients, warm_us, warm_vs, min(WARMUP_S, seconds / 4))
    before = await clients[0].stats(detail=True)
    retried = sum(client.busy_retried for client in clients)
    reconnects = sum(client.reconnects for client in clients)
    run = {"before": before}
    if marks:
        run["first"] = await _signal_mark(server, marks[0])
    prober = await start_cpu_probe(opts)
    try:
        server_cpu = measure.proc_cpu_seconds(server.pid)
        client_cpu = time.process_time()
        window = await serve_window(clients, us, vs, seconds)
        run["client_cpu"] = time.process_time() - client_cpu
        run["server_cpu"] = measure.proc_cpu_seconds(server.pid) - server_cpu
    finally:
        server_probes = await stop_cpu_probe(prober)
    window.server_probes = server_probes
    run["rss"] = measure.proc_rss_bytes(server.pid)
    if marks:
        run["last"] = await _signal_mark(server, marks[1])
    run["after"] = await clients[0].stats(detail=True)
    run["window"] = window
    run["busy_retried"] = sum(client.busy_retried for client in clients) - retried
    run["reconnects"] = sum(client.reconnects for client in clients) - reconnects
    return run


async def run_serve(workload: Workload, opts: Options) -> dict:
    """Set up, time and check the loopback serve workload."""
    path = os.path.join(opts.workdir, f"{workload.name}-{opts.seed}.rls")
    seconds = opts.seconds / 2 if opts.trace else opts.seconds
    pools = (
        pair_pool(workload, opts.n, opts.seed, pool_size(workload, seconds), "timed"),
        warm_pool(workload, opts.n, opts.seed),
    )
    if opts.trace:
        return await _run_serve_traced(workload, opts, path, pools, seconds)

    setup_times = []
    server = None
    try:
        for repeat in range(SETUP_REPEATS):
            probes = measure.probe_burst()
            elapsed, tree, server, clients = await _serve_setup(workload, opts, path, False)
            setup_times.append((elapsed, measure.host_factor(probes + measure.probe_burst())))
            if repeat + 1 < SETUP_REPEATS:
                await _close(server, clients)
                server = None
        gc.collect()
        gc.freeze()  # the benchmark's own inputs stay out of the collector's scans
        try:
            run = await _timed_serve(server, clients, pools, seconds, opts)
        finally:
            gc.unfreeze()
    finally:
        if server is not None:
            await _close(server, clients)
    window = run["window"]
    check_window(window, TreeDistanceOracle(tree), None)
    stats = DistanceIndex.open(path, mmap=True).stats()
    os.remove(path)
    return {
        "windows": [window],
        "end_to_end": _end_to_end(
            [window],
            setup_times,
            cpu_us_per_pair=run["server_cpu"] * measure.host_factor(window.server_probes)
            * 1e6 / max(window.answered, 1),
            rss=(run["rss"], "server VmRSS at the end of the window"),
            stats=stats,
        ),
    }


async def _run_serve_traced(workload, opts, path, pools, seconds) -> dict:
    """Untraced server window, then a window against the traced launcher."""
    tracer = Tracer()
    layers.install_library(tracer, type(make_scheme_from_spec(workload.spec)))
    try:
        _, tree, server, clients = await _serve_setup(workload, opts, path, False)
    finally:
        tracer.uninstall()
    try:
        untraced = await _timed_serve(server, clients, pools, seconds, opts)
    finally:
        await _close(server, clients)

    out = trace_path(workload, opts)
    marks = [f"{out}.mark1", f"{out}.mark2"]
    for stale in (out, *marks):
        if os.path.exists(stale):
            os.remove(stale)
    _, _, server, clients = await _serve_setup(workload, opts, path, True)
    try:
        traced = await _timed_serve(server, clients, pools, seconds, opts, marks)
    finally:
        await _close(server, clients)
    with open(out) as handle:
        spans = json.load(handle)["spans"]

    oracle = TreeDistanceOracle(tree)
    check_window(untraced["window"], oracle, None)
    check_window(traced["window"], oracle, None)
    first, last = traced["first"], traced["last"]
    metrics = layers.setup_metrics(
        window_totals(rebase(tracer.spans, 0, len(tracer.spans)), layers.EMPTY_MARK, tracer.mark())
    )
    server_setup = window_totals(rebase(spans, 0, first["spans"]), layers.EMPTY_MARK, first)
    metrics["store.open_s"] = layers.setup_metrics(server_setup)["store.open_s"]
    window = traced["window"]
    before, after = traced["before"], traced["after"]
    metrics.update(
        layers.layer_metrics(
            window_totals(rebase(spans, first["spans"], last["spans"]), first, last),
            pairs=window.answered,
            window_ns=last["clock_ns"] - first["clock_ns"],
            cache=_cache_delta(before["index"]["cache"], after["index"]["cache"]),
        )
    )
    flushes = after["flushes"] - before["flushes"]
    coalesced = after["coalesced_queries"] - before["coalesced_queries"]
    metrics.update(
        {
            "serve.server.mean_batch_size": coalesced / flushes if flushes else 0.0,
            "serve.server.queue_wait_ms_p50": _hist_delta_p50(
                before["stages"]["queue"], after["stages"]["queue"]
            ),
            "serve.server.cpu_busy_share": traced["server_cpu"] / window.seconds,
            "serve.client.cpu_busy_share": traced["client_cpu"] / window.seconds,
            "serve.server.busy_rejections": after["busy_rejections"] - before["busy_rejections"],
            "serve.server.errors": after["errors"] - before["errors"],
            "serve.client.busy_retried": traced["busy_retried"],
            "serve.client.reconnects": traced["reconnects"],
            "trace.overhead_share": _overhead(untraced["window"], window),
        }
    )
    os.remove(path)
    return {"windows": [untraced["window"], window], "per_layer": metrics}


# -- reporting --------------------------------------------------------------------


def _end_to_end(windows, setup_times, *, cpu_us_per_pair, rss, stats) -> dict:
    """``{metric: (value, unit, samples, note)}`` for the end-to-end metrics.

    ``windows`` are the run's timed windows in time order;
    ``setup_times`` holds ``(wall seconds, host factor)`` per set-up, the
    factor from :func:`perfbench.measure.probe_burst` runs just before
    and after it; ``rss`` is ``(bytes, how they were taken)``.  Times of
    a window are host-normalised (:attr:`Window.host_factor`); the notes
    give the wall-clock figures next to them.
    """
    series = array("d")
    wall = array("d")
    for window in windows:
        series.extend(window.host_latencies())
        wall.extend(window.latencies)
    answered = sum(window.answered for window in windows)
    pairs_per_s = answered / math.fsum(w.seconds * w.host_factor for w in windows)
    wall_pairs_per_s = answered / math.fsum(w.seconds for w in windows)
    probes = list(itertools.chain.from_iterable(w.probes for w in windows))
    server_probes = list(itertools.chain.from_iterable(w.server_probes or () for w in windows))
    latencies = sorted(series)
    wall = sorted(wall)
    samples = len(latencies)
    p99, chunks = measure.chunked_percentile(series, 99)
    tail = measure.tail_percentile(samples)
    tail_note = (
        f"host-normalised median over {chunks} consecutive chunk(s) of each chunk's p99; "
        f"whole window p99 = {measure.percentile(latencies, 99) * 1000:.4f} ms, "
        "highest percentile "
        + (
            f"with >=10 samples beyond p{tail:g} = "
            f"{measure.percentile(latencies, tail) * 1000:.4f} ms"
            if tail is not None
            else "with >=10 samples beyond: none (under 20 samples)"
        )
    )
    probe_note = (
        f"mean probe {statistics.fmean(probes) * 1000:.4f} ms"
        + (f", server CPU {statistics.fmean(server_probes) * 1000:.4f} ms" if server_probes else "")
        + f" (nominal {measure.PROBE_NOMINAL_S * 1000:g} ms)"
    )
    return {
        "setup_s": (
            statistics.median(wall * factor for wall, factor in setup_times),
            "s", len(setup_times),
            "host-normalised median of set-ups; wall clock "
            + ", ".join(f"{wall:.3f}" for wall, _ in setup_times),
        ),
        "pairs_per_s": (
            pairs_per_s, "1/s", answered,
            f"host-normalised; wall clock {wall_pairs_per_s:.1f}/s; {probe_note}",
        ),
        "latency_p50_ms": (
            measure.percentile(latencies, 50) * 1000, "ms", samples,
            f"host-normalised; wall clock {measure.percentile(wall, 50) * 1000:.6f} ms",
        ),
        "latency_p99_ms": (p99 * 1000, "ms", samples, tail_note),
        "server_cpu_us_per_pair": (
            cpu_us_per_pair, "us", answered,
            "answering process utime+stime, host-normalised by its CPU's probes",
        ),
        "rss_mb": (rss[0] / 1e6, "MB", 1, rss[1]),
        "store_bytes_per_node": (
            stats["file_bytes"] / stats["n"], "B", stats["n"], "file bytes / n, all trees"
        ),
        "max_label_bits": (stats["max_label_bits"], "bits", stats["n"], "largest label"),
    }


def run(workload: Workload, opts: Options) -> dict:
    """Run one workload; the result holds its windows and metrics."""
    if workload.mode == "serve":
        return asyncio.run(run_serve(workload, opts))
    return run_inprocess(workload, opts)
