"""Tier selection, graceful degradation and cross-tier differentials.

The :mod:`repro.kernels` contract is that every tier — native C and packed
Python — returns **byte-identical answers** (a fused kernel that cannot
honour that declines with ``None`` and the caller falls back), and that
tier selection degrades gracefully: a missing compiler or a corrupt shared
library must never break a query, only change which tier answers it.  These tests force each tier through
``REPRO_KERNELS``, sabotage the native library through
``REPRO_KERNELS_LIB``, and run hypothesis differentials of
``query``/``batch_query``/``matrix_into`` across every registered scheme
spec.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.registry import make_scheme_from_spec
from repro.generators.workloads import make_tree, random_pairs
from repro.oracles.exact_oracle import TreeDistanceOracle
from repro.store import LabelStore, QueryEngine, StoreError
from repro.testing import parent_array_trees

#: every registered scheme, parameterised where construction needs it
ALL_SPECS = [
    "hld-fixed",
    "freedman",
    "freedman-no-accumulators",
    "freedman-no-binarize",
    "freedman-no-fragments",
    "alstrup",
    "separator",
    "naive-list",
    "k-distance:k=3",
    "approximate:epsilon=0.5",
]

#: the families with a native kernel, k-distance in both regimes
NATIVE_SPECS = ["hld-fixed", "freedman", "k-distance:k=3", "k-distance:k=4,mode=simple"]


@pytest.fixture(autouse=True)
def _fresh_probe():
    """Every test starts and ends with no cached probe (env tweaks local)."""
    kernels.reset()
    yield
    kernels.reset()


@contextmanager
def forced_tier(tier: str | None):
    """Force ``REPRO_KERNELS=tier`` for the duration (None clears it)."""
    old = os.environ.get(kernels.ENV_VAR)
    if tier is None:
        os.environ.pop(kernels.ENV_VAR, None)
    else:
        os.environ[kernels.ENV_VAR] = tier
    kernels.reset()
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(kernels.ENV_VAR, None)
        else:
            os.environ[kernels.ENV_VAR] = old
        kernels.reset()


def available_tiers() -> list[str]:
    with forced_tier(None):
        probed = kernels.probe(full=True)
        return [t for t in kernels.TIER_ORDER if probed["tiers"][t]["available"]]


# -- probe structure ---------------------------------------------------------


def test_probe_shape_and_python_floor():
    probed = kernels.probe(full=True)
    assert set(probed) == {"selected", "requested", "env_var", "tiers", "note", "full"}
    assert tuple(probed["tiers"]) == kernels.TIER_ORDER
    # the packed-Python floor is part of the library, never unavailable
    assert probed["tiers"]["python"]["available"] is True
    assert probed["selected"] in kernels.TIER_ORDER
    assert kernels.backend().name == probed["selected"]


def test_unknown_env_value_falls_back_to_automatic():
    for value in ("fortran", "numpy"):  # numpy named a tier that was removed
        with forced_tier(value):
            probed = kernels.probe(full=True)
            assert probed["requested"] is None
            assert "unknown" in probed["note"]
            assert probed["selected"] in kernels.TIER_ORDER


def test_partial_probe_skips_tiers_below_forced_floor():
    """Forcing python must not pay a native compile attempt."""
    with forced_tier("python"):
        probed = kernels.probe()
        assert probed["selected"] == "python"
        assert probed["tiers"]["native"]["available"] is None
        # a later full probe upgrades the cached result
        full = kernels.probe(full=True)
        assert full["tiers"]["python"]["available"] is True
        assert full["selected"] == "python"


@pytest.mark.parametrize("tier", ["native", "python"])
def test_forcing_each_available_tier_selects_it(tier):
    if tier not in available_tiers():
        pytest.skip(f"{tier} tier not available in this environment")
    with forced_tier(tier):
        assert kernels.backend_name() == tier
        assert kernels.probe()["requested"] == tier


def test_get_backend_exposes_every_available_tier():
    for tier in available_tiers():
        backend = kernels.get_backend(tier)
        assert backend is not None and backend.name == tier


# -- graceful degradation on a broken native extension -----------------------


def test_missing_native_library_degrades(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS_LIB", str(tmp_path / "nowhere.so"))
    kernels.reset()
    probed = kernels.probe(full=True)
    assert probed["tiers"]["native"]["available"] is False
    assert probed["selected"] == "python"


def test_corrupt_native_library_degrades(tmp_path, monkeypatch):
    bogus = tmp_path / "corrupt.so"
    bogus.write_bytes(b"\x7fELF this is not a shared library")
    monkeypatch.setenv("REPRO_KERNELS_LIB", str(bogus))
    kernels.reset()
    probed = kernels.probe(full=True)
    assert probed["tiers"]["native"]["available"] is False
    assert probed["selected"] == "python"


def test_forced_unavailable_tier_degrades_with_note(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS_LIB", str(tmp_path / "nowhere.so"))
    with forced_tier("native"):
        probed = kernels.probe(full=True)
        assert probed["selected"] == "python"
        assert "degraded" in probed["note"]
        # queries still answer correctly through the degraded tier
        tree = make_tree("random", 64, seed=3)
        engine = QueryEngine.encode_tree(make_scheme_from_spec("hld-fixed"), tree)
        assert engine.query(0, 63) == engine.batch_query([(0, 63)])[0]


# -- cross-tier differentials ------------------------------------------------


def _answers_under(tier, store, spec, pairs, nodes):
    with forced_tier(tier):
        scheme = make_scheme_from_spec(spec)
        engine = QueryEngine(store, scheme=scheme)
        singles = [engine.query(u, v) for u, v in pairs]
        return singles, engine.batch_query(pairs), engine.matrix_into(nodes)


@pytest.mark.parametrize("spec", NATIVE_SPECS)
def test_fused_tiers_match_python_on_large_batches(spec):
    """Batches past every ``min_batch`` so the fused kernels really engage."""
    tree = make_tree("random", 300, seed=41)
    scheme = make_scheme_from_spec(spec)
    store = LabelStore.encode_tree(scheme, tree)
    pairs = random_pairs(tree, 500, seed=43) + [(7, 7), (0, 299)]
    nodes = list(range(80))
    reference = _answers_under("python", store, spec, pairs, nodes)
    for tier in available_tiers():
        assert _answers_under(tier, store, spec, pairs, nodes) == reference, tier


@settings(max_examples=10, deadline=None)
@given(tree=parent_array_trees(max_nodes=24))
def test_all_specs_identical_across_tiers(tree):
    tiers = available_tiers()
    pairs = [(u, v) for u in range(tree.n) for v in range(tree.n)]
    nodes = list(range(tree.n))
    for spec in ALL_SPECS:
        scheme = make_scheme_from_spec(spec)
        store = LabelStore.encode_tree(scheme, tree)
        reference = _answers_under("python", store, spec, pairs, nodes)
        for tier in tiers:
            assert _answers_under(tier, store, spec, pairs, nodes) == reference, (
                spec,
                tier,
            )


@pytest.mark.parametrize("spec", NATIVE_SPECS)
def test_fused_paths_leave_cache_info_unchanged(spec):
    """A query, batch or matrix the kernel answers never touches the parse LRU."""
    if "native" not in available_tiers():
        pytest.skip("native tier not available in this environment")
    tree = make_tree("random", 200, seed=47)
    store = LabelStore.encode_tree(make_scheme_from_spec(spec), tree)
    pairs = random_pairs(tree, 400, seed=53)
    with forced_tier("native"):
        engine = QueryEngine(store, scheme=make_scheme_from_spec(spec))
        engine.parsed_label(0)  # some prior LRU state the fused calls must keep
        before = engine.cache_info()
        assert before["backend"] == "native"
        for u, v in pairs:
            engine.query(u, v)
        engine.batch_query(pairs)
        engine.distance_matrix(list(range(60)))
        engine.matrix_into(list(range(60)))
        assert engine.cache_info() == before


def _pairs_with(bad_node: int, count: int = 300) -> list[tuple[int, int]]:
    """``count`` in-range pairs (past ``min_batch`` and one C batch call's
    worth, so the bad pair reaches a later call) plus one bad one."""
    return [(i % 50, i % 50 + 1) for i in range(count)] + [(3, bad_node)]


@pytest.mark.parametrize("spec", NATIVE_SPECS)
def test_out_of_range_node_raises_on_every_tier(spec):
    """The kernel declines a bad node; the Python path then raises."""
    tree = make_tree("random", 100, seed=71)
    store = LabelStore.encode_tree(make_scheme_from_spec(spec), tree)
    for tier in available_tiers():
        with forced_tier(tier):
            engine = QueryEngine(store, scheme=make_scheme_from_spec(spec))
            for bad in (-1, tree.n):
                with pytest.raises(StoreError):
                    engine.batch_query(_pairs_with(bad))
                nodes = [0, 5, bad, 9]
                with pytest.raises(StoreError):
                    engine.matrix_into(nodes)
                with pytest.raises(StoreError):
                    engine.distance_matrix(nodes)
                with pytest.raises(StoreError):
                    engine.query(3, bad)
            with pytest.raises(StoreError):
                engine.query(1 << 70, 0)  # beyond a C int64: never reaches the kernel


@pytest.mark.parametrize("spec", NATIVE_SPECS)
def test_parse_checksums_agree_across_tiers(spec):
    """Every tier's decoder reads the exact same fields from the stream."""
    tree = make_tree("random", 150, seed=59)
    scheme = make_scheme_from_spec(spec)
    store = LabelStore.encode_tree(scheme, tree)
    nodes = list(range(store.n))
    checksums = {}
    for tier in available_tiers():
        backend = kernels.get_backend(tier)
        checksum = backend.parse_checksum(store, scheme, nodes)
        if checksum is not None:
            checksums[tier] = checksum
    assert "python" in checksums
    assert len(set(checksums.values())) == 1, checksums


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_parsed_label_matches_reference_parse(spec):
    """The LRU miss path (word-level ``parse_many``) parses like ``parse``."""
    tree = make_tree("random", 70, seed=89)
    scheme = make_scheme_from_spec(spec)
    store = LabelStore.encode_tree(scheme, tree)
    engine = QueryEngine(store, scheme=scheme)
    for node in range(store.n):
        assert engine.parsed_label(node) == scheme.parse(store.label_bits(node))
    for bad in (-1, store.n):
        with pytest.raises(StoreError):
            engine.parsed_label(bad)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["random", "caterpillar", "broom", "balanced_binary", "spider"]),
    n=st.integers(min_value=1, max_value=36),
    seed=st.integers(min_value=0, max_value=1000),
    k=st.integers(min_value=1, max_value=6),
    mode=st.sampled_from(["compact", "simple"]),
)
def test_kdistance_single_query_matches_oracle_on_every_tier(family, n, seed, k, mode):
    """``query()`` parity across tiers, and against the bounded oracle answer.

    All pairs, so ``u == v`` and pairs beyond k are always included.
    """
    tree = make_tree(family, n, seed=seed)
    spec = f"k-distance:k={k},mode={mode}"
    store = LabelStore.encode_tree(make_scheme_from_spec(spec), tree)
    oracle = TreeDistanceOracle(tree)
    pairs = [(u, v) for u in range(n) for v in range(n)]
    expected = []
    for u, v in pairs:
        distance = oracle.distance(u, v)
        expected.append(distance if distance <= k else None)
    for tier in available_tiers():
        with forced_tier(tier):
            engine = QueryEngine(store, scheme=make_scheme_from_spec(spec))
            assert [engine.query(u, v) for u, v in pairs] == expected, tier


def _outcome(call):
    """An answer, or the class of the exception raised instead."""
    try:
        return ("answer", call())
    except Exception as error:  # the class is what the tiers must agree on
        return ("raised", type(error))


@pytest.mark.parametrize("spec", NATIVE_SPECS)
def test_corrupt_labels_fail_alike_on_every_tier(spec):
    """Corrupt label bytes: the same answer or the same exception class per tier.

    The C decoder declines whatever it cannot read or where the Python
    decoder would index past a field, so the Python path decides both.
    """
    tree = make_tree("random", 40, seed=97)
    clean = LabelStore.encode_tree(make_scheme_from_spec(spec), tree)
    header = len(clean.header_bytes())
    _, offsets, _ = clean.buffers()
    rng = random.Random(101)
    raised = 0
    for trial in range(40):
        data = bytearray(clean.to_bytes())
        node = rng.randrange(clean.n)
        start, end = header + offsets[node], header + offsets[node + 1]
        if trial % 4 == 0:
            data[start:end] = bytes(end - start)  # all zeros: unterminated codes
        elif trial % 4 == 1:
            data[start:end] = b"\xff" * (end - start)
        else:
            for _ in range(rng.randint(1, 3)):
                data[rng.randrange(start, end)] ^= 1 << rng.randrange(8)
        store = LabelStore.from_bytes(bytes(data))
        pairs = [(node, other) for other in range(store.n)]
        pairs += [(other, node) for other in range(store.n)]
        outcomes = {}
        for tier in available_tiers():
            with forced_tier(tier):
                engine = QueryEngine(store, scheme=make_scheme_from_spec(spec))
                outcomes[tier] = [_outcome(lambda: engine.query(u, v)) for u, v in pairs]
        reference = outcomes["python"]
        raised += sum(kind == "raised" for kind, _ in reference)
        for tier, got in outcomes.items():
            assert got == reference, (tier, trial)
    assert raised > 0  # the corruptions did reach the error paths


def test_store_roundtrip_identical_across_tiers():
    """The bulk-varint header fast path decodes exactly like the loop."""
    tree = make_tree("random", 400, seed=61)  # n >= 256 engages the fast path
    scheme = make_scheme_from_spec("hld-fixed")
    data = LabelStore.encode_tree(scheme, tree).to_bytes()
    blobs = set()
    for tier in available_tiers():
        with forced_tier(tier):
            store = LabelStore.from_bytes(data)
            assert store.n == 400
            blobs.add(store.to_bytes())
    assert blobs == {data}
    # corrupt input raises the reference error no matter the tier
    for tier in available_tiers():
        with forced_tier(tier):
            with pytest.raises(StoreError):
                LabelStore.from_bytes(data[: len(data) // 2])


def test_describe_and_cache_info_report_active_tier():
    tree = make_tree("random", 50, seed=67)
    from repro.api import DistanceIndex

    for tier in available_tiers():
        with forced_tier(tier):
            index = DistanceIndex.build(tree, "hld-fixed")
            assert index.describe()["kernel"] == tier
            assert index.engine.cache_info()["backend"] == tier
