"""Tests for the compile-and-cache layer (:mod:`repro.algebra.cache`).

The acceptance bar: two compilations of the same formula — in fresh
caches, with or without a disk round-trip — must serialize to identical
transition-table bytes; cache hits must not change verdicts; bumping the
cache version must invalidate on-disk entries.
"""

import pickle
import random

import pytest

from repro.algebra import (
    CACHE_VERSION,
    AutomatonCache,
    cache_key,
    cached_compile,
    default_cache,
    set_default_cache,
    transition_table_bytes,
)
from repro.algebra import cache as cache_module
from repro.api import Session
from repro.graph import generators as gen
from repro.mso import formulas
from repro.obs.registry import MetricsRegistry, registry, set_registry


@pytest.fixture(scope="module")
def network():
    return gen.random_bounded_treedepth(12, 3, seed=5)


@pytest.fixture
def fresh_registry():
    previous = registry()
    reg = MetricsRegistry()
    set_registry(reg)
    yield reg
    set_registry(previous)


def _warmed_cache(directory, network, version=CACHE_VERSION):
    """A fresh cache whose triangle_free entry was warmed by one run."""
    cache = AutomatonCache(directory, version=version)
    session = Session(network, d=3, cache=cache)
    result = session.decide(formulas.triangle_free())
    return cache, result


# -- cache keys -------------------------------------------------------------

def test_cache_key_is_stable_and_label_order_insensitive():
    phi = formulas.triangle_free()
    key = cache_key(phi, (), d=3, labels=("a", "b"))
    assert key == cache_key(phi, (), d=3, labels=("b", "a"))
    assert key != cache_key(phi, (), d=4, labels=("a", "b"))
    assert key != cache_key(phi, (), d=3, labels=("a", "b"), singletons=True)
    assert key != cache_key(formulas.acyclic(), (), d=3, labels=("a", "b"))
    assert key != cache_key(phi, (), d=3, labels=("a", "b"),
                            version=CACHE_VERSION + 1)


# -- table bytes ------------------------------------------------------------

def test_double_compile_yields_identical_table_bytes(tmp_path, network):
    cache_a, result_a = _warmed_cache(tmp_path / "a", network)
    cache_b, result_b = _warmed_cache(tmp_path / "b", network)
    automaton_a = cache_a.automaton(formulas.triangle_free(), d=3)
    automaton_b = cache_b.automaton(formulas.triangle_free(), d=3)
    assert automaton_a is not automaton_b
    assert transition_table_bytes(automaton_a) \
        == transition_table_bytes(automaton_b)
    assert result_a.verdict == result_b.verdict
    assert result_a.rounds == result_b.rounds


def test_disk_roundtrip_preserves_warm_tables(tmp_path, network):
    cache_a, _ = _warmed_cache(tmp_path, network)
    warmed = transition_table_bytes(
        cache_a.automaton(formulas.triangle_free(), d=3)
    )

    cache_b = AutomatonCache(tmp_path)
    automaton = cache_b.automaton(formulas.triangle_free(), d=3)
    assert cache_b.disk_loads == 1
    assert cache_b.misses == 0
    assert transition_table_bytes(automaton) == warmed


# -- hits do not change verdicts --------------------------------------------

def test_cache_hits_keep_verdicts_identical_across_seeds(tmp_path, network):
    cache = AutomatonCache(tmp_path)
    phi = formulas.k_colorable(2)
    cold = Session(network, d=3, cache=cache, seed=0).decide(phi)
    assert cache.misses == 1
    verdicts = [cold.verdict]
    for seed in (1, 2, 3):
        warm = Session(network, d=3, cache=cache, seed=seed).decide(phi)
        verdicts.append(warm.verdict)
    assert cache.hits >= 3
    assert len(set(verdicts)) == 1
    # Same seed, warm cache: the whole execution replays identically.
    again = Session(network, d=3, cache=cache, seed=0).decide(phi)
    assert (again.verdict, again.rounds, again.messages) \
        == (cold.verdict, cold.rounds, cold.messages)


# -- invalidation -----------------------------------------------------------

def test_version_bump_misses_stale_disk_entries(tmp_path, network):
    _warmed_cache(tmp_path, network)
    assert list(tmp_path.glob("*.pkl"))

    bumped = AutomatonCache(tmp_path, version=CACHE_VERSION + 1)
    bumped.automaton(formulas.triangle_free(), d=3)
    assert bumped.disk_loads == 0
    assert bumped.misses == 1


def test_invalidate_drops_memory_and_disk(tmp_path, network):
    cache, _ = _warmed_cache(tmp_path, network)
    phi = formulas.triangle_free()
    assert cache.invalidate(phi, d=3)
    assert not list(tmp_path.glob("*.pkl"))
    cache.automaton(phi, d=3)
    assert cache.misses == 2  # the Session miss + the recompile
    assert not cache.invalidate(formulas.acyclic(), d=3)


def test_clear_empties_cache_directory(tmp_path, network):
    cache, _ = _warmed_cache(tmp_path, network)
    assert cache.clear() >= 1
    assert not list(tmp_path.glob("*.pkl"))


def test_version_bump_still_answers_correctly(tmp_path, network):
    # Invalidation must cost only a recompile, never a different verdict.
    _, stale = _warmed_cache(tmp_path, network)
    bumped_cache, fresh = _warmed_cache(tmp_path, network,
                                        version=CACHE_VERSION + 1)
    assert fresh.verdict == stale.verdict
    assert bumped_cache.misses == 1
    # Both generations coexist on disk under distinct keys.
    assert len(list(tmp_path.glob("*.pkl"))) == 2


def test_repro_no_cache_disables_persistence(tmp_path, network, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    cache = AutomatonCache(tmp_path)
    assert cache.persist is False
    session = Session(network, d=3, cache=cache)
    result = session.decide(formulas.triangle_free())
    baseline = Session(network, d=3,
                       cache=AutomatonCache(persist=False))
    assert result.verdict == baseline.decide(formulas.triangle_free()).verdict
    assert not list(tmp_path.glob("*.pkl"))  # computed, never touched disk
    # In-memory memoization keeps working.
    session.decide(formulas.triangle_free())
    assert cache.hits >= 1


def test_repro_no_cache_skips_stale_disk_entries(tmp_path, network,
                                                 monkeypatch):
    _warmed_cache(tmp_path, network)  # persisted by a normal cache
    assert list(tmp_path.glob("*.pkl"))
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    isolated = AutomatonCache(tmp_path)
    isolated.automaton(formulas.triangle_free(), d=3)
    assert isolated.disk_loads == 0  # never read, even though files exist
    assert isolated.misses == 1


def test_cached_compile_uses_default_cache(tmp_path):
    previous = default_cache()
    try:
        set_default_cache(AutomatonCache(tmp_path))
        first = cached_compile(formulas.triangle_free(), (), d=3)
        second = cached_compile(formulas.triangle_free(), (), d=3)
        assert first is second
        assert default_cache().hits == 1
    finally:
        set_default_cache(previous)


# -- the entry journal ------------------------------------------------------

#: Small graphs whose triangle_free runs each still grow the tables.
_GROWTH = [gen.random_bounded_treedepth(n, 3, seed=seed)
           for n, seed in ((6, 5), (7, 8), (8, 9))]


def _grow(cache, graph, query):
    """Run ``query`` on ``graph`` without the facade's post-query save,
    so the test decides when the grown tables reach disk."""
    cache.save_warm = lambda: 0
    try:
        return query(Session(graph, d=3, cache=cache))
    finally:
        del cache.save_warm


def _decide(cache, graph, phi=None):
    return Session(graph, d=3, cache=cache).decide(
        phi or formulas.triangle_free()
    )


def _only_file(directory):
    (path,) = directory.glob("*.pkl")
    return path


def _assert_same_entry(loaded, written):
    (automaton, codec), (expected, expected_codec) = loaded, written
    assert transition_table_bytes(automaton) \
        == transition_table_bytes(expected)
    assert codec._by_id == expected_codec._by_id
    variants = getattr(automaton, "_minimized_variants", {})
    expected_variants = getattr(expected, "_minimized_variants", {})
    assert list(variants) == list(expected_variants)
    for key, wrapper in expected_variants.items():
        if wrapper is None:
            assert variants[key] is None
        else:
            assert transition_table_bytes(variants[key]) \
                == transition_table_bytes(wrapper)


def test_journal_replays_many_appended_records(tmp_path):
    dominating = formulas.dominating_set()
    independent = formulas.independent_set()
    triangles = formulas.triangle_assignment()[0]
    writer = AutomatonCache(tmp_path)
    for seed, n in enumerate((7, 8, 9, 10)):
        session = Session(gen.random_bounded_treedepth(n, 3, seed=seed),
                          d=3, cache=writer)
        session.count(dominating)
        session.optimize(dominating, sense="min")
        session.optimize(independent, sense="max")
        session.count(triangles)
    records = [e["records"] for e in writer.stats()["entries"]]
    assert len(records) == 3 and max(records) >= 4

    reader = AutomatonCache(tmp_path)
    for key, written in writer._memory.items():
        _assert_same_entry(reader._load(key), written)
    assert reader.disk_loads == 3


def test_second_save_appends_to_the_same_file(tmp_path, fresh_registry):
    cache = AutomatonCache(tmp_path)
    _decide(cache, _GROWTH[0])  # snapshot at the miss, append after
    path = _only_file(tmp_path)
    before = path.stat()

    _grow(cache, _GROWTH[1], lambda s: s.decide(formulas.triangle_free()))
    assert cache.save_warm() == 1
    after = path.stat()
    snapshot = len(pickle.dumps(
        cache.automaton_with_codec(formulas.triangle_free(), d=3)
    ))
    assert after.st_ino == before.st_ino
    assert 0 < after.st_size - before.st_size < snapshot
    assert cache.save_warm() == 0  # nothing grew since

    writes = fresh_registry.get("repro_cache_writes_total")
    assert writes.value(mode="snapshot") == 1
    assert writes.value(mode="append") == 2
    assert cache.stats()["entries"][0]["records"] == 3


def test_foreign_replace_makes_the_next_save_a_snapshot(tmp_path,
                                                         fresh_registry):
    first = AutomatonCache(tmp_path)
    _decide(first, _GROWTH[0])
    inode_first = _only_file(tmp_path).stat().st_ino

    # A second "process" loads the entry, grows it and saves: having not
    # written the stream, it replaces the file with its own snapshot.
    second = AutomatonCache(tmp_path)
    _decide(second, _GROWTH[1])
    assert second.disk_loads == 1
    inode_second = _only_file(tmp_path).stat().st_ino
    assert inode_second != inode_first

    # The first writer must notice the replacement and not append to it.
    _decide(first, _GROWTH[2])
    assert _only_file(tmp_path).stat().st_ino != inode_second
    assert fresh_registry.get("repro_cache_writes_total").value(
        mode="snapshot") == 3

    third = AutomatonCache(tmp_path)
    key = third.key(formulas.triangle_free(), d=3)
    _assert_same_entry(third._load(key), first._memory[key])


def test_corrupt_or_truncated_journal_loads_a_saved_state_or_misses(
        tmp_path, fresh_registry):
    phi = formulas.triangle_free()
    writer = AutomatonCache(tmp_path / "writer")
    key = writer.key(phi, d=3)
    saved = {transition_table_bytes(cache_module.compile_formula(phi, ()))}
    _decide(writer, _GROWTH[0])  # the bare snapshot, then one append
    saved.add(transition_table_bytes(writer.automaton(phi, d=3)))
    for graph in _GROWTH[1:]:
        _grow(writer, graph, lambda s: s.decide(phi))
        assert writer.save_warm() == 1
        saved.add(transition_table_bytes(writer.automaton(phi, d=3)))
    full = transition_table_bytes(writer.automaton(phi, d=3))
    data = writer._path(key).read_bytes()
    spans, rejected = cache_module._verified_spans(data)
    assert len(spans) == 4 and rejected == 0

    # Flips inside every record and its header, anywhere in the file,
    # truncations at and around every record boundary and anywhere.
    rng = random.Random(20240603)
    flips = [rng.randrange(start - 8, end) for start, end in spans]
    flips += [rng.randrange(start, end) for start, end in spans]
    flips += [rng.randrange(len(data)) for _ in range(12)]
    damaged = []
    for position in flips:
        flipped = bytearray(data)
        flipped[position] ^= rng.randrange(1, 256)
        damaged.append(bytes(flipped))
    cuts = [end + delta for _, end in spans for delta in (-1, 0, 1)]
    cuts += [rng.randrange(len(data)) for _ in range(8)] + [0]
    damaged += [data[:cut] for cut in cuts if cut != len(data)]
    damaged.append(data + b"\x00")

    outcomes = {"miss": 0, "prefix": 0, "full": 0}
    for index, payload in enumerate(damaged):
        directory = tmp_path / f"damaged-{index}"
        directory.mkdir()
        (directory / f"{key}.pkl").write_bytes(payload)
        reader = AutomatonCache(directory)
        automaton = reader.automaton(phi, d=3)  # must never raise
        if reader.disk_loads == 0:
            assert reader.misses == 1
            outcomes["miss"] += 1
            continue
        tables = transition_table_bytes(automaton)
        assert tables in saved
        outcomes["full" if tables == full else "prefix"] += 1
    assert outcomes["miss"] and outcomes["prefix"] and outcomes["full"]
    assert fresh_registry.get("repro_cache_records_dropped_total").total() \
        >= outcomes["prefix"]


@pytest.mark.parametrize(
    "error", [TypeError, RecursionError, pickle.PicklingError]
)
def test_failed_snapshot_leaves_no_temp_file(tmp_path, monkeypatch, error):
    class FailingPickler(pickle.Pickler):
        def dump(self, obj):
            raise error("injected")

    monkeypatch.setattr(cache_module.pickle, "Pickler", FailingPickler)
    result = _decide(AutomatonCache(tmp_path), _GROWTH[0])
    monkeypatch.undo()
    baseline = _decide(AutomatonCache(persist=False), _GROWTH[0])
    assert result.verdict == baseline.verdict
    assert list(tmp_path.iterdir()) == []  # memory-only, nothing leaked


def test_failed_append_falls_back_to_a_snapshot(tmp_path, monkeypatch):
    cache = AutomatonCache(tmp_path)
    _decide(cache, _GROWTH[0])
    inode = _only_file(tmp_path).stat().st_ino

    def failing_delta(entry, cursor):
        raise RecursionError("injected")

    monkeypatch.setattr(cache_module, "_delta", failing_delta)
    _decide(cache, _GROWTH[1])
    monkeypatch.undo()
    path = _only_file(tmp_path)
    assert path.stat().st_ino != inode
    assert list(tmp_path.iterdir()) == [path]
    key = cache.key(formulas.triangle_free(), d=3)
    _assert_same_entry(AutomatonCache(tmp_path)._load(key),
                       cache._memory[key])


# -- stats ------------------------------------------------------------------

def test_stats_reports_entries_counters_and_state_counts(tmp_path, network):
    cache, _ = _warmed_cache(tmp_path, network)
    Session(network, d=3, cache=cache).decide(formulas.acyclic())
    stats = cache.stats()
    assert stats["directory"] == str(tmp_path)
    assert stats["persist"] is True
    assert stats["memory_entries"] == 2
    assert stats["disk_entries"] >= 1
    assert stats["disk_bytes"] > 0
    assert stats["misses"] == 2
    assert len(stats["entries"]) == 2
    assert all(e["table_entries"] > 0 for e in stats["entries"])
    # Each entry was snapshotted at its miss and appended after its run.
    assert [e["records"] for e in stats["entries"]] == [2, 2]
    minimized = [
        info for entry in stats["entries"] for info in entry["minimized"]
    ]
    # acyclic minimizes within budget at d=3; triangle_free falls back.
    assert any(
        not info["fallback"]
        and 0 < info["states_minimized"] < info["states_reachable"]
        for info in minimized
    )
    assert any(info["fallback"] for info in minimized)


def test_stats_counts_disk_footprint_only_when_persisting(network):
    cache = AutomatonCache(persist=False)
    Session(network, d=3, cache=cache).decide(formulas.acyclic())
    stats = cache.stats()
    assert stats["persist"] is False
    assert stats["disk_entries"] == 0
    assert stats["disk_bytes"] == 0
    assert stats["memory_entries"] == 1


def test_cache_stats_cli(tmp_path, network, monkeypatch, capsys):
    from repro.cli import main

    cache, _ = _warmed_cache(tmp_path / "cli", network)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli"))
    previous = default_cache()
    try:
        set_default_cache(cache)
        assert main(["cache", "stats"]) == 0
    finally:
        set_default_cache(previous)
    out = capsys.readouterr().out
    assert "automaton cache:" in out
    assert "on disk" in out
    assert "hits" in out
    assert "journal records" in out
