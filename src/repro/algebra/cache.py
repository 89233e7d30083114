"""Compile-once automaton cache: memoized kernels with on-disk persistence.

Theorem 6.1's round complexity is n-independent because the per-node work
is a constant-size table lookup — the automaton's transition tables and
the class-id codec depend only on (formula, treedepth bound d, label
alphabet), never on the input graph.  This module makes that "compile
once, evaluate everywhere" structure explicit:

* :class:`AutomatonCache` memoizes compiled :class:`TreeAutomaton` objects
  (together with their :class:`~repro.distributed.model_checking.ClassCodec`)
  keyed by a canonical digest of ``(cache version, library version,
  formula, scope, d, labels, singleton flag)``;
* entries persist as pickles under ``~/.cache/repro`` (override with
  ``REPRO_CACHE_DIR``; disable with ``REPRO_NO_CACHE=1``), so a fresh
  process — e.g. each ``python -m repro`` invocation — reuses transition
  tables *warmed by earlier runs* instead of re-deriving every projection
  / subset-construction step from scratch;
* invalidation is explicit (:meth:`AutomatonCache.invalidate`,
  :meth:`AutomatonCache.clear`) and automatic on version bumps: the
  library version and :data:`CACHE_VERSION` are part of every key, so
  stale entries are simply never looked up again.

:func:`transition_table_bytes` canonicalizes an automaton's materialized
tables into process-independent bytes (frozensets are sorted by canonical
repr, so ``PYTHONHASHSEED`` cannot leak in); the cache tests pin that two
independent compilations of the same formula produce identical bytes.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from ..mso import syntax as sx
from ..obs.registry import registry as _registry
from .automata import TreeAutomaton
from .compiler import compile_formula, compile_with_singletons

#: Bump to invalidate every on-disk entry after a format/semantics change.
#: 2: entries may carry a pickled TabulatedAutomaton kernel (the integer
#: tables of the since-removed ``vectorized`` engine) riding on the automaton.
#: 3: entries may carry minimized-kernel wrappers (quotient maps plus
#: before/after state counts, see :mod:`repro.algebra.minimize`) keyed
#: per ``(d, labels)`` on the automaton; memoized budget fallbacks ride
#: along so a failed closure is never retried in a later process.
#: Entries that still carry a pickled TabulatedAutomaton kernel no longer
#: unpickle (its module is gone); they load as misses and are rewritten.
CACHE_VERSION = 3

__all__ = [
    "CACHE_VERSION",
    "AutomatonCache",
    "cache_key",
    "cached_compile",
    "default_cache",
    "set_default_cache",
    "transition_table_bytes",
]


# ----------------------------------------------------------------------
# Canonicalization (hash-order independent)
# ----------------------------------------------------------------------

def _canon(value: Any) -> Any:
    """A canonical, deterministic structure for hashing and table dumps.

    Frozensets/sets are sorted by the repr of their canonical elements, so
    the result does not depend on hash seeds or insertion order.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (f.name, _canon(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        )
    if isinstance(value, enum.Enum):
        return ("enum", type(value).__name__, value.value)
    if isinstance(value, (frozenset, set)):
        return ("set",) + tuple(sorted((_canon(v) for v in value), key=repr))
    if isinstance(value, (tuple, list)):
        return ("seq",) + tuple(_canon(v) for v in value)
    if isinstance(value, dict):
        return ("map",) + tuple(
            sorted(((repr(_canon(k)), _canon(v)) for k, v in value.items()))
        )
    return value


def cache_key(
    formula: sx.Formula,
    scope: Sequence[sx.Var] = (),
    *,
    d: Optional[int] = None,
    labels: Iterable[str] = (),
    singletons: bool = False,
    version: int = CACHE_VERSION,
) -> str:
    """The canonical digest naming one compiled-automaton cache entry."""
    from .. import __version__

    material = repr((
        "repro-automaton",
        version,
        __version__,
        _canon(formula),
        _canon(tuple(scope)),
        d,
        tuple(sorted(set(labels))),
        bool(singletons),
    ))
    return hashlib.sha256(material.encode()).hexdigest()


# ----------------------------------------------------------------------
# Canonical transition-table serialization
# ----------------------------------------------------------------------

def _canon_str(value: Any, memo: Dict[Any, str]) -> str:
    """Canonical string form of a state/symbol, memoized across calls.

    States are interned and heavily shared (a glue-cache key reuses the
    same frozenset objects thousands of times), so memoizing by the
    hashable value itself turns an otherwise quadratic dump linear.
    """
    if isinstance(value, (frozenset, set, tuple, list, dict)) or (
        dataclasses.is_dataclass(value) and not isinstance(value, type)
    ) or isinstance(value, enum.Enum):
        try:
            cached = memo.get(value)
            hashable = True
        except TypeError:
            cached, hashable = None, False
        if cached is not None:
            return cached
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            out = "%s(%s)" % (
                type(value).__name__,
                ",".join(
                    f"{f.name}={_canon_str(getattr(value, f.name), memo)}"
                    for f in dataclasses.fields(value)
                ),
            )
        elif isinstance(value, enum.Enum):
            out = f"<{type(value).__name__}.{value.name}>"
        elif isinstance(value, (frozenset, set)):
            out = "{%s}" % ",".join(sorted(_canon_str(v, memo) for v in value))
        elif isinstance(value, dict):
            out = "map{%s}" % ",".join(sorted(
                f"{_canon_str(k, memo)}:{_canon_str(v, memo)}"
                for k, v in value.items()
            ))
        else:
            out = "(%s)" % ",".join(_canon_str(v, memo) for v in value)
        if hashable:
            memo[value] = out
        return out
    return repr(value)


def _component_automata(automaton: TreeAutomaton, _seen=None):
    """Depth-first walk of an automaton and its composite children.

    Shared sub-automata are yielded once (the walk is over a DAG, not a
    tree), in first-encounter order — deterministic for a fixed compile.
    """
    if _seen is None:
        _seen = set()
    if id(automaton) in _seen:
        return
    _seen.add(id(automaton))
    yield automaton
    for child in getattr(automaton, "_children", ()):
        yield from _component_automata(child, _seen)
    inner = getattr(automaton, "_inner", None)
    if isinstance(inner, TreeAutomaton):
        yield from _component_automata(inner, _seen)


def transition_table_bytes(automaton: TreeAutomaton) -> bytes:
    """Canonical bytes of every materialized transition-table entry.

    Covers the leaf / glue / forget caches and the class-id interning of
    the automaton and all its composite components, sorted canonically —
    two automata compiled from the same formula (and warmed on the same
    runs) serialize to identical bytes in any process.
    """
    memo: Dict[Any, str] = {}
    digests: Dict[str, str] = {}

    def tag(value: Any) -> str:
        canonical = _canon_str(value, memo)
        digest = digests.get(canonical)
        if digest is None:
            digest = hashlib.sha256(canonical.encode()).hexdigest()[:16]
            digests[canonical] = digest
        return digest

    lines = []
    for index, component in enumerate(_component_automata(automaton)):
        prefix = f"{index}:{type(component).__name__}"
        for symbol, state in component._leaf_cache.items():
            lines.append(f"{prefix}|leaf|{tag(symbol)}|{tag(state)}")
        for (boundary, s1, s2), state in component._glue_cache.items():
            lines.append(
                f"{prefix}|glue|{boundary}|{tag(s1)}|{tag(s2)}|{tag(state)}"
            )
        for (boundary, s), state in component._forget_cache.items():
            lines.append(f"{prefix}|forget|{boundary}|{tag(s)}|{tag(state)}")
        for state, class_id in component._intern.items():
            lines.append(f"{prefix}|intern|{tag(state)}|{class_id}")
    lines.sort()
    return "\n".join(lines).encode()


def _table_entries(automaton: TreeAutomaton) -> int:
    """Total materialized table entries (a cheap warm-ness measure).

    Includes the quotient maps / op caches of any minimized variants
    (stored by :func:`~repro.algebra.minimize.minimized_automaton`), so
    ``save_warm`` re-persists entries whose *minimized variant* warmed
    even when the raw caches did not grow.  Memoized minimization fallbacks
    count as one entry each — persisting them is what stops the next
    process from re-running a doomed closure.
    """
    total = 0

    def op_caches(aut: TreeAutomaton) -> int:
        return (
            len(aut._leaf_cache)
            + len(aut._glue_cache)
            + len(aut._forget_cache)
            + len(aut._intern)
        )

    for component in _component_automata(automaton):
        total += op_caches(component)
        for minimized in getattr(component, "_minimized_variants", {}).values():
            total += 1  # the memoized variant itself (None = fallback)
            if minimized is not None:
                total += op_caches(minimized)
                total += sum(
                    len(table) for table in minimized._quotient.values()
                )
    return total


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------

def _default_directory() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path(os.path.expanduser("~")) / ".cache" / "repro"


class AutomatonCache:
    """Memoized (automaton, codec) pairs with optional disk persistence.

    In-memory entries are shared within a process; with ``persist=True``
    (default) each entry is also pickled under ``directory`` so later
    processes load transition tables already warmed by earlier runs
    instead of re-deriving them.  Corrupt or unreadable pickles are
    treated as misses, never as errors.
    """

    def __init__(
        self,
        directory: Optional[os.PathLike] = None,
        *,
        persist: bool = True,
        version: int = CACHE_VERSION,
    ):
        if os.environ.get("REPRO_NO_CACHE"):
            persist = False
        self.directory = Path(directory) if directory else _default_directory()
        self.persist = persist
        self.version = version
        self._memory: Dict[str, Tuple[TreeAutomaton, Any]] = {}
        self._loaded_entries: Dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.disk_loads = 0

    # -- keys and paths -------------------------------------------------
    def key(
        self,
        formula: sx.Formula,
        scope: Sequence[sx.Var] = (),
        *,
        d: Optional[int] = None,
        labels: Iterable[str] = (),
        singletons: bool = False,
    ) -> str:
        return cache_key(
            formula, scope, d=d, labels=labels, singletons=singletons,
            version=self.version,
        )

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    # -- lookup ---------------------------------------------------------
    def automaton_with_codec(
        self,
        formula: sx.Formula,
        scope: Sequence[sx.Var] = (),
        *,
        d: Optional[int] = None,
        labels: Iterable[str] = (),
        singletons: bool = False,
    ) -> Tuple[TreeAutomaton, Any]:
        """The compiled automaton and its codec for this key (cached).

        Both objects are shared: every caller with the same key gets the
        same automaton instance, so transition tables warm monotonically
        and class ids stay stable across runs — the distributed protocols'
        common-knowledge assumption, now also stable across processes.
        """
        key = self.key(
            formula, scope, d=d, labels=labels, singletons=singletons
        )
        entry = self._memory.get(key)
        if entry is not None:
            self.hits += 1
            _registry().counter(
                "repro_cache_hits_total", "AutomatonCache lookup hits."
            ).inc()
            return entry
        entry = self._load(key)
        if entry is not None:
            self.hits += 1
            _registry().counter(
                "repro_cache_hits_total", "AutomatonCache lookup hits."
            ).inc()
        if entry is None:
            self.misses += 1
            _registry().counter(
                "repro_cache_misses_total", "AutomatonCache lookup misses."
            ).inc()
            scope = tuple(scope)
            if singletons:
                automaton = compile_with_singletons(formula, scope)
            else:
                automaton = compile_formula(formula, scope)
            from ..distributed.model_checking import ClassCodec

            entry = (automaton, ClassCodec(automaton))
            self._store(key, entry)
        self._memory[key] = entry
        self._loaded_entries[key] = _table_entries(entry[0])
        return entry

    def automaton(self, formula: sx.Formula, scope: Sequence[sx.Var] = (),
                  **kwargs: Any) -> TreeAutomaton:
        """Like :meth:`automaton_with_codec`, returning only the automaton."""
        return self.automaton_with_codec(formula, scope, **kwargs)[0]

    # -- persistence ----------------------------------------------------
    def _load(self, key: str):
        if not self.persist:
            return None
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
        except (OSError, pickle.PickleError, EOFError, AttributeError,
                ImportError, IndexError):
            return None
        if (
            not isinstance(entry, tuple)
            or len(entry) != 2
            or not isinstance(entry[0], TreeAutomaton)
        ):
            return None
        self.disk_loads += 1
        _registry().counter(
            "repro_cache_disk_loads_total",
            "AutomatonCache entries loaded from disk persistence.",
        ).inc()
        return entry

    def _store(self, key: str, entry: Tuple[TreeAutomaton, Any]) -> None:
        if not self.persist:
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=f".{key[:16]}-", suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path(key))
        except (OSError, pickle.PickleError):
            # A read-only or full cache dir degrades to memory-only.
            pass

    def save_warm(self) -> int:
        """Re-persist every entry whose tables grew since it was loaded.

        Call after a run: transition tables are materialized lazily, so a
        run typically discovers new (symbol, state) entries.  Returns the
        number of entries rewritten.
        """
        if not self.persist:
            return 0
        written = 0
        for key, entry in self._memory.items():
            size = _table_entries(entry[0])
            if size != self._loaded_entries.get(key):
                self._store(key, entry)
                self._loaded_entries[key] = size
                written += 1
        return written

    # -- introspection --------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Aggregate statistics backing ``repro cache stats``.

        Covers the in-memory entries (with per-entry table sizes and the
        state counts of any minimized variants), the on-disk footprint,
        and this instance's hit/miss/disk-load counters.  Registry-level
        counters aggregate across *all* caches in the process; these are
        per instance.
        """
        disk_entries = 0
        disk_bytes = 0
        if self.persist:
            try:
                for path in self.directory.glob("*.pkl"):
                    try:
                        disk_bytes += path.stat().st_size
                        disk_entries += 1
                    except OSError:
                        pass
            except OSError:
                pass
        entries = []
        for key in sorted(self._memory):
            automaton = self._memory[key][0]
            minimized = []
            variants = getattr(automaton, "_minimized_variants", {})
            for (vd, vlabels), wrapper in sorted(variants.items()):
                info: Dict[str, Any] = {
                    "d": vd,
                    "labels": list(vlabels),
                    "fallback": wrapper is None,
                }
                if wrapper is not None:
                    info.update(
                        states_total=wrapper.stats.states_total,
                        states_reachable=wrapper.stats.states_reachable,
                        states_minimized=wrapper.stats.states_minimized,
                    )
                minimized.append(info)
            entries.append({
                "key": key,
                "table_entries": _table_entries(automaton),
                "minimized": minimized,
            })
        return {
            "directory": str(self.directory),
            "persist": self.persist,
            "memory_entries": len(self._memory),
            "disk_entries": disk_entries,
            "disk_bytes": disk_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "disk_loads": self.disk_loads,
            "entries": entries,
        }

    # -- invalidation ---------------------------------------------------
    def invalidate(
        self,
        formula: sx.Formula,
        scope: Sequence[sx.Var] = (),
        *,
        d: Optional[int] = None,
        labels: Iterable[str] = (),
        singletons: bool = False,
    ) -> bool:
        """Drop one entry from memory and disk; True if anything existed."""
        key = self.key(
            formula, scope, d=d, labels=labels, singletons=singletons
        )
        existed = self._memory.pop(key, None) is not None
        self._loaded_entries.pop(key, None)
        path = self._path(key)
        try:
            path.unlink()
            existed = True
        except OSError:
            pass
        return existed

    def clear(self) -> int:
        """Drop every entry (memory + this cache's ``*.pkl`` files)."""
        count = len(self._memory)
        self._memory.clear()
        self._loaded_entries.clear()
        try:
            removed = 0
            for path in self.directory.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            count = max(count, removed)
        except OSError:
            pass
        return count


_DEFAULT_CACHE: Optional[AutomatonCache] = None


def default_cache() -> AutomatonCache:
    """The process-wide cache (created lazily; honors REPRO_* env vars)."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = AutomatonCache()
    return _DEFAULT_CACHE


def set_default_cache(cache: Optional[AutomatonCache]) -> None:
    """Replace the process-wide cache (None resets to lazy default)."""
    global _DEFAULT_CACHE
    _DEFAULT_CACHE = cache


def cached_compile(
    formula: sx.Formula,
    scope: Sequence[sx.Var] = (),
    *,
    d: Optional[int] = None,
    labels: Iterable[str] = (),
    singletons: bool = False,
    cache: Optional[AutomatonCache] = None,
) -> TreeAutomaton:
    """Drop-in cached variant of :func:`repro.algebra.compile_formula`."""
    cache = cache or default_cache()
    return cache.automaton(
        formula, scope, d=d, labels=labels, singletons=singletons
    )
