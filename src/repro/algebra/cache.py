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
* entries persist under ``~/.cache/repro`` (override with
  ``REPRO_CACHE_DIR``; disable with ``REPRO_NO_CACHE=1``), so a fresh
  process — e.g. each ``python -m repro`` invocation — reuses transition
  tables *warmed by earlier runs* instead of re-deriving every projection
  / subset-construction step from scratch;
* each entry's ``<key>.pkl`` is an append-only journal: a snapshot of the
  ``(automaton, codec)`` pair followed by delta records, each framed as
  ``length | crc32 | pickle bytes``.  One pickler writes the whole
  stream, so a delta holds only the table items a run discovered and
  states already in the file pickle as memo back-references.  The
  instance that wrote the snapshot is the only one that appends to it;
  any other save (an entry loaded from disk, or a file another process
  replaced) writes a fresh snapshot, and the last writer wins.  Loads
  apply the checksummed prefix, so a crash mid-append or a corrupt tail
  costs only the records after it, and a corrupt snapshot is a miss;
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
import io
import os
import pickle
import struct
import tempfile
import zlib
from itertools import islice
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..mso import syntax as sx
from ..obs.registry import registry as _registry
from .automata import TreeAutomaton
from .compiler import compile_formula, compile_with_singletons
from .minimize import _VARIANTS_ATTR

#: Bump to invalidate every on-disk entry after a format/semantics change.
#: 2: entries may carry a pickled TabulatedAutomaton kernel (the integer
#: tables of the since-removed ``vectorized`` engine) riding on the automaton.
#: 3: entries may carry minimized-kernel wrappers (quotient maps plus
#: before/after state counts, see :mod:`repro.algebra.minimize`) keyed
#: per ``(d, labels)`` on the automaton; memoized budget fallbacks ride
#: along so a failed closure is never retried in a later process.
#: Entries that still carry a pickled TabulatedAutomaton kernel no longer
#: unpickle (its module is gone); they load as misses and are rewritten.
#: 4: an entry file is a journal — a snapshot record plus appended delta
#: records, each framed ``length | crc32 | pickle bytes`` — instead of
#: one bare pickle.
CACHE_VERSION = 4

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
    (stored by :func:`~repro.algebra.minimize.minimized_automaton`);
    memoized minimization fallbacks count as one entry each.  Reported
    per entry by :meth:`AutomatonCache.stats`.
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
# The entry journal: one snapshot record, then delta records
# ----------------------------------------------------------------------

#: Record frame header: payload length and the payload's CRC-32.
_FRAME = struct.Struct("<II")


def _op_tables(automaton: TreeAutomaton) -> Tuple[dict, ...]:
    """The grow-only transition tables of one automaton, in journal order."""
    return (
        automaton._leaf_cache,
        automaton._glue_cache,
        automaton._forget_cache,
        automaton._intern,
    )


def _variants(component: TreeAutomaton) -> dict:
    return getattr(component, _VARIANTS_ATTR, None) or {}


def _wrappers(variants: Iterable[Any]) -> List[TreeAutomaton]:
    return [wrapper for wrapper in variants if wrapper is not None]


def _cursor(entry: Tuple[TreeAutomaton, Any]) -> Tuple[Any, int]:
    """How far every grow-only table of ``entry`` extends right now.

    Per component (in :func:`_component_automata` order): the op-table
    lengths, the number of minimized variants and the op-table lengths of
    each variant's wrapper; then the codec's class count.  Two equal
    cursors mean nothing grew in between.
    """
    automaton, codec = entry
    parts = []
    for component in _component_automata(automaton):
        variants = _variants(component)
        parts.append((
            tuple(map(len, _op_tables(component))),
            len(variants),
            tuple(
                tuple(map(len, _op_tables(wrapper)))
                for wrapper in _wrappers(variants.values())
            ),
        ))
    return tuple(parts), len(codec._by_id)


class _Tail:
    """The items a grow-only dict or list gained past ``start``.

    Pickles as a fresh dict (list) whose items stream straight from the
    live table, so no copy is built and the journal's pickler memo
    retains only this small handle beyond objects the tables hold.
    """

    __slots__ = ("table", "start")

    def __init__(self, table: Any, start: int):
        self.table = table
        self.start = start

    def __reduce__(self):
        if isinstance(self.table, dict):
            return (dict, (), None, None,
                    islice(self.table.items(), self.start, None))
        return list, (), None, islice(self.table, self.start, None)


def _tails(tables: Sequence[dict], lengths: Sequence[int]) -> List[_Tail]:
    return [_Tail(table, length) for table, length in zip(tables, lengths)]


def _delta(entry: Tuple[TreeAutomaton, Any], cursor: Tuple[Any, int]):
    """The delta record carrying everything ``entry`` gained since ``cursor``.

    ``([(tails, new_variants, wrapper_tails), ...], new_classes)`` with
    one triple per component: the new items of its four op tables, its
    new ``(d, labels) -> wrapper`` variants (pickled whole), and the new
    op-table items of each wrapper it already had.  Unpickled, every
    tail is a plain dict (the codec's a list).
    """
    automaton, codec = entry
    component_cursors, classes = cursor
    parts = []
    for component, (lengths, num_variants, wrapper_lengths) in zip(
        _component_automata(automaton), component_cursors
    ):
        variants = _variants(component)
        old = _wrappers(islice(variants.values(), num_variants))
        parts.append((
            _tails(_op_tables(component), lengths),
            _Tail(variants, num_variants),
            [
                _tails(_op_tables(wrapper), wrapper_length)
                for wrapper, wrapper_length in zip(old, wrapper_lengths)
            ],
        ))
    return parts, _Tail(codec._by_id, classes)


def _is_tails(value: Any) -> bool:
    return (
        isinstance(value, list) and len(value) == 4
        and all(isinstance(tail, dict) for tail in value)
    )


def _delta_fits(entry: Tuple[TreeAutomaton, Any], delta: Any) -> bool:
    """Whether ``delta`` has the shape :func:`_delta` writes for ``entry``."""
    if not (
        isinstance(delta, tuple) and len(delta) == 2
        and isinstance(delta[0], list) and isinstance(delta[1], list)
    ):
        return False
    components = list(_component_automata(entry[0]))
    if len(delta[0]) != len(components):
        return False
    for component, part in zip(components, delta[0]):
        if not (isinstance(part, tuple) and len(part) == 3):
            return False
        tails, new_variants, wrapper_tails = part
        if not (
            _is_tails(tails)
            and isinstance(new_variants, dict)
            and all(
                wrapper is None or isinstance(wrapper, TreeAutomaton)
                for wrapper in new_variants.values()
            )
            and isinstance(wrapper_tails, list)
            and len(wrapper_tails)
            == len(_wrappers(_variants(component).values()))
            and all(map(_is_tails, wrapper_tails))
        ):
            return False
    return True


def _extend(tables: Sequence[dict], tails: Sequence[dict]) -> None:
    for table, tail in zip(tables, tails):
        table.update(tail)


def _apply_delta(entry: Tuple[TreeAutomaton, Any], delta: Any) -> None:
    """Replay one delta record (already checked by :func:`_delta_fits`)."""
    automaton, codec = entry
    parts, new_classes = delta
    for component, (tails, new_variants, wrapper_tails) in zip(
        _component_automata(automaton), parts
    ):
        _extend(_op_tables(component), tails)
        for wrapper, tail in zip(
            _wrappers(_variants(component).values()), wrapper_tails
        ):
            _extend(_op_tables(wrapper), tail)
        if new_variants:
            variants = getattr(component, _VARIANTS_ATTR, None)
            if variants is None:
                variants = {}
                setattr(component, _VARIANTS_ATTR, variants)
            variants.update(new_variants)
    for state in new_classes:
        codec._ids[state] = len(codec._by_id)
        codec._by_id.append(state)


def _frame(pickler: pickle.Pickler, buffer: io.BytesIO, record: Any) -> bytes:
    """One framed record: ``length | crc32 | pickle bytes``.

    The pickler writes into ``buffer`` so the checksum covers exactly
    this record's bytes; its memo persists, so objects an earlier record
    of the stream already holds pickle as back-references.
    """
    pickler.dump(record)
    payload = buffer.getvalue()
    buffer.seek(0)
    buffer.truncate()
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _verified_spans(data: bytes) -> Tuple[List[Tuple[int, int]], int]:
    """Payload spans of the checksummed record prefix of ``data``.

    Returns the spans and the number of records rejected: the first
    truncated or mismatching record and every record after it (counted
    by their declared lengths for as long as those stay in bounds).
    """
    spans: List[Tuple[int, int]] = []
    rejected = 0
    pos = 0
    with memoryview(data) as view:
        while pos < len(data):
            start = pos + _FRAME.size
            if start > len(data):
                return spans, rejected + 1
            length, crc = _FRAME.unpack_from(data, pos)
            end = start + length
            if end > len(data):
                return spans, rejected + 1
            if rejected or zlib.crc32(view[start:end]) != crc:
                rejected += 1
            else:
                spans.append((start, end))
            pos = end
    return spans, rejected


def _stamp(fd: int) -> Tuple[int, int]:
    info = os.fstat(fd)
    return info.st_ino, info.st_size


@dataclasses.dataclass
class _Journal:
    """The write side of one entry's stream, held by the instance that
    wrote its snapshot: the stream's pickler (and memo), the pickler's
    record buffer, and the ``(inode, size)`` its last write left.

    The size guards against inode reuse: a file another process put in
    place on a recycled inode still fails the check.
    """

    pickler: pickle.Pickler
    buffer: io.BytesIO
    stamp: Tuple[int, int]


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------

def _cache_writes():
    return _registry().counter(
        "repro_cache_writes_total",
        "AutomatonCache journal writes: full snapshots and appended deltas.",
        ("mode",),
    )


def _default_directory() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path(os.path.expanduser("~")) / ".cache" / "repro"


class AutomatonCache:
    """Memoized (automaton, codec) pairs with optional disk persistence.

    In-memory entries are shared within a process; with ``persist=True``
    (default) each entry is also journaled under ``directory`` so later
    processes load transition tables already warmed by earlier runs
    instead of re-deriving them.  The first save of an entry writes a
    snapshot; later saves by the same instance append only what grew.
    Corrupt or unreadable files are treated as misses (or, past an intact
    snapshot, as a shorter journal), never as errors.
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
        #: Per key: the :func:`_cursor` last persisted (or loaded).
        self._cursors: Dict[str, Tuple[Any, int]] = {}
        #: Per key: the stream this instance wrote and may append to.
        self._journals: Dict[str, _Journal] = {}
        #: Per key: records in the on-disk stream this entry came from.
        self._records: Dict[str, int] = {}
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
        self._cursors[key] = _cursor(entry)
        return entry

    def automaton(self, formula: sx.Formula, scope: Sequence[sx.Var] = (),
                  **kwargs: Any) -> TreeAutomaton:
        """Like :meth:`automaton_with_codec`, returning only the automaton."""
        return self.automaton_with_codec(formula, scope, **kwargs)[0]

    # -- persistence ----------------------------------------------------
    def _load(self, key: str):
        """The entry replayed from its journal's checksummed prefix.

        A missing, unreadable or corrupt snapshot is a miss.  Past an
        intact snapshot, a delta is applied only once it unpickled whole
        and matched the entry's shape; the first one that fails ends the
        replay, so the result is always a state the writer saved.
        """
        if not self.persist:
            return None
        try:
            with open(self._path(key), "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        spans, rejected = _verified_spans(data)
        from ..distributed.model_checking import ClassCodec

        entry = None
        applied = 0
        stream = io.BytesIO(data)
        unpickler = pickle.Unpickler(stream)
        for start, end in spans:
            try:
                stream.seek(start)
                record = unpickler.load()
                if stream.tell() != end:
                    break
                if entry is None:
                    fits = (
                        isinstance(record, tuple) and len(record) == 2
                        and isinstance(record[0], TreeAutomaton)
                        and isinstance(record[1], ClassCodec)
                    )
                else:
                    fits = _delta_fits(entry, record)
            except Exception:
                break
            if not fits:
                break
            if entry is None:
                entry = record
            else:
                try:
                    _apply_delta(entry, record)
                except Exception:
                    # Half-applied: no saved state to fall back to.
                    entry, applied = None, 0
                    break
            applied += 1
        rejected += len(spans) - applied
        if rejected:
            _registry().counter(
                "repro_cache_records_dropped_total",
                "Cache journal records rejected on load.",
            ).inc(rejected)
        if entry is None:
            return None
        self._records[key] = applied
        self.disk_loads += 1
        _registry().counter(
            "repro_cache_disk_loads_total",
            "AutomatonCache entries loaded from disk persistence.",
        ).inc()
        return entry

    def _store(self, key: str, entry: Tuple[TreeAutomaton, Any]) -> None:
        """Write a fresh snapshot of ``entry``; this instance owns it after.

        The snapshot lands in a temp file that replaces ``<key>.pkl``
        atomically.  Any failure — a read-only or full directory, an
        unpicklable table — unlinks the temp file and leaves the entry
        memory-only until its next save.
        """
        self._journals.pop(key, None)
        if not self.persist:
            return
        tmp = None
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=f".{key[:16]}-", suffix=".tmp"
            )
            buffer = io.BytesIO()
            pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(fd, "wb") as handle:
                handle.write(_frame(pickler, buffer, entry))
                handle.flush()
                stamp = _stamp(handle.fileno())
            os.replace(tmp, self._path(key))
            tmp = None
        except Exception:
            return
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        self._journals[key] = _Journal(pickler, buffer, stamp)
        self._records[key] = 1
        _cache_writes().inc(mode="snapshot")

    def _append(self, key: str, entry: Tuple[TreeAutomaton, Any]) -> bool:
        """Append what ``entry`` gained since its last save to its stream.

        Only possible while ``<key>.pkl`` is still the file this instance
        wrote (same inode and size).  False when it is not, or when the
        append failed; the journal is then dropped (its pickler memo may
        name bytes that never reached the file) and the caller snapshots.
        """
        journal = self._journals.pop(key, None)
        if journal is None:
            return False
        try:
            fd = os.open(self._path(key), os.O_WRONLY | os.O_APPEND)
        except OSError:
            return False
        try:
            if _stamp(fd) != journal.stamp:
                return False
            record = _frame(
                journal.pickler, journal.buffer,
                _delta(entry, self._cursors[key]),
            )
            with memoryview(record) as view:
                written = 0
                while written < len(record):
                    written += os.write(fd, view[written:])
            journal.stamp = _stamp(fd)
        except Exception:
            return False
        finally:
            os.close(fd)
        self._journals[key] = journal
        self._records[key] += 1
        _cache_writes().inc(mode="append")
        return True

    def save_warm(self) -> int:
        """Persist every entry whose tables grew since its last save.

        Call after a run: transition tables are materialized lazily, so a
        run typically discovers new (symbol, state) entries.  An entry this
        instance already wrote gets one appended delta record; any other
        grown entry (loaded from disk, or its file replaced meanwhile by
        another process) gets a full snapshot.  Returns the number of
        entries persisted.
        """
        if not self.persist:
            return 0
        written = 0
        for key, entry in self._memory.items():
            cursor = _cursor(entry)
            if cursor == self._cursors.get(key):
                continue
            if not self._append(key, entry):
                self._store(key, entry)
            self._cursors[key] = cursor
            written += 1
        return written

    # -- introspection --------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Aggregate statistics backing ``repro cache stats``.

        Covers the in-memory entries (with per-entry table sizes, the
        number of records in the on-disk journal the entry was loaded from
        or written to, and the state counts of any minimized variants),
        the on-disk footprint,
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
                "records": self._records.get(key, 0),
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
        for state in (self._cursors, self._journals, self._records):
            state.pop(key, None)
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
        for state in (self._memory, self._cursors, self._journals,
                      self._records):
            state.clear()
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
