"""Bottom-up tree automata over the treedepth algebra.

An automaton assigns every w-terminal graph (assembled from Base / Glue /
Forget symbols) a *state*; states are exactly the paper's homomorphism
classes (Definition 4.1): condition 1 holds because acceptance is a
function of the state, condition 2 because ``glue``/``forget`` are the
update functions ⊙_f.  The set of classes 𝒞 is materialized lazily — every
state ever produced is interned, so ``num_classes`` reports |𝒞_reachable|
and ``intern`` provides the O(log |𝒞|)-bit message encoding used by the
CONGEST protocols.

Atomic automata implement the MSO atoms; composites implement the logical
connectives:

* ``ProductAutomaton``    — conjunction / disjunction (state tuples),
* ``ComplementAutomaton`` — negation (flip acceptance; states unchanged,
  which is sound because every automaton here is deterministic),
* ``ProjectionAutomaton`` — existential set/element quantification:
  the projected variable's bits are guessed at each Base symbol and the
  automaton is re-determinized on the fly by the subset construction
  (states become frozensets of inner states).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import chain, islice
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ReproError
from ..mso.syntax import Sort, Var
from .symbols import BaseSymbol

State = Hashable

#: The ``last`` slot of a pending state, and the host of a pattern item,
#: while the deepest boundary vertex's Base symbol is not in the chunk.
#: Not ``None``: before Python 3.12 ``hash(None)`` follows an address, so
#: frozensets of such states would iterate, and pickle, in an order that
#: moves between processes.  ``()`` hashes alike in every process and
#: equals no ``last`` value (frozenset, bool, ``(bool, int)``) or host.
_OPEN: Tuple[()] = ()


class TreeAutomaton(ABC):
    """Deterministic bottom-up automaton over Base/Glue/Forget symbols.

    States are hash-consed: ``leaf``/``glue``/``forget`` return the first
    object interned equal to each state they compute, so every table key
    and value, every codec entry and every pickle holds one object per
    class, and a table hit compares by identity instead of by value.
    """

    def __init__(self, scope: Sequence[Var]):
        self.scope: Tuple[Var, ...] = tuple(scope)
        self._leaf_cache: Dict[BaseSymbol, State] = {}
        self._glue_cache: Dict[Tuple[int, State, State], State] = {}
        self._forget_cache: Dict[Tuple[int, State], State] = {}
        self._intern: Dict[State, int] = {}
        #: id -> the canonical object of that class; derived from
        #: ``_intern`` (never pickled, see ``__setstate__``).
        self._states: List[State] = []

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        del state["_states"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # setattr interns the names, as pickle's default does, so a
        # re-pickled entry shares them with the other components.
        for name, value in state.items():
            setattr(self, name, value)
        self._states = []
        self._sync_states()

    def _truncate(self, lengths: Sequence[int]) -> None:
        """Shrink every :func:`op_tables` table back to ``lengths``.

        The tables are insertion ordered and grow only at their end, so
        popping their newest items restores them exactly as they were
        when they had these lengths; ``_states`` follows ``_intern``.
        """
        for table, length in zip(op_tables(self), lengths):
            for _ in range(len(table) - length):
                table.popitem()
        del self._states[len(self._intern):]

    def _sync_states(self) -> None:
        """Extend the id -> state list to every class ``_intern`` holds.

        ``_intern``'s keys are in id order and are the first objects
        interned, so the list is rebuilt from them rather than trusted
        from a pickle; call it after anything extends ``_intern``
        directly (an unpickle, a journal delta).
        """
        self._states.extend(islice(self._intern, len(self._states), None))

    # -- public transition API (cached + interning) --------------------
    def leaf(self, symbol: BaseSymbol) -> State:
        """State of the one-vertex graph introduced by ``symbol``."""
        state = self._leaf_cache.get(symbol)
        if state is None:
            state = self._canonical(self._leaf(symbol))
            self._leaf_cache[symbol] = state
        return state

    def glue(self, boundary: int, s1: State, s2: State) -> State:
        """State after identity-gluing two graphs with ``boundary`` terminals."""
        key = (boundary, s1, s2)
        state = self._glue_cache.get(key)
        if state is None:
            state = self._canonical(self._glue(boundary, s1, s2))
            self._glue_cache[key] = state
        return state

    def forget(self, boundary: int, s: State) -> State:
        """State after the deepest of ``boundary`` terminals becomes interior."""
        key = (boundary, s)
        state = self._forget_cache.get(key)
        if state is None:
            state = self._canonical(self._forget(boundary, s))
            self._forget_cache[key] = state
        return state

    def close(self, boundary: int, state: State, children: Iterable[State]) -> State:
        """Forget(Glue(state, children...)): one node's step of Algorithm 1.

        ``state`` is the node's Base class and ``children`` its children's
        closed classes, glued in the order given; the node then becomes
        interior.  The sequential engine, the decision convergecast and
        the certificate verifier all take this step.
        """
        for child in children:
            state = self.glue(boundary, state, child)
        return self.forget(boundary, state)

    def _canonical(self, state: State) -> State:
        """Intern ``state``; the first object interned equal to it."""
        class_id = self._intern.get(state)
        if class_id is None:
            self._intern[state] = len(self._states)
            self._states.append(state)
            return state
        return self._states[class_id]

    def intern(self, state: State) -> int:
        """A stable small integer id for ``state`` (message encoding)."""
        return self._intern[self._canonical(state)]

    def num_classes(self) -> int:
        """|𝒞_reachable|: homomorphism classes materialized so far."""
        return len(self._intern)

    # -- to implement ---------------------------------------------------
    @abstractmethod
    def _leaf(self, symbol: BaseSymbol) -> State: ...

    @abstractmethod
    def _glue(self, boundary: int, s1: State, s2: State) -> State: ...

    @abstractmethod
    def _forget(self, boundary: int, s: State) -> State: ...

    @abstractmethod
    def accepts(self, state: State) -> bool:
        """Is ``state`` an accepting class?  (Boundary must be empty.)"""


def op_tables(automaton: TreeAutomaton) -> Tuple[dict, ...]:
    """The grow-only transition tables of one automaton, in journal order.

    What a run adds to an automaton lands in these four tables (and the
    ``_states`` list that mirrors ``_intern``), so the cache journals
    exactly their growth and a failed minimization closure rolls back
    exactly them.
    """
    return (
        automaton._leaf_cache,
        automaton._glue_cache,
        automaton._forget_cache,
        automaton._intern,
    )


def component_automata(
    automaton: TreeAutomaton, _seen=None
) -> Iterator[TreeAutomaton]:
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
        yield from component_automata(child, _seen)
    inner = getattr(automaton, "_inner", None)
    if isinstance(inner, TreeAutomaton):
        yield from component_automata(inner, _seen)


# ----------------------------------------------------------------------
# Scan automata: state is a single monoid value over owned items
# ----------------------------------------------------------------------

class ScanAutomaton(TreeAutomaton):
    """Base for atoms that fold a commutative monoid over owned items.

    An *item* is the owned vertex ``("v", bits, labels)`` or an owned edge
    ``("e", bits, labels)``; the ancestry structure is irrelevant to these
    atoms, so Forget is the identity.
    """

    def _leaf(self, symbol: BaseSymbol) -> State:
        value = self._identity()
        value = self._combine(value, self._item_value("v", symbol.vbits, symbol.structure.vlabels))
        for pos, bits in symbol.ebits:
            labels = symbol.structure.edge_labels_at(pos)
            value = self._combine(value, self._item_value("e", bits, labels))
        return value

    def _glue(self, boundary: int, s1: State, s2: State) -> State:
        return self._combine(s1, s2)

    def _forget(self, boundary: int, s: State) -> State:
        return s

    @abstractmethod
    def _identity(self) -> State: ...

    @abstractmethod
    def _combine(self, a: State, b: State) -> State: ...

    @abstractmethod
    def _item_value(self, kind: str, bits: FrozenSet[int], labels: FrozenSet[str]) -> State: ...


class ConstAutomaton(ScanAutomaton):
    """The constant true/false formula."""

    def __init__(self, scope: Sequence[Var], value: bool):
        super().__init__(scope)
        self._value = value

    def _identity(self) -> State:
        return 0

    def _combine(self, a: State, b: State) -> State:
        return 0

    def _item_value(self, kind, bits, labels) -> State:
        return 0

    def accepts(self, state: State) -> bool:
        return self._value


class SingletonAutomaton(ScanAutomaton):
    """|X_i| = 1 (counts capped at 2)."""

    def __init__(self, scope: Sequence[Var], index: int):
        super().__init__(scope)
        self._index = index

    def _identity(self) -> State:
        return 0

    def _combine(self, a: State, b: State) -> State:
        return min(2, a + b)

    def _item_value(self, kind, bits, labels) -> State:
        return 1 if self._index in bits else 0

    def accepts(self, state: State) -> bool:
        return state == 1


class ItemScanAutomaton(ScanAutomaton):
    """Whether some owned item matches, as an ∃ or a ∀ atom.

    An item matches when it is of ``kind`` (``"v"``, ``"e"`` or ``None``
    for either), lies in every X_i of ``inside`` and in no X_j of
    ``outside``, and, given a ``label``, carries it (``labelled``) or does
    not.  The state records "a match was seen"; the atom accepts on it
    (∃) or, with ``universal``, on its absence (∀).  So X_i ∩ X_j ≠ ∅ is
    ``inside=(i, j)``, X_a ⊆ ∪ X_b is ``inside=(a,), outside=bs,
    universal=True``, and "every item of X_i carries ℓ" is
    ``inside=(i,), label=ℓ, labelled=False, universal=True``.
    """

    def __init__(
        self,
        scope: Sequence[Var],
        *,
        kind: Optional[str] = None,
        inside: Iterable[int] = (),
        outside: Iterable[int] = (),
        label: Optional[str] = None,
        labelled: bool = True,
        universal: bool = False,
    ):
        super().__init__(scope)
        self._kind = kind
        self._inside = frozenset(inside)
        self._outside = frozenset(outside)
        self._label = label
        self._labelled = labelled
        self._universal = universal

    def _identity(self) -> State:
        return False

    def _combine(self, a: State, b: State) -> State:
        return a or b

    def _item_value(self, kind, bits, labels) -> State:
        return (
            self._kind in (None, kind)
            and self._inside <= bits
            and self._outside.isdisjoint(bits)
            and (self._label is None or (self._label in labels) == self._labelled)
        )

    def accepts(self, state: State) -> bool:
        return not state if self._universal else bool(state)


# ----------------------------------------------------------------------
# Pending automata: requirements on boundary vertices resolved at Forget
# ----------------------------------------------------------------------

class PendingAutomaton(TreeAutomaton):
    """Base for atoms about edges between owned items and boundary vertices.

    State: ``(flag, pend, last)`` where ``pend`` has one entry per boundary
    position (requirements aimed at that ancestor), and ``last`` carries the
    information about the deepest boundary vertex gathered from its own Base
    symbol — available exactly when that vertex is about to be forgotten
    (``_OPEN`` while that Base symbol is not in the chunk).
    """

    def _leaf(self, symbol: BaseSymbol) -> State:
        flag, contributions = self._leaf_contributions(symbol)
        pend = [self._empty_pend()] * symbol.depth
        for position, entry in contributions:
            pend[position - 1] = self._merge_pend(pend[position - 1], entry)
        return (flag, tuple(pend), self._last_info(symbol))

    def _glue(self, boundary: int, s1: State, s2: State) -> State:
        flag1, pend1, last1 = s1
        flag2, pend2, last2 = s2
        if len(pend1) != boundary or len(pend2) != boundary:
            raise ReproError("glue: boundary size mismatch")
        if last1 != _OPEN and last2 != _OPEN:
            raise ReproError("glue: two Base symbols for one boundary vertex")
        pend = tuple(self._merge_pend(a, b) for a, b in zip(pend1, pend2))
        flag = self._merge_flag(flag1, flag2)
        return (flag, pend, last1 if last1 != _OPEN else last2)

    def _forget(self, boundary: int, s: State) -> State:
        flag, pend, last = s
        if last == _OPEN:
            raise ReproError("forget: boundary vertex bits unknown")
        flag = self._resolve(flag, pend[boundary - 1], last)
        return (flag, pend[: boundary - 1], _OPEN)

    # -- hooks ----------------------------------------------------------
    def _merge_flag(self, a: Any, b: Any) -> Any:
        """The flag of a glue of two chunks (default: either's flag)."""
        return a or b

    @abstractmethod
    def _leaf_contributions(self, symbol: BaseSymbol) -> Tuple[bool, List[Tuple[int, Any]]]:
        """(initial flag, [(position, pend entry), ...]) for a Base symbol."""

    @abstractmethod
    def _last_info(self, symbol: BaseSymbol) -> Hashable:
        """What the Forget of this vertex needs to know about it."""

    @abstractmethod
    def _empty_pend(self) -> Any: ...

    @abstractmethod
    def _merge_pend(self, a: Any, b: Any) -> Any: ...

    @abstractmethod
    def _resolve(self, flag: bool, pend_entry: Any, last: Hashable) -> bool:
        """Fold the forgotten vertex's pending requirements into the flag."""


class EdgeWitnessAutomaton(PendingAutomaton):
    """∃ edge (optionally restricted to edge-set X_e) with one endpoint in
    X_x and the other in X_y (``y=None``: other endpoint unconstrained).

    Implements ``adj``, ``inc``, ``EdgeCross`` uniformly; the flag means
    "witness found".  Pend entries are the sets of bits that, if present on
    the ancestor, complete a witness.
    """

    def __init__(
        self,
        scope: Sequence[Var],
        x: int,
        y: Optional[int],
        edge_filter: Optional[int] = None,
    ):
        super().__init__(scope)
        self._x = x
        self._y = y
        self._edge_filter = edge_filter

    def _leaf_contributions(self, symbol: BaseSymbol):
        flag = False
        contributions: List[Tuple[int, FrozenSet[int]]] = []
        for position, ebits in symbol.ebits:
            if self._edge_filter is not None and self._edge_filter not in ebits:
                continue
            if self._y is None:
                if self._x in symbol.vbits:
                    flag = True
                else:
                    contributions.append((position, frozenset({self._x})))
            else:
                needed = set()
                if self._x in symbol.vbits:
                    needed.add(self._y)
                if self._y in symbol.vbits:
                    needed.add(self._x)
                if needed:
                    contributions.append((position, frozenset(needed)))
        return flag, contributions

    def _last_info(self, symbol: BaseSymbol) -> Hashable:
        relevant = {self._x}
        if self._y is not None:
            relevant.add(self._y)
        return frozenset(symbol.vbits & relevant)

    def _empty_pend(self):
        return frozenset()

    def _merge_pend(self, a, b):
        return a | b

    def _resolve(self, flag, pend_entry, last):
        return flag or bool(pend_entry & last)

    def accepts(self, state: State) -> bool:
        return bool(state[0])


class IncCountsAutomaton(PendingAutomaton):
    """Every vertex (optionally restricted to X_within) has a capped count
    of incident X_e edges inside ``allowed`` (the paper's degree-constraint
    workhorse: matchings, 2-factors, cycle supports, cubic subgraphs).

    ``e=None`` counts every incident edge, so the count is the G-degree:
    edges to ancestors seen at Base_v plus edges from descendants,
    accumulated as capped pending counts.
    """

    def __init__(
        self,
        scope: Sequence[Var],
        e: Optional[int],
        allowed: FrozenSet[int],
        within: Optional[int],
        cap: int = 3,
    ):
        super().__init__(scope)
        self._e = e
        self._allowed = allowed
        self._within = within
        self._cap = cap

    def _counted(self, symbol: BaseSymbol) -> List[int]:
        """Positions of the owned edges this atom counts."""
        return [
            position
            for position, ebits in symbol.ebits
            if self._e is None or self._e in ebits
        ]

    def _leaf_contributions(self, symbol: BaseSymbol):
        return False, [(position, 1) for position in self._counted(symbol)]

    def _last_info(self, symbol: BaseSymbol) -> Hashable:
        in_scope = self._within is None or self._within in symbol.vbits
        return (in_scope, min(self._cap, len(self._counted(symbol))))

    def _empty_pend(self):
        return 0

    def _merge_pend(self, a, b):
        return min(self._cap, a + b)

    def _resolve(self, flag, pend_entry, last):
        in_scope, own = last
        total = min(self._cap, own + pend_entry)
        return flag or (in_scope and total not in self._allowed)

    def accepts(self, state: State) -> bool:
        return not state[0]


class IncParityAutomaton(PendingAutomaton):
    """Every vertex (optionally within X_within) has X_e-degree of the
    given parity — degree sums become XORs, so the pend entries are bits."""

    def __init__(
        self,
        scope: Sequence[Var],
        e: int,
        even: bool,
        within: Optional[int],
    ):
        super().__init__(scope)
        self._e = e
        self._target = 0 if even else 1
        self._within = within

    def _leaf_contributions(self, symbol: BaseSymbol):
        contributions = [
            (position, 1)
            for position, ebits in symbol.ebits
            if self._e in ebits
        ]
        return False, contributions

    def _last_info(self, symbol: BaseSymbol) -> Hashable:
        in_scope = self._within is None or self._within in symbol.vbits
        own = sum(1 for _, ebits in symbol.ebits if self._e in ebits) % 2
        return (in_scope, own)

    def _empty_pend(self):
        return 0

    def _merge_pend(self, a, b):
        return (a + b) % 2

    def _resolve(self, flag, pend_entry, last):
        in_scope, own = last
        return flag or (in_scope and (own + pend_entry) % 2 != self._target)

    def accepts(self, state: State) -> bool:
        return not state[0]


class CliqueAutomaton(PendingAutomaton):
    """X induces a clique.

    On an elimination forest any clique lies on one root path, so it
    suffices to track: (a) at most one subtree chunk may contain an
    interior X-vertex (two incomparable X-vertices are never adjacent);
    (b) an X-vertex must be adjacent to every X-ancestor, enforced with
    "ancestor must not be in X" demands at its non-adjacent positions.

    The base-class flag slot holds ``(violated, has_interior_x)``.
    """

    def __init__(self, scope: Sequence[Var], x: int):
        super().__init__(scope)
        self._x = x

    def _leaf_contributions(self, symbol: BaseSymbol):
        contributions = []
        if self._x in symbol.vbits:
            adjacent = set(symbol.anc_edges)
            for position in range(1, symbol.depth):
                if position not in adjacent:
                    contributions.append((position, True))
        return (False, False), contributions

    def _last_info(self, symbol: BaseSymbol) -> Hashable:
        return self._x in symbol.vbits

    def _empty_pend(self):
        return False

    def _merge_pend(self, a, b):
        return a or b

    def _resolve(self, flag, pend_entry, last):
        violated, has_interior = flag
        if last and pend_entry:
            # This vertex is in X but some X-descendant is not adjacent
            # to it.
            violated = True
        return (violated, has_interior or last)

    # Two chunks with interior X-vertices are incomparable.
    def _merge_flag(self, a, b):
        (v1, h1), (v2, h2) = a, b
        return (v1 or v2 or (h1 and h2), h1 or h2)

    def accepts(self, state: State) -> bool:
        return not state[0][0]


class EndpointsInAutomaton(PendingAutomaton):
    """Every edge of X_e has both endpoints in X_x (violation-tracking)."""

    def __init__(self, scope: Sequence[Var], e: int, x: int):
        super().__init__(scope)
        self._e = e
        self._x = x

    def _leaf_contributions(self, symbol: BaseSymbol):
        flag = False
        contributions: List[Tuple[int, bool]] = []
        for position, ebits in symbol.ebits:
            if self._e not in ebits:
                continue
            if self._x not in symbol.vbits:
                flag = True
            contributions.append((position, True))
        return flag, contributions

    def _last_info(self, symbol: BaseSymbol) -> Hashable:
        return self._x in symbol.vbits

    def _empty_pend(self):
        return False

    def _merge_pend(self, a, b):
        return a or b

    def _resolve(self, flag, pend_entry, last):
        return flag or (pend_entry and not last)

    def accepts(self, state: State) -> bool:
        return not state[0]


class ContainsPatternAutomaton(TreeAutomaton):
    """G contains a fixed pattern H (optionally induced).

    The state tracks a *found* flag plus a set of partial-embedding items.
    An item is ``(placed, demands)``:

    * ``placed`` — the pattern vertices already embedded into forgotten
      graph vertices (each Base symbol may host at most one pattern vertex,
      so distinctness is automatic);
    * ``demands`` — obligations aimed at boundary positions, each
      ``(position, source, target, positive)``: the Base hosting pattern
      vertex ``source`` promised/forbade pattern vertex ``target`` at that
      ancestor.  Positive demands certify a pattern edge whose graph edge
      (owned by the deeper endpoint) was verified at promise time; negative
      demands encode induced-mode non-edges.

    At ``Forget`` the deepest boundary vertex's own hosting choice (carried
    like the pending automata's ``last`` slot) is checked against all
    demands at its position, and completeness of its pattern neighborhood
    is enforced.  Items violating anything simply die; an item placing all
    of V(H) raises the absorbing ``found`` flag.

    This is the Corollary 7.3 φ_H decided without one projection blowup
    per pattern vertex.
    """

    def __init__(
        self,
        scope: Sequence[Var],
        num_vertices: int,
        edges: FrozenSet[Tuple[int, int]],
        induced: bool,
    ):
        super().__init__(scope)
        self._h_vertices = tuple(range(num_vertices))
        self._h_edges = edges
        self._induced = induced
        self._neighbors: Dict[int, FrozenSet[int]] = {
            a: frozenset(
                b
                for b in self._h_vertices
                if (min(a, b), max(a, b)) in edges and a != b
            )
            for a in self._h_vertices
        }

    # Item = (placed: frozenset[int], demands: frozenset[(pos, src, tgt, pos?)])
    # State = (found: bool, items: frozenset[Item], has_base: bool)
    # ``host`` = the pattern vertex hosted by the deepest boundary vertex
    # (-1 for "hosts nothing"); _OPEN when its Base is not in this chunk.
    # Because hosting is a per-item choice, it lives inside items:
    # item = (placed, demands, host) with host ∈ {_OPEN, -1, 0..n-1}.

    def _leaf(self, symbol: BaseSymbol) -> State:
        items = set()
        positions = symbol.anc_edges
        # Choice: host nothing.
        items.add((frozenset(), frozenset(), -1))
        for b0 in self._h_vertices:
            for promises in self._promise_maps(b0, positions):
                demands = set()
                for target, position in promises:
                    demands.add((position, b0, target, True))
                if self._induced:
                    for position in positions:
                        for other in self._h_vertices:
                            if other == b0 or other in self._neighbors[b0]:
                                continue
                            demands.add((position, b0, other, False))
                items.add((frozenset(), frozenset(demands), b0))
        return (False, frozenset(items), True)

    def _promise_maps(self, b0: int, positions: Tuple[int, ...]):
        """Injective partial maps from N_H(b0) into adjacent positions."""
        neighbors = sorted(self._neighbors[b0])

        def recurse(i: int, used: Tuple[int, ...], acc: Tuple[Tuple[int, int], ...]):
            if i == len(neighbors):
                yield acc
                return
            # Option: do not promise this neighbor here.
            yield from recurse(i + 1, used, acc)
            for position in positions:
                if position not in used:
                    yield from recurse(
                        i + 1, used + (position,), acc + ((neighbors[i], position),)
                    )

        yield from recurse(0, (), ())

    def _glue(self, boundary: int, s1: State, s2: State) -> State:
        found1, items1, base1 = s1
        found2, items2, base2 = s2
        if found1 or found2:
            return (True, frozenset(), False)
        if base1 and base2:
            raise ReproError("glue: two Base symbols for one boundary vertex")
        merged = set()
        for placed1, demands1, host1 in items1:
            for placed2, demands2, host2 in items2:
                if placed1 & placed2:
                    continue  # a pattern vertex embedded twice
                host = host1 if base1 else host2
                merged.add((placed1 | placed2, demands1 | demands2, host))
        return (False, frozenset(merged), base1 or base2)

    def _forget(self, boundary: int, s: State) -> State:
        found, items, has_base = s
        if found:
            return (True, frozenset(), False)
        if not has_base:
            raise ReproError("forget: boundary vertex's Base missing")
        survivors = set()
        for placed, demands, host in items:
            here = [d for d in demands if d[0] == boundary]
            rest = frozenset(d for d in demands if d[0] != boundary)
            b0 = None if host == -1 else host
            ok = True
            sources = set()
            for _, src, tgt, positive in here:
                if positive:
                    if b0 != tgt:
                        ok = False
                        break
                    sources.add(src)
                else:
                    if b0 == tgt:
                        ok = False
                        break
            if not ok:
                continue
            if b0 is None:
                survivors.add((placed, rest, _OPEN))
                continue
            if b0 in placed:
                continue  # pattern vertex hosted twice
            promised = {tgt for _, src, tgt, positive in demands
                        if positive and src == b0}
            if not self._neighbors[b0] <= (sources | promised):
                continue  # some pattern edge of b0 can never be realized
            new_placed = placed | {b0}
            if any(
                positive and tgt in new_placed
                for _, _, tgt, positive in rest
            ):
                continue  # a promise names an already-placed vertex: dead
            if len(new_placed) == len(self._h_vertices):
                return (True, frozenset(), False)
            survivors.add((new_placed, rest, _OPEN))
        # Re-open the 'host' slot for the next boundary vertex: at this
        # boundary the deeper vertex is gone, its parent's Base is pending.
        return (False, frozenset(survivors), False)

    def accepts(self, state: State) -> bool:
        return bool(state[0])


# ----------------------------------------------------------------------
# Composites
# ----------------------------------------------------------------------

class ProductAutomaton(TreeAutomaton):
    """Componentwise product; acceptance is all/any of the children."""

    def __init__(
        self,
        scope: Sequence[Var],
        children: Sequence[TreeAutomaton],
        conjunctive: bool,
    ):
        super().__init__(scope)
        if not children:
            raise ReproError("product of zero automata")
        self._children = list(children)
        self._conjunctive = conjunctive

    def _leaf(self, symbol: BaseSymbol) -> State:
        return tuple(child.leaf(symbol) for child in self._children)

    def _glue(self, boundary: int, s1: State, s2: State) -> State:
        return tuple(
            child.glue(boundary, a, b)
            for child, a, b in zip(self._children, s1, s2)
        )

    def _forget(self, boundary: int, s: State) -> State:
        return tuple(
            child.forget(boundary, a) for child, a in zip(self._children, s)
        )

    def accepts(self, state: State) -> bool:
        verdicts = (
            child.accepts(a) for child, a in zip(self._children, state)
        )
        return all(verdicts) if self._conjunctive else any(verdicts)


class ComplementAutomaton(TreeAutomaton):
    """Negation: same (deterministic) state space, flipped acceptance."""

    def __init__(self, scope: Sequence[Var], inner: TreeAutomaton):
        super().__init__(scope)
        self._inner = inner

    def _leaf(self, symbol: BaseSymbol) -> State:
        return self._inner.leaf(symbol)

    def _glue(self, boundary: int, s1: State, s2: State) -> State:
        return self._inner.glue(boundary, s1, s2)

    def _forget(self, boundary: int, s: State) -> State:
        return self._inner.forget(boundary, s)

    def accepts(self, state: State) -> bool:
        return not self._inner.accepts(state)


#: Most subset-construction rows one ``ProjectionAutomaton`` memoizes; the
#: memo is emptied when full.  4,096 rows cost decide-stream about 2% of
#: peak memory, 16,384 about 5% (CHANGES.md), for the same glue savings.
_ROW_LIMIT = 4096


class ProjectionAutomaton(TreeAutomaton):
    """∃X_i: guess the projected variable's bits at each Base symbol and
    re-determinize by the subset construction.

    Glue and Forget visit a subset's members in the inner automaton's
    class-id order, never in frozenset iteration order: that order
    follows hashes (string hashes move with ``PYTHONHASHSEED``) and
    insertion history, and the order of inner calls decides the inner
    class ids.  So ids, and with them
    :func:`~repro.algebra.cache.transition_table_bytes`, are the same in
    every process and under every hash seed.

    A glue of two subsets S1, S2 is the union over a ∈ S1 of the *row*
    {inner glue(a, b) : b ∈ S2}, and in the COUNT/OPT convergecast one row
    recurs for many S1 sharing a state a.  Rows are memoized per
    ``(boundary, S2)`` and ``a``, deduplicated.  A row is only reused
    once every inner glue in it has been computed and interned, so inner
    glues run, and intern, in exactly the order of gluing every pair.
    The memo is process-local (never pickled, empty after a load or a
    :meth:`_truncate`) and bounded by ``_ROW_LIMIT``.  Forget needs none:
    it is linear in |S|, with no pair product.
    """

    def __init__(self, inner: TreeAutomaton, var: Var):
        if not inner.scope or inner.scope[-1] != var:
            raise ReproError("projection must remove the innermost scope variable")
        super().__init__(inner.scope[:-1])
        self._inner = inner
        self._var = var
        self._index = len(self.scope)
        self._reset_rows()

    def _reset_rows(self) -> None:
        # (boundary, S2) -> (S2's members in id order, {a: row}).
        self._rows: Dict[
            Tuple[int, State],
            Tuple[Tuple[State, ...], Dict[State, Tuple[State, ...]]],
        ] = {}
        self._row_count = 0

    def __getstate__(self) -> Dict[str, Any]:
        state = super().__getstate__()
        del state["_rows"], state["_row_count"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        super().__setstate__(state)
        self._reset_rows()

    def _truncate(self, lengths: Sequence[int]) -> None:
        # A memoized row may hold inner states the truncation dropped.
        super()._truncate(lengths)
        self._reset_rows()

    def _members(self, s: State) -> List[State]:
        """The members of subset ``s`` in the inner automaton's id order."""
        return sorted(s, key=self._inner._intern.__getitem__)

    def _leaf(self, symbol: BaseSymbol) -> State:
        return frozenset(
            self._inner.leaf(extended)
            for extended in extend_symbol(symbol, self._index, self._var.sort)
        )

    def _glue(self, boundary: int, s1: State, s2: State) -> State:
        if self._row_count >= _ROW_LIMIT:
            self._reset_rows()
        key = (boundary, s2)
        memo = self._rows.get(key)
        if memo is None:
            memo = self._rows[key] = (tuple(self._members(s2)), {})
        order, rows = memo
        glue = self._inner.glue
        union = []
        for a in self._members(s1):
            row = rows.get(a)
            if row is None:
                row = tuple(dict.fromkeys([glue(boundary, a, b) for b in order]))
                if self._row_count < _ROW_LIMIT:
                    rows[a] = row
                    self._row_count += 1
            union.append(row)
        return frozenset(chain.from_iterable(union))

    def _forget(self, boundary: int, s: State) -> State:
        forget = self._inner.forget
        return frozenset(forget(boundary, a) for a in self._members(s))

    def accepts(self, state: State) -> bool:
        return any(self._inner.accepts(a) for a in state)


def extend_symbol(symbol: BaseSymbol, index: int, sort: Sort) -> Iterator[BaseSymbol]:
    """All extensions of ``symbol`` with membership bits for one new
    variable of the given sort at scope position ``index``."""
    if sort.is_vertex_kind:
        yield BaseSymbol(symbol.structure, symbol.vbits, symbol.ebits)
        yield BaseSymbol(symbol.structure, symbol.vbits | {index}, symbol.ebits)
        return
    positions = [pos for pos, _ in symbol.ebits]
    bits_by_pos = dict(symbol.ebits)
    for mask in range(1 << len(positions)):
        ebits = tuple(
            (
                pos,
                bits_by_pos[pos] | ({index} if mask >> slot & 1 else frozenset()),
            )
            for slot, pos in enumerate(positions)
        )
        yield BaseSymbol(symbol.structure, symbol.vbits, ebits)
