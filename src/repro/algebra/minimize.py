"""State-space reduction for the treedepth algebra automata.

The paper's round/bit bounds hide a constant that is a tower of
exponentials in the treedepth bound ``d``: the glue/forget update
functions range over every state the subset construction can name, yet
only a sliver of that space is reachable from the Base symbols a real
labeled input can produce, and many reachable states are behaviorally
interchangeable.  This module applies the classic two-pass collapse:

1. **Reachability** — enumerate every Base symbol over the *actual*
   label alphabet (all ancestor-edge patterns up to depth ``d``, all
   label subsets, all free-variable membership bits) and close the
   resulting leaf states under glue/forget, level by level from
   boundary ``d`` down to the root boundary ``0``.  The evaluation
   grammar shared by :mod:`repro.algebra.engine` and the CONGEST
   programs is a left fold: a node starts from its leaf state and glues
   completed child values (the *partners* — forgets of the level below)
   onto its accumulator, so the closure probes exactly
   ``glue(x, partner)`` / ``glue(partner, x)`` pairs instead of the
   quadratically exploding all-pairs space.  ``states_reachable``
   counts the left-fold fragment a real run can produce;
   ``states_total`` the (slightly larger) probe closure.

2. **Quotient** — Moore partition refinement over the closed fragment.
   The initial partition splits by boundary level and (at level 0) by
   acceptance; each round refines by the block of ``forget`` and the
   blocks of ``glue`` against every partner in both argument positions,
   with a distinguished bottom for operations that raise
   :class:`~repro.errors.ReproError`.  Partner states additionally
   carry their full glue *column* (their effect on every accumulator),
   so two child values only merge when they are interchangeable in
   every fold — the stable partition is a congruence for the run
   grammar, and replacing each state by its block representative
   preserves verdicts, counts, optima and witnesses.

The result is a :class:`MinimizedAutomaton` wrapper whose transitions
are ``canon(inner.op(...))``.  Every run shares one wrapper per
``(d, labels)``, memoized on the compiled automaton, so it rides
:class:`~repro.algebra.cache.AutomatonCache` persistence.

**Soundness is depth-bounded.**  The closure covers boundary levels
``0..d`` only, so the quotient is a congruence exactly for runs whose
elimination forest is at most ``d`` deep (the wrapper's
``closure_depth``).  Algorithm 2 recovers forests up to ``2^d - 1``
deep from a treedepth-``d`` promise — on such a run a level-``d``
state *does* glue against partners from deeper subtrees the closure
never enumerated, and a class merged on shallow evidence can be
distinguishable there.  The one Theorem 6.1 driver
(:func:`repro.distributed.model_checking.run_checking`, through
``engine_automaton``) therefore gates every run: the wrapper is applied
only when the recovered forest depth is ``<= closure_depth``, and deeper
runs fall back to the raw automaton (counted in
``repro_minimize_depth_bypass_total``).

Enumerating the alphabet and closing it is exponential in ``d`` and the
number of labels/variables, so every pass is guarded by a
:class:`MinimizationBudget`; blowing the budget falls back to the
unminimized automaton (recorded in the metrics registry), never to an
error.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import ReproError
from ..graph import Graph
from ..mso.syntax import Var
from ..obs.registry import registry as _registry
from .automata import State, TreeAutomaton
from .symbols import BaseStructure, BaseSymbol

__all__ = [
    "DEFAULT_BUDGET",
    "MinimizationBudget",
    "MinimizationStats",
    "MinimizedAutomaton",
    "enumerate_alphabet",
    "graph_label_alphabet",
    "minimization_stats",
    "minimize_automaton",
    "minimized_automaton",
]

#: Attribute on the compiled automaton holding wrappers per (d, labels).
_VARIANTS_ATTR = "_minimized_variants"

#: Local-index sentinel for an operation that raised ReproError.
_BOTTOM = -1

#: Unique sentinel distinguishing "forget raised" from any real state.
_RAISED = object()


@dataclass(frozen=True)
class MinimizationBudget:
    """Hard caps on the closure work; blowing any of them aborts cleanly.

    ``max_symbols`` bounds the enumerated Base alphabet (it grows like
    ``2^(d·(labels + variables))``), ``max_states`` the total closure
    size across all boundary levels (``max_level_states`` the states of
    any single boundary level, the early signal for count explosions),
    and ``max_probes`` the number of leaf/glue/forget evaluations spent
    building the closure tables.  Two caps track the *cost* of those
    probes, which scales with the structural size of the states (nodes
    of their nested tuple/frozenset values): ``max_state_size`` bounds
    any single state — subset-construction towers grow states
    combinatorially under repeated glue — and ``max_work`` bounds the
    running sum of ``size(left) + size(right)`` over all glue probes,
    which tracks wall time closely across the formula catalog.  Every
    cap is a pure function of the automaton and the alphabet — never of
    cache warmth, object identity, or wall time — so the
    minimize-or-fallback decision replays identically everywhere.
    """

    max_symbols: int = 4096
    max_states: int = 2048
    max_level_states: int = 640
    max_probes: int = 120_000
    max_state_size: int = 8192
    max_work: int = 5_000_000


DEFAULT_BUDGET = MinimizationBudget()


@dataclass(frozen=True)
class MinimizationStats:
    """State counts before/after the two passes.

    * ``states_total`` — the full probe closure (leaves of the whole
      alphabet, both-sided glue against every partner, all forgets);
    * ``states_reachable`` — the left-fold fragment (states a real run
      over this alphabet can produce);
    * ``states_minimized`` — equivalence classes covering the
      left-fold fragment after the quotient.
    """

    states_total: int
    states_reachable: int
    states_minimized: int

    @property
    def reduction(self) -> float:
        """Fraction of reachable states removed by the quotient."""
        if self.states_reachable == 0:
            return 0.0
        return 1.0 - self.states_minimized / self.states_reachable


def graph_label_alphabet(graph: Graph) -> Tuple[str, ...]:
    """The sorted label alphabet actually present in ``graph``."""
    labels: Set[str] = set()
    for v in graph.vertices():
        labels.update(graph.vertex_labels(v))
    for u, v in graph.edges():
        labels.update(graph.edge_labels(u, v))
    return tuple(sorted(labels))


def _subsets(items: Sequence) -> List[FrozenSet]:
    """All subsets in deterministic mask order (cf. symbols._subsets_of)."""
    items = list(items)
    return [
        frozenset(items[i] for i in range(len(items)) if mask >> i & 1)
        for mask in range(1 << len(items))
    ]


def enumerate_alphabet(
    scope: Sequence[Var],
    d: int,
    labels: Sequence[str] = (),
    max_symbols: int = DEFAULT_BUDGET.max_symbols,
) -> Optional[List[List[BaseSymbol]]]:
    """Every Base symbol over ``labels``/``scope``, grouped by depth 1..d.

    A depth-``k`` symbol combines an ancestor-edge pattern (any subset
    of positions ``1..k-1``), vertex/edge label subsets, and membership
    bits for every scope variable — the full alphabet a depth-``d``
    elimination forest over this label set can emit.  Returns ``None``
    once more than ``max_symbols`` symbols would be produced.
    """
    vertex_vars = [i for i, var in enumerate(scope) if var.sort.is_vertex_kind]
    edge_vars = [i for i, var in enumerate(scope) if not var.sort.is_vertex_kind]
    label_subsets = _subsets(sorted(labels))
    vbit_subsets = _subsets(vertex_vars)
    ebit_subsets = _subsets(edge_vars)

    per_depth: List[List[BaseSymbol]] = []
    count = 0
    for depth in range(1, d + 1):
        symbols: List[BaseSymbol] = []
        positions = list(range(1, depth))
        for anc_mask in range(1 << len(positions)):
            anc = tuple(
                p for i, p in enumerate(positions) if anc_mask >> i & 1
            )
            for vlabels in label_subsets:
                for elabel_choice in product(label_subsets, repeat=len(anc)):
                    structure = BaseStructure(
                        depth=depth,
                        anc_edges=anc,
                        vlabels=vlabels,
                        elabels=tuple(zip(anc, elabel_choice)),
                    )
                    for vbits in vbit_subsets:
                        for ebit_choice in product(
                            ebit_subsets, repeat=len(anc)
                        ):
                            count += 1
                            if count > max_symbols:
                                return None
                            symbols.append(BaseSymbol(
                                structure=structure,
                                vbits=vbits,
                                ebits=tuple(zip(anc, ebit_choice)),
                            ))
        per_depth.append(symbols)
    return per_depth


class _ClosureOverflow(Exception):
    """Internal: a budget cap was hit mid-closure."""


def _state_size(value: State, cap: int) -> int:
    """Structural node count of ``value``, short-circuited above ``cap``.

    Counts the value as a tree (no sharing detection): object identity
    and interning vary with cache warmth, but tree size is a pure
    function of the value, so the over-``cap`` verdict is reproducible.
    The cap bounds the traversal itself, so an exponentially shared
    value costs O(cap), not O(tree).
    """
    total = 0
    stack = [value]
    while stack:
        item = stack.pop()
        total += 1
        if total > cap:
            return total
        if isinstance(item, (tuple, list, frozenset, set)):
            stack.extend(item)
    return total


class _Closure:
    """The leveled probe closure plus its glue/forget/accept tables.

    Per boundary level ``k`` (processed ``d`` down to ``0``):

    * ``states[k]``   — discovery-ordered closure states;
    * ``partners[k]`` — local indices of the completed child values at
      this boundary (forgets of the level-``k+1`` accumulators; for
      level ``d`` there are none);
    * ``glue[k]``     — ``(left, right) -> result`` local indices for
      every probed ordered pair: ``(x, c)`` and ``(c, x)`` for each
      state ``x`` and partner ``c``;
    * ``forget[k]``   — per state, the local index one level down;
    * ``fold[k]``     — the left-fold (grammar-reachable) accumulators;
    * ``accept``      — per level-0 state, 1/0 (or bottom on raise).
    """

    def __init__(self, automaton: TreeAutomaton, d: int,
                 budget: MinimizationBudget):
        self._automaton = automaton
        self._budget = budget
        self._probes = 0
        self._total = 0
        self._work = 0
        self.d = d
        self.states: List[List[State]] = [[] for _ in range(d + 1)]
        self.sizes: List[List[int]] = [[] for _ in range(d + 1)]
        self.index: List[Dict[State, int]] = [{} for _ in range(d + 1)]
        self.partners: List[List[int]] = [[] for _ in range(d + 1)]
        self.glue: List[Dict[Tuple[int, int], int]] = [
            {} for _ in range(d + 1)
        ]
        self.forget: List[List[int]] = [[] for _ in range(d + 1)]
        self.fold: List[Set[int]] = [set() for _ in range(d + 1)]
        self.accept: List[int] = []
        self.leaf_seeds: List[List[int]] = [[] for _ in range(d + 1)]

    # -- budgeted growth ------------------------------------------------
    def _probe(self) -> None:
        self._probes += 1
        if self._probes > self._budget.max_probes:
            raise _ClosureOverflow

    def _add(self, level: int, state: State) -> int:
        local = self.index[level].get(state)
        if local is None:
            self._total += 1
            if (self._total > self._budget.max_states
                    or len(self.states[level])
                    >= self._budget.max_level_states):
                raise _ClosureOverflow
            cap = self._budget.max_state_size
            size = _state_size(state, cap)
            if size > cap:
                raise _ClosureOverflow
            local = len(self.states[level])
            self.index[level][state] = local
            self.states[level].append(state)
            self.sizes[level].append(size)
        return local

    # -- the reachability pass ------------------------------------------
    def build(self, alphabet: List[List[BaseSymbol]]) -> None:
        partner_states: List[State] = []  # C_k, top-down hand-me-down
        pending: List[State] = []         # all forgets from the level above
        for level in range(self.d, -1, -1):
            if level >= 1:
                for symbol in alphabet[level - 1]:
                    self._probe()
                    try:
                        state = self._automaton.leaf(symbol)
                    except ReproError:
                        continue
                    self.leaf_seeds[level].append(self._add(level, state))
            for state in pending:
                self._add(level, state)
            seen: Set[int] = set()
            self.partners[level] = [
                local for local in (
                    self._add(level, s) for s in partner_states
                ) if local not in seen and not seen.add(local)
            ]
            self._close_level(level)
            self._mark_fold(level)
            if level >= 1:
                partner_states, pending = self._forget_level(level)
        for state in self.states[0]:
            try:
                self.accept.append(1 if self._automaton.accepts(state) else 0)
            except ReproError:
                self.accept.append(_BOTTOM)

    def _close_level(self, level: int) -> None:
        """Close under glue(x, c) and glue(c, x) for every partner c."""
        states = self.states[level]
        sizes = self.sizes[level]
        table = self.glue[level]
        partner_locals = self.partners[level]
        while True:
            n = len(states)
            for i in range(n):
                for c in partner_locals:
                    for a, b in ((i, c), (c, i)):
                        if (a, b) in table:
                            continue
                        self._probe()
                        self._work += sizes[a] + sizes[b]
                        if self._work > self._budget.max_work:
                            raise _ClosureOverflow
                        try:
                            result = self._automaton.glue(
                                level, states[a], states[b]
                            )
                        except ReproError:
                            table[(a, b)] = _BOTTOM
                            continue
                        table[(a, b)] = self._add(level, result)
            if len(states) == n:
                return

    def _mark_fold(self, level: int) -> None:
        """Left-fold reachable accumulators, by pure table lookups."""
        table = self.glue[level]
        partner_locals = self.partners[level]
        seeds = self.leaf_seeds[level] if level >= 1 else partner_locals
        reach: Set[int] = set()
        stack = list(seeds)
        while stack:
            a = stack.pop()
            if a in reach:
                continue
            reach.add(a)
            for c in partner_locals:
                g = table.get((a, c), _BOTTOM)
                if g != _BOTTOM and g not in reach:
                    stack.append(g)
        self.fold[level] = reach

    def _forget_level(self, level: int) -> Tuple[List[State], List[State]]:
        """Forget every closure state; partners-for-below are the fold's."""
        down_partner: List[State] = []
        down_all: List[State] = []
        down_states: List[object] = []
        for local, state in enumerate(self.states[level]):
            self._probe()
            try:
                down = self._automaton.forget(level, state)
            except ReproError:
                down_states.append(_RAISED)
                continue
            down_states.append(down)
            down_all.append(down)
            if local in self.fold[level]:
                down_partner.append(down)
        # Targets become local indices only once the level below admits
        # them; keep the states and resolve in _resolve_forgets.
        self.forget[level] = down_states  # type: ignore[assignment]
        return down_partner, down_all

    def resolve_forgets(self) -> None:
        """Replace stored forget results with local indices one level down."""
        for level in range(self.d, 0, -1):
            self.forget[level] = [
                _BOTTOM if down is _RAISED else self.index[level - 1][down]
                for down in self.forget[level]
            ]

    def reachable(self, level: int) -> Set[int]:
        """Grammar-reachable local indices: fold accumulators + partners."""
        return self.fold[level] | set(self.partners[level])


def _refine(closure: _Closure) -> Tuple[List[int], List[Tuple[int, int]]]:
    """Moore refinement over the closure; returns (block per gid, order).

    ``order`` lists (level, local) in global discovery order, so block
    representatives (the first member of each block) are deterministic.
    """
    order: List[Tuple[int, int]] = []
    gid: List[Dict[int, int]] = [{} for _ in range(closure.d + 1)]
    for level in range(closure.d, -1, -1):
        for local in range(len(closure.states[level])):
            gid[level][local] = len(order)
            order.append((level, local))
    n = len(order)

    # Initial partition: boundary level, plus acceptance at level 0.
    seen: Dict[Tuple[int, int], int] = {}
    block = [0] * n
    for level, local in order:
        key = (level, closure.accept[local] if level == 0 else 0)
        block[gid[level][local]] = seen.setdefault(key, len(seen))
    num_blocks = len(seen)

    # Precompute every probe as a global id (or _BOTTOM).  A state's
    # signature covers forget, glue against each partner in both
    # positions, and — for partners — the full column of their effect on
    # every accumulator, so child values only merge when interchangeable.
    def g(level: int, local: int) -> int:
        return _BOTTOM if local == _BOTTOM else gid[level][local]

    forget_g = [_BOTTOM] * n
    left: List[List[int]] = [[] for _ in range(n)]
    right: List[List[int]] = [[] for _ in range(n)]
    column: List[Optional[List[int]]] = [None] * n
    for level, local in order:
        me = gid[level][local]
        if level >= 1:
            down = closure.forget[level][local]
            if down != _BOTTOM:
                forget_g[me] = gid[level - 1][down]
        table = closure.glue[level]
        partner_locals = closure.partners[level]
        left[me] = [
            g(level, table.get((local, c), _BOTTOM)) for c in partner_locals
        ]
        right[me] = [
            g(level, table.get((c, local), _BOTTOM)) for c in partner_locals
        ]
        if local in set(partner_locals):
            column[me] = [
                g(level, table.get((x, local), _BOTTOM))
                for x in range(len(closure.states[level]))
            ]

    while True:
        sigs: Dict[Tuple, int] = {}
        new = [0] * n
        for me in range(n):
            col = column[me]
            sig = (
                block[me],
                block[forget_g[me]] if forget_g[me] != _BOTTOM else _BOTTOM,
                tuple(block[r] if r != _BOTTOM else _BOTTOM
                      for r in left[me]),
                tuple(block[r] if r != _BOTTOM else _BOTTOM
                      for r in right[me]),
                tuple(block[r] if r != _BOTTOM else _BOTTOM
                      for r in col) if col is not None else None,
            )
            new[me] = sigs.setdefault(sig, len(sigs))
        block = new
        if len(sigs) == num_blocks:
            return block, order
        num_blocks = len(sigs)


class MinimizedAutomaton(TreeAutomaton):
    """The quotient automaton: every transition lands on its class rep.

    Observationally equivalent to ``inner`` on all grammar-reachable
    inputs (acceptance is constant on classes and the quotient is a
    congruence for the left-fold evaluation grammar), but the set of
    distinct states a run materializes shrinks to one representative per
    class — smaller transition tables, smaller counting/optimization
    joins.

    The guarantee only holds for runs over elimination forests at most
    ``closure_depth`` boundary levels deep: the quotient was refined
    against the partner values depth-``closure_depth`` trees can
    produce, and a deeper forest (Algorithm 2 admits up to ``2^d - 1``)
    feeds the canonicalized states contexts the refinement never saw.
    The CONGEST pipelines substitute the wrapper for ``inner`` only
    through :func:`repro.distributed.model_checking.engine_automaton`,
    which the one Theorem 6.1 driver calls once per run with the
    recovered forest's depth; any other caller must make the same
    ``closure_depth`` check.
    """

    def __init__(self, inner: TreeAutomaton,
                 quotient: Dict[int, Dict[State, State]],
                 stats: MinimizationStats,
                 closure_depth: int):
        super().__init__(inner.scope)
        self._inner = inner
        self._quotient = quotient
        self.stats = stats
        self.closure_depth = closure_depth

    def canon(self, boundary: int, state: State) -> State:
        """The class representative of ``state`` at ``boundary``.

        The map is per boundary level: the same state *value* can occur
        at several levels (pending tuples and found-flags repeat), and
        its equivalence class depends on which contexts still apply.
        Off-fragment states map to themselves.
        """
        table = self._quotient.get(boundary)
        if table is None:
            return state
        return table.get(state, state)

    def _leaf(self, symbol: BaseSymbol) -> State:
        return self.canon(
            symbol.structure.depth, self._inner.leaf(symbol)
        )

    def _glue(self, boundary: int, s1: State, s2: State) -> State:
        return self.canon(boundary, self._inner.glue(boundary, s1, s2))

    def _forget(self, boundary: int, s: State) -> State:
        return self.canon(boundary - 1, self._inner.forget(boundary, s))

    def accepts(self, state: State) -> bool:
        return self._inner.accepts(state)


def minimize_automaton(
    automaton: TreeAutomaton,
    *,
    d: int,
    labels: Sequence[str] = (),
    budget: MinimizationBudget = DEFAULT_BUDGET,
) -> Optional[MinimizedAutomaton]:
    """Run both passes; ``None`` when a budget cap forces the fallback."""
    alphabet = enumerate_alphabet(
        automaton.scope, d, labels, budget.max_symbols
    )
    if alphabet is None:
        return None
    closure = _Closure(automaton, d, budget)
    try:
        closure.build(alphabet)
    except _ClosureOverflow:
        return None
    closure.resolve_forgets()
    block, order = _refine(closure)

    # Blocks never span boundary levels (the initial partition splits by
    # level), so each block's first-discovered member is a same-level
    # representative; the quotient map is still kept per level because
    # one state value may occur at several levels with distinct classes.
    representatives: Dict[int, State] = {}
    quotient: Dict[int, Dict[State, State]] = {
        level: {} for level in range(d + 1)
    }
    reachable_blocks: Set[int] = set()
    reachable_count = 0
    for me, (level, local) in enumerate(order):
        state = closure.states[level][local]
        rep = representatives.setdefault(block[me], state)
        if rep is not state:
            quotient[level][state] = rep
        if local in closure.reachable(level):
            reachable_blocks.add(block[me])
            reachable_count += 1
    stats = MinimizationStats(
        states_total=len(order),
        states_reachable=reachable_count,
        states_minimized=len(reachable_blocks),
    )
    return MinimizedAutomaton(automaton, quotient, stats, int(d))


def minimized_automaton(
    automaton: TreeAutomaton,
    *,
    d: int,
    labels: Sequence[str] = (),
    budget: MinimizationBudget = DEFAULT_BUDGET,
) -> Optional[MinimizedAutomaton]:
    """The memoized wrapper for ``(automaton, d, labels)``.

    The wrapper is stored on the compiled automaton itself, so it is
    shared by every run using the same cache entry and rides
    :class:`~repro.algebra.cache.AutomatonCache` pickling.  A budget
    fallback is memoized too (as ``None``) — the expensive failed
    closure is not retried on every run.
    """
    key = (int(d), tuple(labels))
    variants = getattr(automaton, _VARIANTS_ATTR, None)
    if variants is None:
        variants = {}
        setattr(automaton, _VARIANTS_ATTR, variants)
    if key not in variants:
        wrapper = minimize_automaton(
            automaton, d=d, labels=labels, budget=budget
        )
        variants[key] = wrapper
        if wrapper is None:
            _registry().counter(
                "repro_minimize_fallback_total",
                "Minimizations abandoned on a budget cap.",
            ).inc()
        else:
            stats = wrapper.stats
            reg = _registry()
            reg.gauge(
                "repro_minimize_states_total",
                "Probe-closure states of the last minimized automaton.",
            ).set(stats.states_total)
            reg.gauge(
                "repro_minimize_states_reachable",
                "Grammar-reachable states of the last minimized automaton.",
            ).set(stats.states_reachable)
            reg.gauge(
                "repro_minimize_states_minimized",
                "Reachable classes after the last quotient pass.",
            ).set(stats.states_minimized)
    return variants[key]


def minimization_stats(
    automaton: TreeAutomaton,
    *,
    d: int,
    labels: Sequence[str] = (),
) -> Optional[MinimizationStats]:
    """Stats of an already-computed wrapper; never triggers the passes."""
    variants = getattr(automaton, _VARIANTS_ATTR, None) or {}
    wrapper = variants.get((int(d), tuple(labels)))
    return wrapper.stats if wrapper is not None else None
