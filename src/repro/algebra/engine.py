"""The sequential Courcelle engine (paper Algorithm 1).

Runs a compiled tree automaton bottom-up over an elimination forest:

* :func:`check`            — decision for closed formulas (Lemma 4.3),
* :func:`check_assignment` — decision with fixed free variables
                             (labeled-graph / optmarked building block),
* :func:`optimize`         — max/min-weight free set with the ARGOPT
                             top-down reconstruction (Lemma 4.6),
* :func:`count`            — number of satisfying assignments (Section 6).

Every vertex takes the paper's step Forget(Glue(Base_v, child classes)):
:meth:`TreeAutomaton.close <repro.algebra.automata.TreeAutomaton.close>`
is that step on one class, shared with the decision convergecast and the
certificate verifier.  On tables of classes the same step is the COUNT
step (:func:`count_leaves`, :func:`count_glue`, :func:`count_forget`) and
the OPT step (:func:`opt_glue`, :func:`opt_forget`, :func:`opt_best`),
shared with the counting, optimization and optmarked convergecasts; here
the "messages" are ordinary function returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple,
)

from ..errors import DecompositionError, ReproError
from ..graph import Graph, Vertex
from ..mso import syntax as sx
from ..obs.profile import profiled
from ..treedepth import EliminationForest
from .automata import State, TreeAutomaton
from .compiler import compile_formula
from .symbols import (
    SymbolChoice,
    base_structure,
    enumerate_symbol_choices,
    owned_items,
    symbol_for_assignment,
)


def _require_valid(graph: Graph, forest: EliminationForest) -> None:
    if not forest.is_valid_for(graph):
        raise DecompositionError("forest is not an elimination forest of the graph")


# ----------------------------------------------------------------------
# Decision (Lemma 4.3)
# ----------------------------------------------------------------------

def subtree_states(
    automaton: TreeAutomaton,
    graph: Graph,
    forest: EliminationForest,
    assignment: Optional[Dict[sx.Var, Any]] = None,
) -> Dict[Vertex, State]:
    """Bottom-up run; the class of every vertex's closed subtree."""
    if graph.num_vertices() == 0:
        raise ReproError("the algebra run needs at least one vertex")
    assignment = assignment or {}
    with profiled("algebra.run_states"):
        state_after: Dict[Vertex, State] = {}
        for v in forest.bottom_up_order():
            structure = base_structure(graph, forest, v)
            vertex_item, edge_items = owned_items(graph, forest, v)
            symbol = symbol_for_assignment(
                structure, automaton.scope, vertex_item, edge_items, assignment
            )
            state_after[v] = automaton.close(
                forest.depth_of(v),
                automaton.leaf(symbol),
                [state_after[child] for child in forest.children(v)],
            )
        return state_after


def run_states(
    automaton: TreeAutomaton,
    graph: Graph,
    forest: EliminationForest,
    assignment: Optional[Dict[sx.Var, Any]] = None,
) -> State:
    """Bottom-up run; returns the homomorphism class of the whole graph."""
    state_after = subtree_states(automaton, graph, forest, assignment)
    total: Optional[State] = None
    for root in forest.roots():
        s = state_after[root]
        total = s if total is None else automaton.glue(0, total, s)
    assert total is not None
    return total


def check(
    formula: sx.Formula,
    graph: Graph,
    forest: EliminationForest,
    automaton: Optional[TreeAutomaton] = None,
) -> bool:
    """Does ``graph`` ⊨ ``formula`` (closed)?  Runs Algorithm 1's decision."""
    _require_valid(graph, forest)
    if graph.num_vertices() == 0:
        from ..mso.semantics import evaluate

        return evaluate(graph, formula)
    automaton = automaton or compile_formula(formula, ())
    return automaton.accepts(run_states(automaton, graph, forest))


def check_assignment(
    formula: sx.Formula,
    graph: Graph,
    forest: EliminationForest,
    assignment: Dict[sx.Var, Any],
    automaton: Optional[TreeAutomaton] = None,
) -> bool:
    """Does ``graph`` ⊨ ``formula(assignment)``?"""
    _require_valid(graph, forest)
    scope = tuple(sorted(assignment, key=lambda v: v.name))
    if graph.num_vertices() == 0:
        from ..mso.semantics import evaluate

        return evaluate(graph, formula, assignment)
    automaton = automaton or compile_formula(formula, scope)
    total = run_states(automaton, graph, forest, assignment)
    return automaton.accepts(total)


# ----------------------------------------------------------------------
# The COUNT and OPT steps on tables of classes (Section 6, Lemma 4.6)
# ----------------------------------------------------------------------
# A table maps each class to a count (COUNT) or to the best weight of a
# partial solution in it (OPT).  A node builds its leaf table, glues each
# child's table in at its boundary ``k``, then forgets; the sequential
# engine and the counting, optimization and optmarked convergecasts all
# take these steps.  The first glue of a pair interns its class, so an
# OPT step visits classes in its caller's ``order`` (a sort key, or None
# for insertion order); every COUNT caller keeps insertion order.  OPT's
# ``sign`` is 1 to maximize and -1 to minimize; ties keep the first visit.

Table = Dict[State, int]
Order = Optional[Callable[[State], int]]
GlueBack = Dict[State, Tuple[State, State]]


def count_leaves(automaton: TreeAutomaton, choices: Iterable[SymbolChoice]) -> Table:
    """How many of a node's local choices land in each class."""
    table: Table = {}
    for choice in choices:
        state = automaton.leaf(choice.symbol)
        table[state] = table.get(state, 0) + 1
    return table


def count_glue(automaton: TreeAutomaton, k: int, table: Table, child: Table) -> Table:
    """Glue a child's COUNT table into ``table``: counts multiply."""
    merged: Table = {}
    for s1, c1 in table.items():
        for s2, c2 in child.items():
            s = automaton.glue(k, s1, s2)
            merged[s] = merged.get(s, 0) + c1 * c2
    return merged


def count_forget(automaton: TreeAutomaton, k: int, table: Table) -> Table:
    """Forget the boundary's last vertex: counts of merged classes add."""
    forgotten: Table = {}
    for s, c in table.items():
        fs = automaton.forget(k, s)
        forgotten[fs] = forgotten.get(fs, 0) + c
    return forgotten


def _visit(table: Table, order: Order) -> Iterable[State]:
    return table if order is None else sorted(table, key=order)


def opt_glue(
    automaton: TreeAutomaton, k: int, table: Table, child: Table, sign: int,
    order: Order, back: Optional[GlueBack] = None,
) -> Table:
    """Glue a child's OPT table into ``table``: weights add, the best wins.

    ``back``, if given, receives each glued class's best (own, child) pair.
    """
    merged: Table = {}
    child_order = _visit(child, order)
    for s1 in _visit(table, order):
        w1 = table[s1]
        for s2 in child_order:
            s = automaton.glue(k, s1, s2)
            w = w1 + child[s2]
            if s not in merged or sign * w > sign * merged[s]:
                merged[s] = w
                if back is not None:
                    back[s] = (s1, s2)
    return merged


def opt_forget(
    automaton: TreeAutomaton, k: int, table: Table, sign: int, order: Order,
    back: Optional[Dict[State, State]] = None,
) -> Table:
    """Forget the boundary's last vertex: the best weight per class wins.

    ``back``, if given, receives each forgotten class's best preimage.
    """
    forgotten: Table = {}
    for s in _visit(table, order):
        fs = automaton.forget(k, s)
        w = table[s]
        if fs not in forgotten or sign * w > sign * forgotten[fs]:
            forgotten[fs] = w
            if back is not None:
                back[fs] = s
    return forgotten


def opt_best(
    automaton: TreeAutomaton, table: Table, sign: int, order: Order
) -> Optional[State]:
    """The accepting class of best weight, or None if no class accepts."""
    best: Optional[State] = None
    for s in _visit(table, order):
        if automaton.accepts(s) and (
            best is None or sign * table[s] > sign * table[best]
        ):
            best = s
    return best


# ----------------------------------------------------------------------
# Optimization (Lemma 4.6 + the ARGOPT top-down phase)
# ----------------------------------------------------------------------

@dataclass
class _NodeTrace:
    """Back-pointers for reconstructing the optimal choice at one vertex."""

    leaf_choice: Dict[State, SymbolChoice]
    glue_steps: List[Tuple[Vertex, GlueBack]]
    forget_back: Dict[State, State]


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of max-φ / min-φ: the optimum weight and a witness set."""

    value: int
    witness: FrozenSet[Any]
    classes: int

    def __iter__(self):
        return iter((self.value, self.witness))


def optimize(
    formula: sx.Formula,
    graph: Graph,
    forest: EliminationForest,
    var: sx.Var,
    maximize: bool = True,
    automaton: Optional[TreeAutomaton] = None,
) -> Optional[OptimizationResult]:
    """Solve max-φ (or min-φ) for the free set variable ``var``.

    Item weights come from the graph (``vertex_weight``/``edge_weight``,
    default 1).  Returns ``None`` when no set satisfies φ.
    """
    _require_valid(graph, forest)
    if not var.sort.is_set:
        raise ReproError("optimization requires a free set variable")
    if graph.num_vertices() == 0:
        return None
    automaton = automaton or compile_formula(formula, (var,))
    if automaton.scope != (var,):
        raise ReproError("automaton scope must be exactly (var,)")
    sign = 1 if maximize else -1

    def weight_of(items: Sequence[Any]) -> int:
        total = 0
        for item in items:
            if isinstance(item, tuple):
                total += graph.edge_weight(item[0], item[1])
            else:
                total += graph.vertex_weight(item)
        return total

    tables: Dict[Vertex, Table] = {}
    traces: Dict[Vertex, _NodeTrace] = {}
    with profiled("algebra.optimize.tables"):
        for v in forest.bottom_up_order():
            k = forest.depth_of(v)
            structure = base_structure(graph, forest, v)
            vertex_item, edge_items = owned_items(graph, forest, v)
            table: Table = {}
            leaf_choice: Dict[State, SymbolChoice] = {}
            for choice in enumerate_symbol_choices(
                structure, automaton.scope, vertex_item, edge_items
            ):
                state = automaton.leaf(choice.symbol)
                w = weight_of(choice.chosen[0])
                if state not in table or sign * w > sign * table[state]:
                    table[state] = w
                    leaf_choice[state] = choice
            glue_steps: List[Tuple[Vertex, GlueBack]] = []
            for child in forest.children(v):
                back: GlueBack = {}
                table = opt_glue(automaton, k, table, tables.pop(child), sign,
                                 automaton.intern, back)
                glue_steps.append((child, back))
            forget_back: Dict[State, State] = {}
            tables[v] = opt_forget(automaton, k, table, sign, automaton.intern,
                                   forget_back)
            traces[v] = _NodeTrace(leaf_choice, glue_steps, forget_back)

    # Combine the per-component tables: a glue at the empty boundary.
    roots = forest.roots()
    combined = tables[roots[0]]
    root_glues: List[Tuple[Vertex, GlueBack]] = []
    for root in roots[1:]:
        back = {}
        combined = opt_glue(automaton, 0, combined, tables[root], sign,
                            automaton.intern, back)
        root_glues.append((root, back))
    best_state = opt_best(automaton, combined, sign, automaton.intern)
    if best_state is None:
        return None

    # ARGOPT top-down: peel the component glues, then each tree.
    witness: List[Any] = []

    def reconstruct(v: Vertex, forget_state: State) -> None:
        trace = traces[v]
        state = trace.forget_back[forget_state]
        for child, back in reversed(trace.glue_steps):
            state, right = back[state]
            reconstruct(child, right)
        witness.extend(trace.leaf_choice[state].chosen[0])

    state = best_state
    for root, back in reversed(root_glues):
        state, right = back[state]
        reconstruct(root, right)
    reconstruct(roots[0], state)
    return OptimizationResult(
        value=combined[best_state],
        witness=frozenset(witness),
        classes=automaton.num_classes(),
    )


# ----------------------------------------------------------------------
# Counting (Section 6, count-φ)
# ----------------------------------------------------------------------

def count(
    formula: sx.Formula,
    graph: Graph,
    forest: EliminationForest,
    variables: Sequence[sx.Var],
    automaton: Optional[TreeAutomaton] = None,
) -> int:
    """Number of assignments of ``variables`` with graph ⊨ φ(assignment).

    Element-sorted variables range over single vertices/edges (a singleton
    constraint is conjoined automatically when no automaton is supplied;
    pass an automaton from :func:`compile_with_singletons` otherwise).
    """
    _require_valid(graph, forest)
    scope = tuple(variables)
    if graph.num_vertices() == 0:
        from ..mso.semantics import count_satisfying_assignments

        return count_satisfying_assignments(graph, formula, scope)
    if automaton is None:
        from .compiler import compile_with_singletons

        automaton = compile_with_singletons(formula, scope)

    tables: Dict[Vertex, Table] = {}
    with profiled("algebra.count.tables"):
        for v in forest.bottom_up_order():
            k = forest.depth_of(v)
            structure = base_structure(graph, forest, v)
            vertex_item, edge_items = owned_items(graph, forest, v)
            table = count_leaves(automaton, enumerate_symbol_choices(
                structure, scope, vertex_item, edge_items
            ))
            for child in forest.children(v):
                table = count_glue(automaton, k, table, tables.pop(child))
            tables[v] = count_forget(automaton, k, table)

    # Combine the per-component tables: a glue at the empty boundary.
    roots = forest.roots()
    combined = tables[roots[0]]
    for root in roots[1:]:
        combined = count_glue(automaton, 0, combined, tables[root])
    return sum(c for s, c in combined.items() if automaton.accepts(s))

