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
is that step, shared with the decision convergecast and the certificate
verifier (the counting and optimization tables glue class by class);
here the "messages" are ordinary function returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

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
# Optimization (Lemma 4.6 + the ARGOPT top-down phase)
# ----------------------------------------------------------------------

@dataclass
class _NodeTrace:
    """Back-pointers for reconstructing the optimal choice at one vertex."""

    leaf_choice: Dict[State, SymbolChoice]
    glue_steps: List[Tuple[Vertex, Dict[State, Tuple[State, State]]]]
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

    tables: Dict[Vertex, Dict[State, int]] = {}
    traces: Dict[Vertex, _NodeTrace] = {}

    def better(candidate: int, incumbent: Optional[int]) -> bool:
        return incumbent is None or sign * candidate > sign * incumbent

    with profiled("algebra.optimize.tables"):
        for v in forest.bottom_up_order():
            k = forest.depth_of(v)
            structure = base_structure(graph, forest, v)
            vertex_item, edge_items = owned_items(graph, forest, v)
            leaf_table: Dict[State, int] = {}
            leaf_choice: Dict[State, SymbolChoice] = {}
            for choice in enumerate_symbol_choices(
                structure, automaton.scope, vertex_item, edge_items
            ):
                state = automaton.leaf(choice.symbol)
                w = weight_of(choice.chosen[0])
                if better(w, leaf_table.get(state)):
                    leaf_table[state] = w
                    leaf_choice[state] = choice
            table = leaf_table
            glue_steps: List[Tuple[Vertex, Dict[State, Tuple[State, State]]]] = []
            for child in forest.children(v):
                child_table = tables.pop(child)
                merged: Dict[State, int] = {}
                back: Dict[State, Tuple[State, State]] = {}
                for s1 in sorted(table, key=automaton.intern):
                    for s2 in sorted(child_table, key=automaton.intern):
                        s = automaton.glue(k, s1, s2)
                        w = table[s1] + child_table[s2]
                        if better(w, merged.get(s)):
                            merged[s] = w
                            back[s] = (s1, s2)
                table = merged
                glue_steps.append((child, back))
            forget_table: Dict[State, int] = {}
            forget_back: Dict[State, State] = {}
            for s in sorted(table, key=automaton.intern):
                fs = automaton.forget(k, s)
                if better(table[s], forget_table.get(fs)):
                    forget_table[fs] = table[s]
                    forget_back[fs] = s
            tables[v] = forget_table
            traces[v] = _NodeTrace(leaf_choice, glue_steps, forget_back)

    # Combine the per-component tables at the empty boundary.
    roots = forest.roots()
    combined: Dict[State, int] = tables[roots[0]]
    combined_back: List[Dict[State, Tuple[State, State]]] = []
    for root in roots[1:]:
        nxt: Dict[State, int] = {}
        back: Dict[State, Tuple[State, State]] = {}
        for s1 in sorted(combined, key=automaton.intern):
            for s2 in sorted(tables[root], key=automaton.intern):
                s = automaton.glue(0, s1, s2)
                w = combined[s1] + tables[root][s2]
                if better(w, nxt.get(s)):
                    nxt[s] = w
                    back[s] = (s1, s2)
        combined = nxt
        combined_back.append(back)

    best_state: Optional[State] = None
    for s in sorted(combined, key=automaton.intern):
        if automaton.accepts(s) and better(combined[s], None if best_state is None else combined[best_state]):
            best_state = s
    if best_state is None:
        return None

    # ARGOPT top-down: peel the component combination, then each tree.
    witness: List[Any] = []
    component_states: Dict[Vertex, State] = {}
    s = best_state
    for root, back in zip(reversed(roots[1:]), reversed(combined_back)):
        left, right = back[s]
        component_states[root] = right
        s = left
    component_states[roots[0]] = s

    def reconstruct(v: Vertex, forget_state: State) -> None:
        trace = traces[v]
        state = trace.forget_back[forget_state]
        for child, back in reversed(trace.glue_steps):
            left, right = back[state]
            reconstruct(child, right)
            state = left
        witness.extend(trace.leaf_choice[state].chosen[0])

    for root, state in component_states.items():
        reconstruct(root, state)
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

    tables: Dict[Vertex, Dict[State, int]] = {}
    with profiled("algebra.count.tables"):
        for v in forest.bottom_up_order():
            k = forest.depth_of(v)
            structure = base_structure(graph, forest, v)
            vertex_item, edge_items = owned_items(graph, forest, v)
            table: Dict[State, int] = {}
            for choice in enumerate_symbol_choices(
                structure, scope, vertex_item, edge_items
            ):
                state = automaton.leaf(choice.symbol)
                table[state] = table.get(state, 0) + 1
            for child in forest.children(v):
                child_table = tables.pop(child)
                merged: Dict[State, int] = {}
                for s1, c1 in table.items():
                    for s2, c2 in child_table.items():
                        s = automaton.glue(k, s1, s2)
                        merged[s] = merged.get(s, 0) + c1 * c2
                table = merged
            forgotten: Dict[State, int] = {}
            for s, c in table.items():
                fs = automaton.forget(k, s)
                forgotten[fs] = forgotten.get(fs, 0) + c
            tables[v] = forgotten

    roots = forest.roots()
    combined = tables[roots[0]]
    for root in roots[1:]:
        nxt: Dict[State, int] = {}
        for s1, c1 in combined.items():
            for s2, c2 in tables[root].items():
                s = automaton.glue(0, s1, s2)
                nxt[s] = nxt.get(s, 0) + c1 * c2
        combined = nxt
    return sum(c for s, c in combined.items() if automaton.accepts(s))

