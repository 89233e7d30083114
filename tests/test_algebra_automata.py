"""Unit tests for individual automata and symbol machinery."""

import pickle

import pytest

from repro.algebra import automata, compiler, engine
from repro.algebra import (
    BaseStructure,
    BaseSymbol,
    ComplementAutomaton,
    ConstAutomaton,
    EdgeWitnessAutomaton,
    IncCountsAutomaton,
    ItemScanAutomaton,
    ProductAutomaton,
    ProjectionAutomaton,
    SingletonAutomaton,
    base_structure,
    enumerate_symbol_choices,
    extend_symbol,
    owned_items,
    symbol_for_assignment,
)
from repro.algebra.automata import component_automata
from repro.algebra.cache import transition_table_bytes
from repro.errors import ReproError
from repro.graph import generators as gen
from repro.mso import Sort, Var, formulas, vertex_set
from repro.treedepth import EliminationForest
from repro.treedepth.heuristics import best_heuristic_forest


def chain_forest():
    # Path 0-1-2 with elimination chain 0 -> 1 -> 2.
    return EliminationForest({0: None, 1: 0, 2: 1})


def make_symbol(depth, anc_edges, vbits=(), ebits=None, labels=()):
    structure = BaseStructure(
        depth=depth,
        anc_edges=tuple(anc_edges),
        vlabels=frozenset(labels),
        elabels=tuple((p, frozenset()) for p in anc_edges),
    )
    ebits = ebits or {}
    return BaseSymbol(
        structure=structure,
        vbits=frozenset(vbits),
        ebits=tuple((p, frozenset(ebits.get(p, ()))) for p in anc_edges),
    )


# ----------------------------------------------------------------------
# Symbols
# ----------------------------------------------------------------------

def test_base_structure_from_graph():
    g = gen.path(3)
    forest = chain_forest()
    s2 = base_structure(g, forest, 2)
    assert s2.depth == 3
    assert s2.anc_edges == (2,)  # edge to vertex 1 at position 2
    s0 = base_structure(g, forest, 0)
    assert s0.depth == 1 and s0.anc_edges == ()


def test_owned_items():
    g = gen.path(3)
    forest = chain_forest()
    v, edges = owned_items(g, forest, 2)
    assert v == 2
    assert edges == [(2, (1, 2))]


def test_symbol_for_assignment_sets_bits():
    g = gen.path(3)
    forest = chain_forest()
    structure = base_structure(g, forest, 2)
    v, edges = owned_items(g, forest, 2)
    s = Var("S", Sort.VERTEX_SET)
    m = Var("M", Sort.EDGE_SET)
    symbol = symbol_for_assignment(
        structure, (s, m), v, edges,
        {s: frozenset({2}), m: frozenset({(1, 2)})},
    )
    assert symbol.vbits == {0}
    assert symbol.edge_bits_at(2) == {1}


def test_enumerate_symbol_choices_counts():
    g = gen.path(3)
    forest = chain_forest()
    structure = base_structure(g, forest, 2)
    v, edges = owned_items(g, forest, 2)
    s = Var("S", Sort.VERTEX_SET)
    m = Var("M", Sort.EDGE_SET)
    choices = list(enumerate_symbol_choices(structure, (s, m), v, edges))
    # vertex in/out of S x edge in/out of M.
    assert len(choices) == 4
    chosen_sets = {tuple(c.chosen) for c in choices}
    assert len(chosen_sets) == 4


def test_extend_symbol_vertex_and_edge():
    symbol = make_symbol(3, (1, 2))
    vertex_exts = list(extend_symbol(symbol, 0, Sort.VERTEX_SET))
    assert len(vertex_exts) == 2
    edge_exts = list(extend_symbol(symbol, 0, Sort.EDGE_SET))
    assert len(edge_exts) == 4  # 2 ancestor-edge slots


# ----------------------------------------------------------------------
# Atomic automata, driven by hand
# ----------------------------------------------------------------------

def run_chain(automaton, symbols):
    """Run a chain graph: deepest symbol first; each is glued then forgotten."""
    state = None
    for depth in range(len(symbols), 0, -1):
        sym = symbols[depth - 1]
        leaf = automaton.leaf(sym)
        if state is None:
            state = leaf
        else:
            state = automaton.glue(depth, state, leaf)
        state = automaton.forget(depth, state)
    return state


def test_singleton_automaton():
    s = Var("S", Sort.VERTEX_SET)
    aut = SingletonAutomaton((s,), 0)
    symbols = [make_symbol(1, ()), make_symbol(2, (1,), vbits=(0,))]
    state = run_chain(aut, symbols)
    assert aut.accepts(state)
    both = [make_symbol(1, (), vbits=(0,)), make_symbol(2, (1,), vbits=(0,))]
    assert not aut.accepts(run_chain(aut, both))
    none = [make_symbol(1, ()), make_symbol(2, (1,))]
    assert not aut.accepts(run_chain(aut, none))


def test_item_scan_with_empty_outside():
    # X ⊆ ∅, i.e. X = ∅: the ∀ scan with no outside set.  The syntax has
    # no ⊆ with zero supersets, so only the automaton is asked this.
    x = Var("X", Sort.VERTEX_SET)
    aut = ItemScanAutomaton((x,), inside=(0,), universal=True)
    empty = [make_symbol(1, ()), make_symbol(2, (1,))]
    assert aut.accepts(run_chain(aut, empty))
    one = [make_symbol(1, ()), make_symbol(2, (1,), vbits=(0,))]
    assert not aut.accepts(run_chain(aut, one))


def test_edge_witness_adjacency():
    x = Var("X", Sort.VERTEX_SET)
    y = Var("Y", Sort.VERTEX_SET)
    aut = EdgeWitnessAutomaton((x, y), x=0, y=1)
    # Chain 0-1: vertex 1 (deeper) in X, vertex 0 in Y, edge present.
    symbols = [make_symbol(1, (), vbits=(1,)), make_symbol(2, (1,), vbits=(0,))]
    assert aut.accepts(run_chain(aut, symbols))
    # No edge between them (anc_edges empty).
    no_edge = [make_symbol(1, (), vbits=(1,)), make_symbol(2, (), vbits=(0,))]
    assert not aut.accepts(run_chain(aut, no_edge))
    # Edge present but bits on the same endpoint only.
    same = [make_symbol(1, ()), make_symbol(2, (1,), vbits=(0, 1))]
    assert not aut.accepts(run_chain(aut, same))


def test_edge_witness_with_filter():
    e = Var("E", Sort.EDGE_SET)
    x = Var("X", Sort.VERTEX_SET)
    aut = EdgeWitnessAutomaton((e, x), x=1, y=None, edge_filter=0)
    # Edge in E, deeper endpoint in X.
    hit = [make_symbol(1, ()), make_symbol(2, (1,), vbits=(1,), ebits={1: (0,)})]
    assert aut.accepts(run_chain(aut, hit))
    # Edge not in E.
    miss = [make_symbol(1, ()), make_symbol(2, (1,), vbits=(1,))]
    assert not aut.accepts(run_chain(aut, miss))
    # Edge in E, ancestor endpoint in X (resolved at the ancestor's forget).
    anc = [make_symbol(1, (), vbits=(1,)), make_symbol(2, (1,), ebits={1: (0,)})]
    assert aut.accepts(run_chain(aut, anc))


def test_graph_degrees_automaton():
    aut = IncCountsAutomaton((), e=None, allowed=frozenset({0, 1}),
                             within=None, cap=2)
    # Chain 0-1-2 (path): middle vertex has degree 2 -> violated.
    symbols = [
        make_symbol(1, ()),
        make_symbol(2, (1,)),
        make_symbol(3, (2,)),
    ]
    assert not aut.accepts(run_chain(aut, symbols))
    # Single edge: both endpoints degree 1 -> fine.
    ok = [make_symbol(1, ()), make_symbol(2, (1,))]
    assert aut.accepts(run_chain(aut, ok))


def test_pending_glue_boundary_mismatch_raises():
    x = Var("X", Sort.VERTEX_SET)
    aut = EdgeWitnessAutomaton((x,), x=0, y=None)
    s1 = aut.leaf(make_symbol(2, (1,)))
    s2 = aut.leaf(make_symbol(3, (1,)))
    with pytest.raises(ReproError):
        aut.glue(2, s1, s2)


def test_pending_glue_double_base_raises():
    x = Var("X", Sort.VERTEX_SET)
    aut = EdgeWitnessAutomaton((x,), x=0, y=None)
    s1 = aut.leaf(make_symbol(2, (1,)))
    with pytest.raises(ReproError):
        aut.glue(2, s1, s1)


# ----------------------------------------------------------------------
# Composites
# ----------------------------------------------------------------------

def test_product_and_complement():
    t = ConstAutomaton((), True)
    f = ConstAutomaton((), False)
    sym = make_symbol(1, ())
    both = ProductAutomaton((), [t, f], conjunctive=True)
    either = ProductAutomaton((), [t, f], conjunctive=False)
    s_both = both.forget(1, both.leaf(sym))
    s_either = either.forget(1, either.leaf(sym))
    assert not both.accepts(s_both)
    assert either.accepts(s_either)
    neg = ComplementAutomaton((), f)
    assert neg.accepts(neg.forget(1, neg.leaf(sym)))


def test_product_requires_children():
    with pytest.raises(ReproError):
        ProductAutomaton((), [], conjunctive=True)


def test_projection_scope_discipline():
    s = vertex_set("S")
    inner = ItemScanAutomaton((s,), inside=(0,))
    proj = ProjectionAutomaton(inner, s)
    assert proj.scope == ()
    wrong = vertex_set("T")
    with pytest.raises(ReproError):
        ProjectionAutomaton(inner, wrong)


def test_projection_exists_nonempty():
    s = vertex_set("S")
    inner = ItemScanAutomaton((s,), inside=(0,))
    proj = ProjectionAutomaton(inner, s)
    sym = make_symbol(1, ())
    state = proj.forget(1, proj.leaf(sym))
    assert proj.accepts(state)  # some subset of one vertex is nonempty


def test_intern_and_num_classes():
    aut = ConstAutomaton((), True)
    sym = make_symbol(1, ())
    aut.leaf(sym)
    assert aut.num_classes() >= 1
    first = aut.intern(aut.leaf(sym))
    assert aut.intern(aut.leaf(sym)) == first


# ----------------------------------------------------------------------
# Projection row memo
# ----------------------------------------------------------------------

class PairProductProjection(ProjectionAutomaton):
    """The subset-construction glue without the row memo: every pair,
    in the inner automaton's class-id order."""

    def _glue(self, boundary, s1, s2):
        return frozenset(
            self._inner.glue(boundary, a, b)
            for a in self._members(s1) for b in self._members(s2)
        )


def compiled_with(projection, monkeypatch, phi, scope=()):
    with monkeypatch.context() as patch:
        patch.setattr(compiler, "ProjectionAutomaton", projection)
        return compiler.compile_formula(phi, scope)


def projections(automaton):
    return [
        component for component in component_automata(automaton)
        if isinstance(component, ProjectionAutomaton)
    ]


def tables_and_ids(automaton):
    """Table lines plus every component's intern ids in insertion order,
    with frozenset states spelled in their iteration order."""
    lines = transition_table_bytes(automaton).replace(
        PairProductProjection.__name__.encode(),
        ProjectionAutomaton.__name__.encode(),
    ).split(b"\n")
    ids = [
        [
            (tuple(state) if isinstance(state, frozenset) else state, class_id)
            for state, class_id in component._intern.items()
        ]
        for component in component_automata(automaton)
    ]
    return sorted(lines), ids


def dominating_set_runs(automaton, seeds):
    s = vertex_set("S")
    optima = []
    for seed in seeds:
        graph = gen.random_bounded_treedepth(12, 3, 0.5, seed=seed)
        forest = best_heuristic_forest(graph)
        result = engine.optimize(
            formulas.dominating_set(s), graph, forest, s,
            maximize=False, automaton=automaton,
        )
        optima.append(result.value)
    return optima


def three_colourable_runs(automaton, seeds):
    verdicts = []
    for seed in seeds:
        graph = gen.random_bounded_treedepth(9, 3, 0.6, seed=seed)
        forest = best_heuristic_forest(graph)
        verdicts.append(engine.check(
            formulas.k_colorable(3), graph, forest, automaton=automaton,
        ))
    return verdicts


@pytest.mark.parametrize("runs, phi, scope", [
    (dominating_set_runs, formulas.dominating_set(vertex_set("S")),
     (vertex_set("S"),)),
    # Three nested projections: an inner projection's ids depend on the
    # order in which the outer projection visits subset members.
    (three_colourable_runs, formulas.k_colorable(3), ()),
])
def test_row_memo_matches_pair_product(monkeypatch, runs, phi, scope):
    memo = compiled_with(ProjectionAutomaton, monkeypatch, phi, scope)
    plain = compiled_with(PairProductProjection, monkeypatch, phi, scope)
    assert not isinstance(projections(memo)[0], PairProductProjection)
    assert all(
        isinstance(p, PairProductProjection) for p in projections(plain)
    )
    seeds = range(6)
    assert runs(memo, seeds) == runs(plain, seeds)
    assert any(p._row_count for p in projections(memo))
    assert tables_and_ids(memo) == tables_and_ids(plain)


def test_row_memo_is_not_pickled(monkeypatch):
    phi = formulas.dominating_set(vertex_set("S"))
    warmed = compiled_with(
        ProjectionAutomaton, monkeypatch, phi, (vertex_set("S"),)
    )
    dominating_set_runs(warmed, range(3))
    assert all(p._row_count for p in projections(warmed))
    blob = pickle.dumps(warmed)
    assert b"_rows" not in blob and b"_row_count" not in blob
    copy = pickle.loads(blob)
    assert all(
        p._rows == {} and p._row_count == 0 for p in projections(copy)
    )
    # A loaded entry saved again is no larger: attribute names stay
    # interned and shared with the other components.  (Unpickled
    # frozensets may iterate in another order, so only lengths compare.)
    assert len(pickle.dumps(copy)) == len(blob)
    # Rows never reach the bytes: a warmed automaton without its rows
    # pickles the same.
    for p in projections(warmed):
        p._reset_rows()
    assert pickle.dumps(warmed) == blob
    # The copy glues on new graphs as a copy without the memo does, and
    # interns as the automaton it was pickled from: members are visited
    # in id order, whatever order the unpickled frozensets iterate in.
    reference = pickle.loads(blob)
    for p in projections(reference):
        p.__class__ = PairProductProjection
    seeds = range(3, 6)
    assert dominating_set_runs(copy, seeds) \
        == dominating_set_runs(reference, seeds) \
        == dominating_set_runs(warmed, seeds)
    assert any(p._row_count for p in projections(copy))
    assert tables_and_ids(copy) == tables_and_ids(reference)
    assert transition_table_bytes(copy) == transition_table_bytes(warmed)


def test_row_memo_stays_within_its_limit(monkeypatch):
    phi = formulas.dominating_set(vertex_set("S"))
    scope = (vertex_set("S"),)
    unbounded = compiled_with(ProjectionAutomaton, monkeypatch, phi, scope)
    plain = compiled_with(PairProductProjection, monkeypatch, phi, scope)
    limit = 16
    bounded = compiled_with(ProjectionAutomaton, monkeypatch, phi, scope)
    monkeypatch.setattr(automata, "_ROW_LIMIT", limit)
    seeds = range(6)
    optima = dominating_set_runs(plain, seeds)
    for seed in seeds:
        assert dominating_set_runs(bounded, [seed]) == [optima[seed]]
        for p in projections(bounded):
            assert p._row_count <= limit
            assert sum(len(rows) for _, rows in p._rows.values()) \
                == p._row_count
    monkeypatch.setattr(automata, "_ROW_LIMIT", 10**9)
    assert dominating_set_runs(unbounded, seeds) == optima
    assert max(p._row_count for p in projections(unbounded)) > limit
    assert tables_and_ids(bounded) == tables_and_ids(plain)
