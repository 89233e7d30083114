"""Property-based tests (hypothesis) for the core invariants.

The crown jewel is the differential test at the bottom: *random* MSO
formulas on *random* graphs with *random* elimination forests must agree
between the Courcelle engine and the brute-force semantics — this
exercises every automaton, the compiler, and the algebra at once.
"""

from hypothesis import given, settings, strategies as st

from repro.algebra import check, compile_formula
from repro.congest import payload_bits
from repro.graph import Graph
from repro.graph import properties as props
from repro.mso import Sort, Var, evaluate
from repro.mso import syntax as sx
from repro.treedepth import (
    canonical_tree_decomposition,
    dfs_elimination_forest,
    forest_from_order,
    treedepth,
    treedepth_lower_bound,
)

# ----------------------------------------------------------------------
# Graph strategies
# ----------------------------------------------------------------------

@st.composite
def graphs(draw, min_vertices=1, max_vertices=6, connected=False):
    # Some vertices and edges carry the label "a" (the label atoms read it).
    n = draw(st.integers(min_vertices, max_vertices))
    g = Graph(range(n))
    for v in range(n):
        if draw(st.booleans()):
            g.add_vertex_label(v, "a")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for u, v in pairs:
        if draw(st.booleans()):
            g.add_edge(u, v)
            if draw(st.booleans()):
                g.add_edge_label(u, v, "a")
    if connected and not g.is_connected():
        components = g.connected_components()
        for a, b in zip(components, components[1:]):
            g.add_edge(a[0], b[0])
    return g


@st.composite
def graphs_with_order(draw):
    g = draw(graphs(max_vertices=6))
    order = draw(st.permutations(g.vertices()))
    return g, list(order)


# ----------------------------------------------------------------------
# Graph / treedepth invariants
# ----------------------------------------------------------------------

@given(graphs())
@settings(max_examples=60)
def test_components_partition_vertices(g):
    components = g.connected_components()
    seen = [v for comp in components for v in comp]
    assert sorted(seen) == g.vertices()
    assert len(set(seen)) == len(seen)


@given(graphs(), st.data())
@settings(max_examples=60)
def test_induced_subgraph_is_subgraph(g, data):
    keep = data.draw(st.sets(st.sampled_from(g.vertices())))
    sub = g.induced_subgraph(keep)
    assert set(sub.vertices()) == set(keep)
    for u, v in sub.edges():
        assert g.has_edge(u, v)


@given(graphs_with_order())
@settings(max_examples=60)
def test_any_order_yields_valid_elimination_forest(gw):
    g, order = gw
    forest = forest_from_order(g, order)
    forest.validate_for(g)
    assert forest.depth() >= treedepth(g)


@given(graphs(connected=True))
@settings(max_examples=40)
def test_treedepth_sandwich(g):
    td = treedepth(g)
    assert treedepth_lower_bound(g) <= td
    dfs = dfs_elimination_forest(g)
    dfs.validate_for(g)
    assert td <= dfs.depth() <= 2 ** td  # Lemma 2.5


@given(graphs_with_order())
@settings(max_examples=40)
def test_canonical_decomposition_always_valid(gw):
    g, order = gw
    forest = forest_from_order(g, order)
    decomposition = canonical_tree_decomposition(forest)
    decomposition.validate_for(g)
    assert decomposition.width() == forest.depth() - 1


# ----------------------------------------------------------------------
# CONGEST payload accounting
# ----------------------------------------------------------------------

payloads = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2 ** 20), 2 ** 20),
        st.text(alphabet="abc", max_size=4),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.frozensets(st.integers(0, 8), max_size=4),
    ),
    max_leaves=6,
)


@given(payloads)
@settings(max_examples=80)
def test_payload_bits_positive_and_deterministic(p):
    bits = payload_bits(p)
    assert bits > 0
    assert payload_bits(p) == bits


# ----------------------------------------------------------------------
# Differential: random formulas, engine vs brute force
# ----------------------------------------------------------------------

_X = Var("X", Sort.VERTEX_SET)
_Y = Var("Y", Sort.VERTEX_SET)
_E = Var("E", Sort.EDGE_SET)
_x = Var("x", Sort.VERTEX)
_y = Var("y", Sort.VERTEX)

_ATOMS = [
    sx.Adj(_X, _Y),
    sx.Adj(_X, _X),
    sx.Adj(_x, _y),
    sx.Adj(_x, _X),
    sx.Eq(_x, _y),
    sx.In(_x, _X),
    sx.NonEmpty(_X),
    sx.NonEmpty(_E),
    sx.Subset(_X, (_Y,)),
    sx.Subset(_X, (_X,)),
    sx.SetsIntersect(_X, _Y),
    sx.AllVerticesIn((_X, _Y)),
    sx.Inc(_x, _E),
    sx.Inc(_X, _E),
    sx.EdgeCross(_E, _X, _Y),
    sx.EdgeCross(_E, _X, None),
    sx.IncCounts(_E, frozenset({0, 1})),
    sx.IncCounts(_E, frozenset({0, 2, 3}), _X),
    sx.IncCounts(_E, frozenset({0, 3}), cap=4),
    sx.IncParity(_E, even=True),
    sx.IncParity(_E, even=False, within=_X),
    sx.AllEdgesIn((_E,)),
    sx.IsClique(_X),
    sx.IsClique(_x),
    sx.EndpointsIn(_E, _X),
    sx.HasLabel(_X, "a"),
    sx.HasLabel(_E, "a"),
    sx.AllHaveLabel(_X, "a"),
    sx.AllHaveLabel(_E, "a"),
    sx.GraphDegrees(frozenset({0, 1, 2}), cap=3),
    sx.Truth(True),
]


def _atoms_strategy():
    return st.sampled_from(_ATOMS)


_bodies = st.recursive(
    _atoms_strategy(),
    lambda inner: st.one_of(
        st.builds(sx.Not, inner),
        st.builds(lambda a, b: sx.And((a, b)), inner, inner),
        st.builds(lambda a, b: sx.Or((a, b)), inner, inner),
    ),
    max_leaves=4,
)


@st.composite
def closed_formulas(draw):
    body = draw(_bodies)
    # Quantify every variable the body mentions, innermost-out, with a
    # random quantifier each.
    used = sorted(sx.free_variables(body), key=lambda v: v.name)
    formula = body
    for var in used:
        kind = draw(st.sampled_from([sx.Exists, sx.Forall]))
        formula = kind(var, formula)
    return formula


@given(closed_formulas(), graphs(max_vertices=4))
@settings(max_examples=120)
def test_engine_agrees_with_semantics_on_random_formulas(formula, g):
    if g.num_vertices() == 0:
        return
    expected = evaluate(g, formula)
    forest = dfs_elimination_forest(g)
    automaton = compile_formula(formula, ())
    assert check(formula, g, forest, automaton) == expected


@given(graphs(max_vertices=5, connected=True), st.permutations(list(range(5))))
@settings(max_examples=40)
def test_engine_forest_independence(g, perm):
    # The engine's verdict must be identical on *any* valid forest.
    from repro.mso import formulas as cat

    order = [v for v in perm if v in set(g.vertices())]
    for v in g.vertices():
        if v not in order:
            order.append(v)
    forest_a = dfs_elimination_forest(g)
    forest_b = forest_from_order(g, order)
    formula = cat.acyclic()
    automaton = compile_formula(formula, ())
    assert check(formula, g, forest_a, automaton) == check(
        formula, g, forest_b, automaton
    ) == props.is_acyclic(g)
