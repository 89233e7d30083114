"""End-to-end tests of the distributed protocols (Algorithm 2, Theorem 6.1,
Section 6) against the sequential engine and the brute-force oracles."""

import pytest

from repro.algebra import compile_formula, compile_with_singletons
from repro.distributed import (
    build_elimination_tree,
    count_pipeline,
    decide_pipeline,
    gather_decide,
    optimize_pipeline,
    optmarked_distributed,
)
from repro.graph import Graph
from repro.graph import generators as gen
from repro.graph import properties as props
from repro.mso import edge_set, evaluate, formulas, vertex_set
from repro.obs import Tracer
from repro.runconfig import RunConfig
from repro.treedepth import treedepth


def small_networks():
    return [
        Graph([0]),
        gen.path(2),
        gen.path(7),
        gen.star(4),
        gen.cycle(4),
        gen.paw(),
        gen.random_bounded_treedepth(10, 3, seed=1),
        gen.random_bounded_treedepth(12, 3, seed=2, edge_prob=0.3),
        gen.caterpillar(3, 2),
    ]


# ----------------------------------------------------------------------
# Algorithm 2: elimination tree construction
# ----------------------------------------------------------------------

@pytest.mark.parametrize("index", range(9))
def test_elimination_tree_valid_and_bounded(index):
    g = small_networks()[index]
    td = treedepth(g)
    result = build_elimination_tree(g, d=td)
    assert result.accepted
    assert result.forest is not None
    result.forest.validate_for(g)
    # Lemma 2.5: the constructed tree is a subgraph of G of depth < 2^d.
    assert result.forest.is_subforest_of(g)
    assert result.forest.depth() <= 2 ** td
    # Each node's bag is its root path.
    for v, out in result.outputs.items():
        assert out.bag == tuple(result.forest.root_path(v))
        assert out.depth == result.forest.depth_of(v)
        assert tuple(sorted(result.forest.children(v))) == out.children


def test_elimination_tree_reports_exceeded():
    g = gen.path(8)  # treedepth 4 > 1
    result = build_elimination_tree(g, d=1)
    assert not result.accepted
    assert any(
        out.status == "treedepth_exceeded" for out in result.outputs.values()
    )


def test_elimination_tree_rounds_independent_of_n():
    # Same treedepth, growing n: round count must not grow (Theorem 6.1).
    rounds = []
    for n in (8, 16, 32, 64):
        g = gen.star(n - 1)
        result = build_elimination_tree(g, d=2)
        assert result.accepted
        rounds.append(result.rounds)
    assert len(set(rounds)) == 1


def test_elimination_requires_connected():
    from repro.errors import ProtocolError
    from repro.graph import disjoint_union

    with pytest.raises(ProtocolError):
        build_elimination_tree(disjoint_union(gen.path(2), gen.path(2)), d=2)


def test_elimination_messages_within_budget():
    g = gen.random_bounded_treedepth(20, 3, seed=5)
    result = build_elimination_tree(g, d=3)
    assert result.accepted
    from repro.congest import default_budget

    assert result.max_message_bits <= default_budget(20)


@pytest.mark.parametrize("graph, d", [
    (gen.random_bounded_treedepth(12, 3, seed=5), 3),
    (gen.random_bounded_treedepth(12, 3, seed=5), 5),
    (gen.random_bounded_treedepth(128, 3, seed=0), 3),
    (gen.random_tree(40, seed=0), 4),
], ids=["golden-d3", "golden-d5", "bounded-128-d3", "random-tree-d4"])
def test_adoption_messages_linear_in_edges(graph, d):
    # Each vertex is adopted once and hears candidates during the next step
    # only, from its neighbours still unmarked then; so each edge carries at
    # most one candidate, toward the endpoint adopted first, and the
    # adoption rounds send at most m candidates plus n - 1 adoptions
    # whatever d is (every vertex sending to every neighbour at every step
    # was Theta(2^d * m)).
    tracer = Tracer()
    result = build_elimination_tree(graph, d, config=RunConfig(trace=tracer))
    assert result.accepted
    bound = graph.num_edges() + graph.num_vertices() - 1
    assert tracer.phase_stats["elimination/adoption"].messages <= bound


# ----------------------------------------------------------------------
# Theorem 6.1: decision
# ----------------------------------------------------------------------

DECISION_CASES = [
    ("triangle_free", formulas.triangle_free(),
     lambda g: not props.has_subgraph(g, gen.triangle())),
    ("acyclic", formulas.acyclic(), props.is_acyclic),
    ("2colorable", formulas.k_colorable(2), lambda g: props.is_k_colorable(g, 2)),
    ("non_3_colorable", formulas.not_k_colorable(3),
     lambda g: not props.is_k_colorable(g, 3)),
    ("c4_free", formulas.h_free(gen.cycle(4)),
     lambda g: not props.has_subgraph(g, gen.cycle(4))),
]


@pytest.mark.parametrize("name,formula,oracle", DECISION_CASES,
                         ids=[c[0] for c in DECISION_CASES])
def test_distributed_decision_matches_oracle(name, formula, oracle):
    automaton = compile_formula(formula, ())
    for g in small_networks():
        d = treedepth(g)
        outcome = decide_pipeline(automaton, g, d=d)
        assert not outcome.treedepth_exceeded
        assert outcome.accepted == oracle(g), g
        if g.num_vertices() > 1:
            # Some class id crossed a wire.
            assert outcome.num_classes > 0


def test_distributed_decision_treedepth_exceeded():
    automaton = compile_formula(formulas.acyclic(), ())
    outcome = decide_pipeline(automaton, gen.path(8), d=1)
    assert outcome.treedepth_exceeded
    assert not outcome.accepted


def test_distributed_decision_labeled():
    g = gen.path(3)
    for v, lab in [(0, "red"), (1, "blue"), (2, "red")]:
        g.add_vertex_label(v, lab)
    automaton = compile_formula(formulas.properly_2_labeled(), ())
    assert decide_pipeline(automaton, g, d=2).accepted
    g2 = gen.path(3)
    g2.add_vertex_label(0, "red")
    g2.add_vertex_label(1, "red")
    g2.add_vertex_label(2, "blue")
    assert not decide_pipeline(automaton, g2, d=2).accepted


def test_distributed_decision_rounds_independent_of_n():
    automaton = compile_formula(formulas.triangle_free(), ())
    rounds = []
    for n in (8, 16, 32):
        g = gen.star(n - 1)
        outcome = decide_pipeline(automaton, g, d=2)
        rounds.append(outcome.total_rounds)
    assert len(set(rounds)) == 1


# ----------------------------------------------------------------------
# Theorem 6.1: optimization
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "factory,maximize,oracle",
    [
        (formulas.independent_set, True, props.max_independent_set),
        (formulas.vertex_cover, False, props.min_vertex_cover),
        (formulas.dominating_set, False, props.min_dominating_set),
    ],
)
def test_distributed_optimization_matches_bruteforce(factory, maximize, oracle):
    s = vertex_set("S")
    formula = factory(s)
    automaton = compile_formula(formula, (s,))
    for g in [gen.path(6), gen.cycle(5), gen.star(4),
              gen.random_bounded_treedepth(9, 3, seed=7)]:
        outcome = optimize_pipeline(automaton, g, d=treedepth(g), maximize=maximize)
        assert outcome.feasible
        expected, _ = oracle(g)
        assert outcome.value == expected, g
        assert evaluate(g, formula, {s: outcome.witness})
        assert len(outcome.witness) == expected


def test_distributed_optimization_weighted():
    g = gen.path(4)
    for v, w in [(0, 2), (1, 10), (2, 2), (3, 2)]:
        g.set_vertex_weight(v, w)
    s = vertex_set("S")
    automaton = compile_formula(formulas.independent_set(s), (s,))
    outcome = optimize_pipeline(automaton, g, d=3, maximize=True)
    assert outcome.feasible
    assert outcome.value == 12
    assert outcome.witness == frozenset({1, 3})


def test_distributed_optimization_edge_sets():
    m = edge_set("M")
    automaton = compile_formula(formulas.matching(m), (m,))
    for g in [gen.path(5), gen.star(4), gen.cycle(4)]:
        outcome = optimize_pipeline(automaton, g, d=treedepth(g), maximize=True)
        assert outcome.feasible
        assert outcome.value == props.max_matching_size(g)
        assert props.is_matching(g, outcome.witness)


def test_distributed_mst():
    g = gen.cycle(4)
    g.set_edge_weight(0, 1, 5)
    g.set_edge_weight(1, 2, 1)
    g.set_edge_weight(2, 3, 1)
    g.set_edge_weight(0, 3, 1)
    t = edge_set("T")
    automaton = compile_formula(formulas.spanning_tree(t), (t,))
    outcome = optimize_pipeline(automaton, g, d=3, maximize=False)
    assert outcome.feasible
    assert outcome.value == 3
    assert props.is_spanning_tree(g, outcome.witness)


def test_distributed_optimization_infeasible():
    from repro.mso import IncCounts, and_

    t = edge_set("T")
    impossible = and_(formulas.matching(t), IncCounts(t, frozenset({2})))
    automaton = compile_formula(impossible, (t,))
    outcome = optimize_pipeline(automaton, gen.path(2), d=2)
    assert not outcome.feasible
    assert outcome.witness == frozenset()


# ----------------------------------------------------------------------
# Section 6: counting and optmarked
# ----------------------------------------------------------------------

def test_distributed_triangle_counting():
    formula, variables = formulas.triangle_assignment()
    automaton = compile_with_singletons(formula, variables)
    for g in [gen.clique(4), gen.paw(), gen.cycle(5), gen.diamond()]:
        outcome = count_pipeline(automaton, g, d=treedepth(g))
        assert outcome.count == 6 * props.count_triangles(g), g


def test_distributed_counting_large_counts_fragmented():
    # #independent-sets grows exponentially; counts must still arrive.
    s = vertex_set("S")
    automaton = compile_formula(formulas.independent_set(s), (s,))
    g = gen.star(12)
    outcome = count_pipeline(automaton, g, d=2)
    from repro.mso import count_satisfying_assignments

    assert outcome.count == 2 ** 12 + 1  # leaves free + center alone


def test_distributed_optmarked_accepts_optimum():
    g = gen.cycle(5)
    s = vertex_set("S")
    automaton = compile_formula(formulas.independent_set(s), (s,))
    _, best = props.max_independent_set(g)
    outcome = optmarked_distributed(automaton, g, d=3, marked=best, maximize=True)
    assert outcome.accepted


def test_distributed_optmarked_rejects_suboptimal_and_invalid():
    g = gen.cycle(5)
    s = vertex_set("S")
    automaton = compile_formula(formulas.independent_set(s), (s,))
    # Feasible but not maximum.
    sub = optmarked_distributed(automaton, g, d=3, marked=frozenset({0}), maximize=True)
    assert not sub.accepted
    # Not even feasible.
    bad = optmarked_distributed(
        automaton, g, d=3, marked=frozenset({0, 1}), maximize=True
    )
    assert not bad.accepted


def test_distributed_optmarked_mst():
    g = gen.cycle(4)
    g.set_edge_weight(0, 1, 5)
    t = edge_set("T")
    automaton = compile_formula(formulas.spanning_tree(t), (t,))
    good = frozenset({(0, 3), (1, 2), (2, 3)})
    outcome = optmarked_distributed(automaton, g, d=3, marked=good, maximize=False)
    assert outcome.accepted
    bad = frozenset({(0, 1), (1, 2), (2, 3)})  # weight 7, not minimum
    outcome2 = optmarked_distributed(automaton, g, d=3, marked=bad, maximize=False)
    assert not outcome2.accepted


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------

def test_gather_baseline_correct():
    for g in [gen.path(5), gen.cycle(6), gen.random_connected_graph(10, 5, seed=3)]:
        outcome = gather_decide(
            g, lambda h: not props.has_subgraph(h, gen.triangle())
        )
        assert outcome.accepted == (not props.has_subgraph(g, gen.triangle()))


def test_gather_baseline_rounds_grow_with_size():
    small = gather_decide(gen.path(8), props.is_acyclic)
    large = gather_decide(gen.path(40), props.is_acyclic)
    assert large.rounds > small.rounds


def test_gather_baseline_takes_run_config():
    # The baseline's delivery order, seed and tracer come from config=.
    tracer = Tracer()
    plain = gather_decide(gen.path(8), props.is_acyclic)
    shuffled = gather_decide(
        gen.path(8), props.is_acyclic,
        config=RunConfig(inbox_order="shuffle", seed=3, trace=tracer),
    )
    assert (shuffled.accepted, shuffled.rounds) == (plain.accepted, plain.rounds)
    assert tracer.total_rounds() == plain.rounds
