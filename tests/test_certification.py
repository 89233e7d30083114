"""Certification scheme: completeness, soundness (via corruption fuzzing),
and the size/rounds trade-off against the decision protocol."""

import random

import pytest

from repro.algebra import compile_formula
from repro.certification import prove, verify
from repro.errors import CertificationError, ProtocolError
from repro.graph import generators as gen
from repro.graph import properties as props
from repro.mso import formulas
from repro.treedepth import optimal_elimination_forest


def test_completeness_acyclicity():
    automaton = compile_formula(formulas.acyclic(), ())
    for g in [gen.path(6), gen.star(5), gen.caterpillar(3, 2),
              gen.random_tree(12, seed=4)]:
        instance = prove(g, automaton)
        result = verify(g, automaton, instance)
        assert result.accepted, g
        assert result.rounds <= 2  # one communication round


def test_completeness_triangle_free():
    automaton = compile_formula(formulas.triangle_free(), ())
    g = gen.cycle(6)
    instance = prove(g, automaton)
    assert verify(g, automaton, instance).accepted


def test_completeness_labeled():
    g = gen.path(4)
    for v, lab in enumerate(["red", "blue", "red", "blue"]):
        g.add_vertex_label(v, lab)
    automaton = compile_formula(formulas.properly_2_labeled(), ())
    instance = prove(g, automaton)
    assert verify(g, automaton, instance).accepted


def test_prover_refuses_false_statements():
    automaton = compile_formula(formulas.acyclic(), ())
    with pytest.raises(CertificationError):
        prove(gen.cycle(4), automaton)


def test_prover_requires_closed_formula():
    from repro.mso import vertex_set

    s = vertex_set("S")
    automaton = compile_formula(formulas.independent_set(s), (s,))
    with pytest.raises(CertificationError):
        prove(gen.path(3), automaton)


def test_soundness_corrupted_class():
    automaton = compile_formula(formulas.acyclic(), ())
    g = gen.path(6)
    instance = prove(g, automaton)
    # Flip the certified class of one node to every other known class:
    # some node must reject each time.
    target = 3
    parent, depth, bag, class_id = instance.certificates[target]
    for other in range(instance.codec.num_classes):
        if other == class_id:
            continue
        instance.certificates[target] = (parent, depth, bag, other)
        assert not verify(g, automaton, instance).accepted, other
    instance.certificates[target] = (parent, depth, bag, class_id)


def test_soundness_corrupted_structure():
    automaton = compile_formula(formulas.triangle_free(), ())
    g = gen.star(4)
    instance = prove(g, automaton)
    parent, depth, bag, class_id = instance.certificates[2]
    corruptions = [
        (parent, depth + 1, bag, class_id),          # wrong depth
        (parent, depth, bag[:-1] + (99,), class_id),  # bag not ending in v
        (parent, depth, (2,), class_id),              # bag pretends root
        (3, depth, bag, class_id),                    # parent not an ancestor
        (parent, depth, bag, 10 ** 6),                # class id out of range
    ]
    for bad in corruptions:
        instance.certificates[2] = bad
        assert not verify(g, automaton, instance).accepted, bad
    instance.certificates[2] = (parent, depth, bag, class_id)


def test_soundness_fuzzing_random_corruptions():
    automaton = compile_formula(formulas.acyclic(), ())
    g = gen.random_tree(10, seed=8)
    rng = random.Random(1)
    instance = prove(g, automaton)
    original = dict(instance.certificates)
    for trial in range(20):
        instance.certificates.update(original)
        victim = rng.choice(g.vertices())
        parent, depth, bag, class_id = instance.certificates[victim]
        mode = rng.randrange(3)
        if mode == 0:
            corrupted = (parent, depth, bag, (class_id + 1) % max(1, instance.codec.num_classes))
            if corrupted[3] == class_id:
                continue
        elif mode == 1:
            corrupted = (parent, max(1, depth - 1), bag, class_id)
        else:
            corrupted = (victim, depth, bag, class_id)
            if parent == victim:
                continue
        if corrupted == (parent, depth, bag, class_id):
            continue  # the mutation was a no-op (e.g. root depth clamp)
        instance.certificates[victim] = corrupted
        assert not verify(g, automaton, instance).accepted, (victim, corrupted)
    instance.certificates.update(original)


def test_certificate_size_is_logarithmic_per_depth():
    # For fixed treedepth the certificate is O(log n) bits: doubling n
    # must not double the certificate size.
    automaton = compile_formula(formulas.acyclic(), ())
    sizes = []
    for leaves in (8, 64, 512):
        g = gen.star(leaves)
        # The heuristic prover forest on a star is the optimal one (depth 2).
        instance = prove(g, automaton)
        sizes.append(instance.max_certificate_bits)
    assert sizes[2] < 2 * sizes[0]


def test_verification_single_round_vs_decision_rounds():
    # The trade-off of E8: verification is 1 round; the decision protocol
    # pays O(2^{2d}) rounds.
    from repro.distributed import decide_pipeline

    automaton = compile_formula(formulas.acyclic(), ())
    g = gen.caterpillar(4, 2)
    instance = prove(g, automaton)
    verification = verify(g, automaton, instance)
    assert verification.accepted
    from repro.treedepth import treedepth

    decision = decide_pipeline(compile_formula(formulas.acyclic(), ()), g, d=treedepth(g))
    assert decision.accepted
    assert verification.rounds < decision.total_rounds


# -- a disconnected network fails closed ------------------------------------

def _triangle_plus_edge():
    g = gen.triangle()
    g.add_edge(3, 4)
    return g


def test_certify_refuses_disconnected_graph():
    # Each component is connected on its own, so checking every DFS root
    # separately would certify connectivity of a graph that lacks it.
    from repro.algebra import check
    from repro.api import Session
    from repro.treedepth import dfs_elimination_forest

    g = _triangle_plus_edge()
    assert not check(formulas.connected(), g, dfs_elimination_forest(g))
    with pytest.raises(ProtocolError, match="connected network"):
        Session(g, 3).certify(formulas.connected())


def test_certify_refuses_disconnected_graph_with_true_property():
    from repro.api import Session
    from repro.mso import syntax as sx

    g = _triangle_plus_edge()
    assert props.count_triangles(g) == 1
    with pytest.raises(ProtocolError, match="connected network"):
        Session(g, 3).certify(sx.Not(formulas.h_free(gen.triangle())))


def test_verify_refuses_disconnected_graph():
    # The certificates a per-root prover would hand out: one honest tree
    # per component, every root accepting its own component.
    from repro.algebra.engine import subtree_states
    from repro.certification import CertifiedInstance
    from repro.congest import payload_bits
    from repro.distributed.model_checking import ClassCodec
    from repro.treedepth import dfs_elimination_forest

    g = _triangle_plus_edge()
    automaton = compile_formula(formulas.connected(), ())
    forest = dfs_elimination_forest(g)
    assert len(forest.roots()) == 2
    states = subtree_states(automaton, g, forest)
    assert all(automaton.accepts(states[root]) for root in forest.roots())
    codec = ClassCodec(automaton)
    certificates = {
        v: (
            forest.parent(v) if forest.parent(v) is not None else v,
            forest.depth_of(v),
            tuple(forest.root_path(v)),
            codec.encode(states[v]),
        )
        for v in g.vertices()
    }
    instance = CertifiedInstance(
        certificates=certificates,
        max_certificate_bits=max(map(payload_bits, certificates.values())),
        codec=codec,
    )
    with pytest.raises(ProtocolError, match="connected network"):
        verify(g, automaton, instance)
    with pytest.raises(ProtocolError, match="connected network"):
        prove(g, automaton, forest)
