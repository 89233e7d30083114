"""Tests for the CONGEST simulator: model enforcement, primitives, metrics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import (
    Simulation,
    default_budget,
    leader_election,
    payload_bits,
    run_protocol,
)
from repro.errors import CongestError, MessageTooLargeError, ProtocolError
from repro.graph import Graph
from repro.graph import generators as gen
from repro.obs import SendEvent, Tracer


def _sends(tracer):
    return [e for e in tracer.events if isinstance(e, SendEvent)]


# ----------------------------------------------------------------------
# Payload accounting
# ----------------------------------------------------------------------

def test_payload_bits_monotone_in_content():
    assert payload_bits(0) < payload_bits(2 ** 40)
    assert payload_bits((1, 2)) < payload_bits((1, 2, 3))
    assert payload_bits(None) < payload_bits(("x", 1))
    assert payload_bits(frozenset({1, 2})) > payload_bits(frozenset())
    assert payload_bits(True) >= 3
    # Strings are protocol-constant tags: flat cost.
    assert payload_bits("ab") == payload_bits("a")


def test_payload_rejects_unserializable():
    with pytest.raises(CongestError):
        payload_bits([1, 2])  # lists are not in the payload algebra
    with pytest.raises(CongestError):
        payload_bits({"a": 1})


def test_default_budget_scales_logarithmically():
    assert default_budget(2) == 48
    assert default_budget(1 << 20) == 80
    assert default_budget(1) == 48


# ----------------------------------------------------------------------
# Simulator semantics
# ----------------------------------------------------------------------

def test_messages_delivered_next_round():
    def program(ctx):
        ctx.send_all(("hello", ctx.node))
        inbox = yield
        return sorted(inbox)

    result = run_protocol(gen.path(3), program)
    assert result.outputs == {0: [1], 1: [0, 2], 2: [1]}
    assert result.rounds == 2
    assert result.metrics.total_messages == 4


def test_send_to_non_neighbor_rejected():
    def program(ctx):
        ctx.send(99, "x")
        yield

    with pytest.raises(CongestError):
        run_protocol(gen.path(2), program)


def test_double_send_same_round_rejected():
    def program(ctx):
        ctx.send(ctx.neighbors[0], "a")
        ctx.send(ctx.neighbors[0], "b")
        yield

    with pytest.raises(CongestError):
        run_protocol(gen.path(2), program)


def test_oversized_message_rejected():
    def program(ctx):
        ctx.send_all(tuple(range(100)))  # ~100 ints: far over budget
        yield

    with pytest.raises(MessageTooLargeError):
        run_protocol(gen.path(2), program)


def test_nonterminating_protocol_detected():
    def program(ctx):
        while True:
            yield

    with pytest.raises(ProtocolError):
        run_protocol(gen.path(2), program, max_rounds=10)


def test_empty_network_rejected():
    with pytest.raises(CongestError):
        Simulation(Graph(), lambda ctx: iter(()))


def test_single_node_runs():
    def program(ctx):
        return ctx.n
        yield  # pragma: no cover

    result = run_protocol(Graph([7]), program)
    assert result.outputs == {7: 1}


def test_metrics_recorded():
    def program(ctx):
        ctx.send_all(("m", 1))
        inbox = yield
        return len(inbox)

    result = run_protocol(gen.cycle(4), program)
    metrics = result.metrics
    assert metrics.total_messages == 8
    assert metrics.max_message_bits <= metrics.budget_bits
    assert metrics.total_bits > 0
    assert "rounds=" in metrics.summary()


def test_unanimous_helper():
    def program(ctx):
        return "ok"
        yield  # pragma: no cover

    result = run_protocol(gen.path(2), program)
    assert result.unanimous() == "ok"

    def program2(ctx):
        return ctx.node
        yield  # pragma: no cover

    with pytest.raises(ProtocolError):
        run_protocol(gen.path(2), program2).unanimous()


def test_trace_records_messages():
    def program(ctx):
        ctx.send_all(("ping", ctx.node))
        inbox = yield
        return len(inbox)

    tracer = Tracer()
    result = run_protocol(gen.path(3), program, tracer=tracer)
    assert result.outputs[1] == 2
    # 4 directed sends in round 1.
    sends = _sends(tracer)
    assert len(sends) == 4
    assert {e.round for e in sends} == {1}
    assert sorted(e.sender for e in sends) == [0, 1, 1, 2]
    assert {e.payload for e in sends} == {repr(("ping", v)) for v in (0, 1, 2)}


def test_round_number_visible_to_nodes():
    def program(ctx):
        first = ctx.round_number
        yield
        second = ctx.round_number
        return (first, second)

    result = run_protocol(gen.path(2), program)
    assert result.outputs[0] == (1, 2)


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------

def test_leader_election_elects_min_id():
    def program(ctx):
        leader, _ = yield from leader_election(ctx, True, rounds=ctx.n)
        return leader

    g = gen.random_connected_graph(8, 4, seed=3)
    result = run_protocol(g, program)
    assert all(out == 0 for out in result.outputs.values())


def test_leader_election_respects_participation():
    # Nodes 0 and 3 do not participate; P4 splits into components {1,2}.
    def program(ctx):
        participating = ctx.node in (1, 2)
        return (yield from leader_election(ctx, participating, rounds=ctx.n))

    result = run_protocol(gen.path(4), program)
    assert result.outputs[0] == (None, frozenset())
    assert result.outputs[3] == (None, frozenset())
    assert result.outputs[1] == (1, frozenset({2}))
    assert result.outputs[2] == (1, frozenset({1}))


def test_leader_election_components_do_not_leak():
    # P5 with only endpoints participating: each is its own leader even
    # though the middle vertices physically connect them.
    def program(ctx):
        participating = ctx.node in (0, 4)
        leader, _ = yield from leader_election(ctx, participating, rounds=ctx.n)
        return leader

    result = run_protocol(gen.path(5), program)
    assert result.outputs[0] == 0
    assert result.outputs[4] == 4


def _always_send_election(ctx, participating, rounds):
    """Reference min-id flood: every participant sends every round.

    Returns the leader and how often the participant's minimum improved.
    """
    best = ctx.node if participating else None
    improvements = 0
    for _ in range(rounds):
        if participating:
            ctx.send_all(("lead", best))
        inbox = yield
        if participating and inbox:
            heard = min(payload[1] for payload in inbox.values())
            if heard < best:
                best = heard
                improvements += 1
    return best, improvements


@given(
    st.integers(2, 12), st.integers(0, 10), st.integers(0, 10 ** 6),
    st.integers(0, 2 ** 12 - 1),
)
@settings(max_examples=40)
def test_leader_election_matches_always_send_flood(n, chords, seed, mask):
    """Send-on-improve elects what an always-send flood elects, at every
    node and for every horizon, including floods cut short of the
    diameter; only participants send, each at most once per improvement
    plus once, and each returns its participating neighbours."""
    graph = gen.random_connected_graph(n, chords, seed=seed)
    members = {v for v in graph.vertices() if mask >> v & 1}

    for rounds in range(1, graph.diameter() + 2):
        def program(ctx):
            return (yield from leader_election(ctx, ctx.node in members, rounds))

        def reference(ctx):
            return (yield from _always_send_election(
                ctx, ctx.node in members, rounds
            ))

        tracer = Tracer()
        got = run_protocol(graph, program, tracer=tracer).outputs
        expected = run_protocol(graph, reference).outputs
        send_rounds = {}
        for event in _sends(tracer):
            send_rounds.setdefault(event.sender, set()).add(event.round)
        for v in graph.vertices():
            leader, neighbours = got[v]
            best, improvements = expected[v]
            assert leader == best
            if v in members:
                assert neighbours == set(graph.neighbors(v)) & members
                assert len(send_rounds.get(v, ())) <= 1 + improvements
            else:
                assert neighbours == frozenset()
                assert v not in send_rounds


def test_idle_keeps_lockstep():
    # A node that stays silent for a stretch of rounds (as convergecast
    # nodes do while their children stream) still advances in lockstep.
    def program(ctx):
        for _ in range(5):
            yield
        return ctx.round_number

    result = run_protocol(gen.path(2), program)
    assert result.outputs[0] == result.outputs[1] == 6
