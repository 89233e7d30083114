"""Baseline CONGEST algorithm: gather the whole graph, decide centrally.

This is the generic strategy the meta-theorem competes against: every node
floods every edge it knows; once a node has collected all m edges it can
evaluate *any* predicate locally.  Round complexity is Θ(m + diam) with
O(log n)-bit messages (one edge id per edge per round, pipelined) — the
benchmark E4 contrasts this linear-in-m growth with the treedepth
algorithm's n-independent round count.

Knowledge assumption: nodes are given m (the number of edges) so they can
detect completion; this only *helps* the baseline, making the comparison
conservative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Set, Tuple

from ..congest import (
    Inbox,
    NodeContext,
    node_program,
    ordered_inbox,
    require_connected,
    run_protocol,
)
from ..errors import ProtocolError
from ..graph import Graph, Vertex, canonical_edge
from ..runconfig import RunConfig, resolve_tracer


def gather_and_decide_program(decide: Callable[[Graph], bool]):
    """Node program: flood all edges, rebuild G locally, apply ``decide``."""

    @node_program
    def program(ctx: NodeContext) -> Generator[None, Inbox, bool]:
        m_total = int(ctx.input["m"])
        known: Set[Tuple[Vertex, Vertex]] = {
            canonical_edge(ctx.node, u) for u in ctx.neighbors
        }
        # Per-neighbor send queues (pipelined flooding: one edge per
        # neighbor per round).
        queues: Dict[Vertex, List[Tuple[Vertex, Vertex]]] = {
            u: sorted(known) for u in ctx.neighbors
        }
        while True:
            progress = False
            for u in ctx.neighbors:
                if queues[u]:
                    ctx.send(u, ("edge", queues[u].pop(0)))
                    progress = True
            if len(known) == m_total and not progress:
                # Everything known and flushed: rebuild and decide.
                graph = Graph()
                graph.add_vertex(ctx.node)
                for a, b in known:
                    graph.add_edge(a, b)
                return decide(graph)
            inbox = yield
            # Canonical sender order: the relay queues must grow in an
            # order independent of message delivery order.
            for _, payload in ordered_inbox(inbox):
                if isinstance(payload, tuple) and payload and payload[0] == "edge":
                    edge = (payload[1][0], payload[1][1])
                    if edge not in known:
                        known.add(edge)
                        for u in ctx.neighbors:
                            queues[u].append(edge)

    return program


@dataclass
class BaselineDecision:
    """Result of the gather-everything baseline."""

    accepted: bool
    rounds: int
    max_message_bits: int
    total_bits: int


def gather_decide(
    graph: Graph,
    decide: Callable[[Graph], bool],
    *,
    config: Optional[RunConfig] = None,
) -> BaselineDecision:
    """Run the baseline on ``graph`` with local decision rule ``decide``.

    Of ``config`` (default ``RunConfig()``) only the budget, delivery
    order, seed, fault plan and tracer apply to this protocol.
    """
    require_connected(graph)
    cfg = config or RunConfig()
    inputs = {v: {"m": graph.num_edges()} for v in graph.vertices()}
    result = run_protocol(
        graph,
        gather_and_decide_program(decide),
        inputs=inputs,
        budget=cfg.budget,
        max_rounds=50 + 4 * graph.num_edges() + 2 * graph.num_vertices(),
        tracer=resolve_tracer(cfg.trace),
        inbox_order=cfg.inbox_order,
        seed=cfg.seed,
        faults=cfg.faults,
    )
    verdicts = set(result.outputs.values())
    if len(verdicts) != 1:
        raise ProtocolError(f"baseline verdicts disagree: {result.outputs}")
    return BaselineDecision(
        accepted=bool(verdicts.pop()),
        rounds=result.rounds,
        max_message_bits=result.metrics.max_message_bits,
        total_bits=result.metrics.total_bits,
    )
