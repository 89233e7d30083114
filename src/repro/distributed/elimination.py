"""Algorithm 2 + Lemma 5.3 in CONGEST: distributed elimination tree and bags.

Phase structure (per node, lockstep):

1. Global leader election (min id), ``2^d`` rounds — the root r (line 2-6).
2. For step i = 2 .. 2^d - 1 (line 7):
   a. leader election among *unmarked* vertices, ``2^d`` rounds (line 9);
   b. one round: unmarked vertices send (leader, id) (line 10) to the
      neighbours adopted in the previous step — the only ones that read it;
   c. one round: each marked vertex of depth i-1 adopts, per distinct
      leader value heard, the minimum-id broadcaster as a child and tells
      it (lines 11-17); the adoptee marks itself with depth i (lines 18-20).
3. Bags (Lemma 5.3): pipelined top-down streaming of root paths — each
   node forwards its parent's bag ids to its children one per round, then
   appends its own id.
4. Verification sweep: every edge checks the ancestry condition (the
   shallower endpoint must appear in the deeper endpoint's bag).  This
   makes the protocol sound even when td(G) > d in ways the marking
   counter alone would not detect (paper line 22's check, strengthened).

If verification fails or some vertex is never marked, that vertex outputs
``status="treedepth_exceeded"`` (the paper's "reports td(G) > d"); under
the distributed-decision semantics a single rejecting node rejects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from ..congest import (
    Inbox,
    NodeContext,
    default_budget,
    leader_election,
    node_program,
    run_protocol,
)
from ..errors import DecompositionError, FaultToleranceExceeded, ProtocolError
from ..graph import Graph, Vertex
from ..obs import maybe_phase
from ..runconfig import RunConfig, resolve_tracer
from ..treedepth import EliminationForest


@dataclass
class EliminationOutput:
    """Per-node result of the distributed elimination-tree construction."""

    status: str  # "ok" or "treedepth_exceeded"
    parent: Optional[Vertex] = None
    children: Tuple[Vertex, ...] = ()
    depth: int = 0
    bag: Tuple[Vertex, ...] = ()
    anc_edge_positions: Tuple[int, ...] = ()


@node_program(rounds="200 + 40*4**d + 4*n")
def elimination_tree_program(
    ctx: NodeContext,
) -> Generator[None, Inbox, EliminationOutput]:
    """The node program (parameter d in ``ctx.input['d']``)."""
    d = int(ctx.input["d"])
    horizon = 2 ** d  # rounds per leader election; also the depth budget
    max_depth = 2 ** d - 1  # paper's D

    # -- line 2-6: global leader election, root marks itself ------------
    with ctx.phase("root-election"):
        leader, previous = yield from leader_election(
            ctx, participating=True, rounds=horizon
        )
    marked = leader == ctx.node
    depth = 1 if marked else 0
    parent: Optional[Vertex] = None
    children: List[Vertex] = []

    # -- line 7-21: one adoption step per depth --------------------------
    for step in range(2, max_depth + 1):
        with ctx.phase("adoption"):
            component_leader, current = yield from leader_election(
                ctx, participating=not marked, rounds=horizon
            )
            # (b) unmarked vertices send (leader, id) to the neighbours that
            # took part in the previous election but not in this one: those
            # adopted in the previous step, the only readers of candidates.
            if not marked:
                for neighbour in sorted(previous - current):
                    ctx.send(neighbour, ("cand", component_leader, ctx.node))
                previous = current
            inbox = yield
            # (c) marked vertices of depth step-1 adopt one child per leader.
            adopted: Dict[Vertex, Vertex] = {}
            if marked and depth == step - 1:
                for payload in sorted(inbox.values(), key=repr):
                    if isinstance(payload, tuple) and payload and payload[0] == "cand":
                        _, lead, cand = payload
                        if lead not in adopted or cand < adopted[lead]:
                            adopted[lead] = cand
                for child in adopted.values():
                    ctx.send(child, ("adopt",))
                    children.append(child)
            inbox = yield
            if not marked:
                adopters = [
                    sender
                    for sender, payload in inbox.items()
                    if isinstance(payload, tuple) and payload and payload[0] == "adopt"
                ]
                if adopters:
                    # The invariant guarantees a unique adopter; tolerate (and
                    # later reject via verification) violations of it.
                    parent = min(adopters)
                    depth = step
                    marked = True

    if not marked:
        # Line 22: still unmarked after 2^d - 1 steps -> td(G) > d.
        return EliminationOutput(status="treedepth_exceeded")

    # -- Lemma 5.3: pipelined bag streaming ------------------------------
    # Each node emits its root path to its children, one id per round:
    # first the ids relayed from its parent, then its own id, then "end".
    bag: List[Vertex] = []
    with ctx.phase("bag-streaming"):
        incoming_done = parent is None
        outgoing: List[Tuple[str, Optional[Vertex]]] = []
        if parent is None:
            outgoing = [("bagid", ctx.node), ("bagend", None)]
        sent_own = parent is None
        # The pipeline needs at most max_depth + depth rounds; add slack for
        # the end markers.
        for _ in range(2 * max_depth + 2):
            if outgoing:
                kind, value = outgoing.pop(0)
                for child in children:
                    ctx.send(child, (kind, value))
            inbox = yield
            if not incoming_done and parent in inbox:
                payload = inbox[parent]
                if isinstance(payload, tuple) and payload:
                    if payload[0] == "bagid":
                        bag.append(payload[1])
                        outgoing.append(("bagid", payload[1]))
                    elif payload[0] == "bagend":
                        incoming_done = True
                        if not sent_own:
                            outgoing.append(("bagid", ctx.node))
                            outgoing.append(("bagend", None))
                            sent_own = True
    bag_full = tuple(bag) + (ctx.node,)
    if len(bag_full) != depth:
        return EliminationOutput(status="treedepth_exceeded")

    # -- Verification sweep ----------------------------------------------
    # Every node announces (id, depth); every edge then checks ancestry:
    # the deeper endpoint must have the shallower one in its bag.
    with ctx.phase("verification"):
        ctx.send_all(("meta", depth))
        inbox = yield
    ok = True
    for neighbor, payload in inbox.items():
        if not (isinstance(payload, tuple) and payload and payload[0] == "meta"):
            ok = False
            continue
        neighbor_depth = payload[1]
        if neighbor_depth == depth:
            ok = False  # siblings joined by an edge: not ancestor-related
        elif neighbor_depth < depth and neighbor not in bag_full:
            ok = False
    # Any local violation is seen by an endpoint of the offending edge,
    # which rejects; under distributed-decision semantics that suffices
    # (the paper's model, Section 1).
    if not ok:
        return EliminationOutput(status="treedepth_exceeded")

    positions = tuple(
        pos
        for pos, ancestor in enumerate(bag_full[:-1], start=1)
        if ancestor in ctx.neighbors
    )
    return EliminationOutput(
        status="ok",
        parent=parent,
        children=tuple(sorted(children)),
        depth=depth,
        bag=bag_full,
        anc_edge_positions=positions,
    )


@dataclass
class DistributedEliminationResult:
    """Harness-side view of one Algorithm 2 execution.

    ``crashed`` maps fault-injected dead nodes to their crash round (empty
    on faultless runs); ``retransmissions`` counts redundant copies sent by
    the reliability layer when ``retry`` was used.  When crashes occurred
    and the survivors accepted, ``forest`` is the elimination tree of the
    *surviving induced subgraph* — validated against it, or the run fails
    with :class:`~repro.errors.FaultToleranceExceeded` rather than
    returning a silently wrong decomposition.
    """

    accepted: bool
    forest: Optional[EliminationForest]
    outputs: Dict[Vertex, EliminationOutput]
    rounds: int
    max_message_bits: int
    crashed: Dict[Vertex, int] = field(default_factory=dict)
    retransmissions: int = 0
    total_messages: int = 0


def _elimination_max_rounds(graph: Graph, d: int) -> int:
    return 200 + 40 * (4 ** d) + 4 * graph.num_vertices()


def build_elimination_tree(
    graph: Graph,
    d: int,
    *,
    config: Optional[RunConfig] = None,
) -> DistributedEliminationResult:
    """Run Algorithm 2 on ``graph`` with treedepth bound ``d``.

    Returns the assembled elimination tree (validated against the graph)
    when every node accepted, or ``accepted=False`` when some node reported
    td(G) > d.  ``config`` (default ``RunConfig()``) supplies the budget,
    delivery order, seed, fault plan, retry policy and tracer; rounds and
    traffic land under the ``elimination`` phase of its tracer (explicit
    or process-installed) when tracing is on.

    With ``config.retry`` the protocol runs inside the redundancy-lockstep
    synchronizer (budget and round caps are scaled automatically).  Under
    ``config.faults`` the result is never silently wrong: the protocol
    either yields a decomposition that *validates* against the surviving
    induced subgraph, or raises
    :class:`~repro.errors.FaultToleranceExceeded`.
    """
    if not graph.is_connected():
        raise ProtocolError("CONGEST requires a connected network")
    cfg = config or RunConfig()
    tracer = resolve_tracer(cfg.trace)
    inputs = {v: {"d": d} for v in graph.vertices()}
    program = elimination_tree_program
    run_budget = cfg.budget if cfg.budget is not None else default_budget(
        graph.num_vertices()
    )
    max_rounds = _elimination_max_rounds(graph, d)
    if cfg.retry is not None:
        from ..faults import reliable_program

        program = reliable_program(elimination_tree_program, cfg.retry)
        run_budget = cfg.retry.physical_budget(run_budget)
        max_rounds = cfg.retry.physical_max_rounds(max_rounds)
    with maybe_phase(tracer, "elimination"):
        result = run_protocol(
            graph,
            program,
            inputs=inputs,
            budget=run_budget,
            max_rounds=max_rounds,
            tracer=tracer,
            inbox_order=cfg.inbox_order,
            seed=cfg.seed,
            faults=cfg.faults,
        )
    outputs: Dict[Vertex, EliminationOutput] = result.outputs
    accepted = all(out.status == "ok" for out in outputs.values())
    forest: Optional[EliminationForest] = None
    if result.crashed:
        if not accepted:
            # A rejection computed on fault-corrupted state proves nothing
            # about the surviving graph: fail closed, don't report td > d.
            raise FaultToleranceExceeded(
                f"nodes {sorted(map(repr, result.crashed))} crashed and the "
                "survivors did not assemble a tree; the elimination outcome "
                "is unreliable",
                round=result.rounds,
            )
        survivors = graph.induced_subgraph(set(outputs))
        forest = EliminationForest(
            {v: out.parent for v, out in outputs.items()}
        )
        try:
            forest.validate_for(survivors)
        except DecompositionError as exc:
            raise FaultToleranceExceeded(
                "survivors report 'ok' but their tree does not validate "
                f"against the surviving subgraph: {exc}",
                round=result.rounds,
            ) from exc
    elif accepted:
        forest = EliminationForest(
            {v: out.parent for v, out in outputs.items()}
        )
        forest.validate_for(graph)  # harness-side sanity check
    return DistributedEliminationResult(
        accepted=accepted,
        forest=forest,
        outputs=outputs,
        rounds=result.rounds,
        max_message_bits=result.metrics.max_message_bits,
        crashed=dict(result.crashed),
        retransmissions=result.metrics.retransmissions,
        total_messages=result.metrics.total_messages,
    )
