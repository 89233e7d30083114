"""Section 6 (optmarked-φ): is the marked set an optimum solution?

The paper's recipe, implemented verbatim: the root collects

1. the OPT table for φ(S) (the optimization bottom-up phase),
2. the homomorphism class of the *closed* formula ψ = φ[S := Mark] — here
   realized by running the same automaton with the marked set's membership
   bits fixed on each Base symbol (labeled-graph semantics),
3. the total weight of the marked set (a sum convergecast),

and accepts iff ψ holds and the marked weight equals the optimum.
All three ride the same single convergecast wave.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, FrozenSet, Generator, Optional, Tuple

from ..algebra import TreeAutomaton
from ..algebra.symbols import enumerate_symbol_choices
from ..congest import Inbox, ItemCollector, NodeContext, node_program
from ..errors import ProtocolError
from ..graph import Graph, Vertex, canonical_edge
from ..runconfig import RunConfig
from .model_checking import (
    ClassCodec,
    local_base_symbol,
    run_checking,
    unanimous_verdict,
)


def optmarked_program(
    automaton: TreeAutomaton, codec: ClassCodec, maximize: bool
):
    """Node program: joint OPT-table / marked-class / marked-weight wave."""
    sign = 1 if maximize else -1

    @node_program
    def program(ctx: NodeContext) -> Generator[None, Inbox, bool]:
        depth: int = ctx.input["depth"]
        children: Tuple[Vertex, ...] = tuple(ctx.input["children"])
        parent: Optional[Vertex] = ctx.input["parent"]
        bag: Tuple[Vertex, ...] = tuple(ctx.input["bag"])
        positions: Tuple[int, ...] = tuple(ctx.input["anc_edge_positions"])

        base_marked = local_base_symbol(ctx, automaton.scope)  # vbits/ebits = marks
        owned_edges = [
            (pos, canonical_edge(bag[pos - 1], ctx.node)) for pos in positions
        ]
        edge_weights: Dict[int, int] = dict(ctx.input.get("edge_weights", {}))

        def better(candidate: int, incumbent: Optional[int]) -> bool:
            return incumbent is None or sign * candidate > sign * incumbent

        # (1) OPT table over all local choices.
        table: Dict[Any, int] = {}
        for choice in enumerate_symbol_choices(
            base_marked.structure, automaton.scope, ctx.node, owned_edges
        ):
            state = automaton.leaf(choice.symbol)
            w = 0
            for item in choice.chosen[0]:
                if isinstance(item, tuple):
                    pos = next(p for p, e in owned_edges if e == item)
                    w += edge_weights.get(pos, 1)
                else:
                    w += ctx.input.get("weight", 1)
            if better(w, table.get(state)):
                table[state] = w
        # (2) class of the marked assignment; (3) local marked weight.
        marked_state = automaton.leaf(base_marked)
        marked_weight = 0
        if 0 in base_marked.vbits:
            marked_weight += ctx.input.get("weight", 1)
        for pos, bits in base_marked.ebits:
            if 0 in bits:
                marked_weight += edge_weights.get(pos, 1)

        collector = ItemCollector("mk", children)
        while not collector.complete:
            inbox = yield
            collector.absorb(inbox)
        for child in children:
            items = collector.items_from(child)
            header = items[0]
            child_marked_state = codec.decode(header[0])
            marked_weight += header[1]
            marked_state = automaton.glue(depth, marked_state, child_marked_state)
            child_table = {
                codec.decode(class_id): weight for class_id, weight in items[1:]
            }
            merged: Dict[Any, int] = {}
            for s1, w1 in table.items():
                for s2, w2 in child_table.items():
                    s = automaton.glue(depth, s1, s2)
                    if better(w1 + w2, merged.get(s)):
                        merged[s] = w1 + w2
            table = merged
        marked_state = automaton.forget(depth, marked_state)
        table = _forget_table(automaton, depth, table, better)

        if parent is not None:
            ctx.send(parent, ("mk", (codec.encode(marked_state), marked_weight)))
            yield
            for s in sorted(table, key=codec.encode):
                ctx.send(parent, ("mk", (codec.encode(s), table[s])))
                yield
            ctx.send(parent, ("mk/end", None))
            # Wait for the verdict flood.
            while True:
                inbox = yield
                if parent in inbox:
                    payload = inbox[parent]
                    if isinstance(payload, tuple) and payload and payload[0] == "verdict":
                        verdict = payload[1]
                        for child in children:
                            ctx.send(child, ("verdict", verdict))
                        return verdict
        # Root: combine the three ingredients.
        optimum: Optional[int] = None
        for s, w in table.items():
            if automaton.accepts(s) and better(w, optimum):
                optimum = w
        verdict = (
            automaton.accepts(marked_state)
            and optimum is not None
            and marked_weight == optimum
        )
        for child in children:
            # Children still yield awaiting the verdict, so this delivers.
            ctx.send(child, ("verdict", verdict))  # repro: noqa[RL003]
        return verdict

    return program


def _forget_table(automaton, depth, table, better):
    out: Dict[Any, int] = {}
    for s, w in table.items():
        fs = automaton.forget(depth, s)
        if better(w, out.get(fs)):
            out[fs] = w
    return out


@dataclass
class DistributedOptMarked:
    """Outcome of optmarked-φ."""

    accepted: bool
    treedepth_exceeded: bool
    total_rounds: int
    max_message_bits: int


def optmarked_distributed(
    automaton: TreeAutomaton,
    graph: Graph,
    d: int,
    marked: FrozenSet[Any],
    maximize: bool = True,
    *,
    config: Optional[RunConfig] = None,
) -> DistributedOptMarked:
    """Is ``marked`` an optimum solution of φ(S)?  (automaton scope = (S,))

    Runs under ``config`` (default ``RunConfig()``) with ``minimize=False``.
    """
    if len(automaton.scope) != 1 or not automaton.scope[0].sort.is_set:
        raise ProtocolError("optmarked needs scope = one free set variable")
    run = run_checking(
        automaton, graph, d,
        partial(optmarked_program, maximize=maximize),
        (config or RunConfig()).with_overrides(minimize=False),
        phase="optmarked", answer=unanimous_verdict, max_rounds=500_000,
        assignment={automaton.scope[0]: frozenset(marked)},
    )
    return DistributedOptMarked(
        accepted=bool(run.answer),
        treedepth_exceeded=run.treedepth_exceeded,
        total_rounds=run.total_rounds,
        max_message_bits=run.max_message_bits,
    )
