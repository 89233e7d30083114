"""Section 6 (counting): distributed count-φ in CONGEST.

Same convergecast shape as the optimization protocol, with COUNT tables
(class → number of partial assignments) in place of OPT tables.  Counts
can exceed the message budget (e.g. #independent-sets is exponential), so
each count is streamed in base-2^CHUNK digits — the honest Θ(k / log n)
cost of a k-bit value.  For the paper's headline examples (triangles,
perfect matchings on sparse graphs) counts are polynomial and fit in one
or two chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..algebra import TreeAutomaton
from ..algebra.symbols import enumerate_symbol_choices
from ..congest import Inbox, ItemCollector, NodeContext, node_program
from ..errors import ProtocolError
from ..graph import Graph, Vertex, canonical_edge
from ..runconfig import RunConfig
from .model_checking import ClassCodec, local_base_symbol, run_checking

# run_checking makes these calls from .model_checking; the names stay
# bound here because sessionbench/tracing.py patches each pipeline
# module's build_elimination_tree, node_inputs_from_elimination,
# engine_automaton and run_protocol by name.
from ..congest import run_protocol  # noqa: F401
from .elimination import build_elimination_tree  # noqa: F401
from .model_checking import (  # noqa: F401
    engine_automaton,
    node_inputs_from_elimination,
)

_CHUNK_BITS = 8


def _count_to_digits(count: int) -> List[int]:
    if count == 0:
        return [0]
    digits = []
    while count:
        digits.append(count & ((1 << _CHUNK_BITS) - 1))
        count >>= _CHUNK_BITS
    return digits


def _digits_to_count(digits: List[int]) -> int:
    total = 0
    for i, digit in enumerate(digits):
        total |= digit << (_CHUNK_BITS * i)
    return total


def counting_program(automaton: TreeAutomaton, codec: ClassCodec):
    """Node program factory for the counting convergecast."""

    @node_program
    def program(ctx: NodeContext) -> Generator[None, Inbox, Optional[int]]:
        depth: int = ctx.input["depth"]
        children: Tuple[Vertex, ...] = tuple(ctx.input["children"])
        parent: Optional[Vertex] = ctx.input["parent"]
        bag: Tuple[Vertex, ...] = tuple(ctx.input["bag"])
        positions: Tuple[int, ...] = tuple(ctx.input["anc_edge_positions"])

        base = local_base_symbol(ctx, automaton.scope)
        owned_edges = [
            (pos, canonical_edge(bag[pos - 1], ctx.node)) for pos in positions
        ]
        table: Dict[Any, int] = {}
        for choice in enumerate_symbol_choices(
            base.structure, automaton.scope, ctx.node, owned_edges
        ):
            state = automaton.leaf(choice.symbol)
            table[state] = table.get(state, 0) + 1

        with ctx.phase("count-streaming"):
            collector = ItemCollector("cnt", children)
            while not collector.complete:
                inbox = yield
                collector.absorb(inbox)
            for child in children:
                # Entries are framed as a header item (0, class_id) followed by
                # digit items (1, digit) in little-endian order — each message
                # stays small even when |C_reachable| is large.
                child_table: Dict[Any, int] = {}
                current_state = None
                digit_index = 0
                for kind, value in collector.items_from(child):
                    if kind == 0:
                        current_state = codec.decode(value)
                        digit_index = 0
                    else:
                        if current_state is None:
                            raise ProtocolError("count digit before its header")
                        child_table[current_state] = child_table.get(
                            current_state, 0
                        ) | (value << (_CHUNK_BITS * digit_index))
                        digit_index += 1
                merged: Dict[Any, int] = {}
                for s1, c1 in table.items():
                    for s2, c2 in child_table.items():
                        s = automaton.glue(depth, s1, s2)
                        merged[s] = merged.get(s, 0) + c1 * c2
                table = merged
            forgotten: Dict[Any, int] = {}
            for s, c in table.items():
                fs = automaton.forget(depth, s)
                forgotten[fs] = forgotten.get(fs, 0) + c

            if parent is not None:
                for s in sorted(forgotten, key=codec.encode):
                    ctx.send(parent, ("cnt", (0, codec.encode(s))))
                    yield
                    for digit in _count_to_digits(forgotten[s]):
                        ctx.send(parent, ("cnt", (1, digit)))
                        yield
                # Parent still yields awaiting cnt/end, so this delivers.
                ctx.send(parent, ("cnt/end", None))  # repro: noqa[RL003]
                return None
        return sum(c for s, c in forgotten.items() if automaton.accepts(s))

    return program


@dataclass
class DistributedCount:
    """Outcome of the counting pipeline (count known at the root)."""

    count: Optional[int]
    treedepth_exceeded: bool
    total_rounds: int
    elimination_rounds: int
    counting_rounds: int
    max_message_bits: int
    num_classes: int
    total_messages: int = 0
    minimized: bool = False


def count_pipeline(
    automaton: TreeAutomaton,
    graph: Graph,
    d: int,
    *,
    config: Optional[RunConfig] = None,
) -> DistributedCount:
    """Run Algorithm 2 followed by the counting convergecast.

    ``config`` (default ``RunConfig()``) has the same semantics as in
    :func:`.model_checking.run_checking`; any crash raises
    :class:`~repro.errors.FaultToleranceExceeded` — a count over a
    partial network is not the count.
    """
    if not automaton.scope:
        raise ProtocolError("counting needs at least one free variable")
    run = run_checking(
        automaton, graph, d, counting_program, config,
        phase="counting", answer=_root_count, max_rounds=500_000,
    )
    return DistributedCount(count=run.answer, **run.totals("counting_rounds"))


def _root_count(outputs: Dict[Vertex, Optional[int]], _elim: Any) -> int:
    counts = [c for c in outputs.values() if c is not None]
    if len(counts) != 1:
        raise ProtocolError("exactly one node (the root) should hold the count")
    return counts[0]
