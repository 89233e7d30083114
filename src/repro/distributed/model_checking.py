"""Theorem 6.1 (decision): distributed MSO model checking in CONGEST.

Given the elimination tree from Algorithm 2 (each node knows parent,
children, depth, bag, and which ancestors it is adjacent to), the bottom-up
phase of Algorithm 1 is executed as a convergecast:

* every node builds its Base symbol locally (its depth, its ancestor-edge
  positions, its own labels — all local knowledge),
* a leaf sends the class of Forget(Glue-chain(Base)) to its parent,
* an internal node waits for the classes of all children, glues them with
  its Base symbol, forgets itself, and forwards one class id,
* the root applies the acceptance predicate and floods the verdict down.

Each message is a single class id: log₂|𝒞| bits, a constant for fixed
(φ, d) — the O(log |𝒞|)-bit messages of the paper's proof.  The protocol
is data-driven, so it takes depth(T) + depth(T) ≤ 2·2^d rounds after the
tree is built.

The shared automaton object plays the role of the common-knowledge
"algorithm": both endpoints of an edge use the same class-id table, the
distributed analogue of hard-coding 𝒞 and ⊙_f into every node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..algebra import TreeAutomaton
from ..algebra.minimize import graph_label_alphabet, minimized_automaton
from ..algebra.symbols import BaseStructure, BaseSymbol
from ..congest import Inbox, NodeContext, default_budget, node_program, run_protocol
from ..errors import FaultToleranceExceeded, ProtocolError
from ..graph import Graph, Vertex, canonical_edge
from ..mso import syntax as sx
from ..obs import maybe_phase
from ..obs.registry import registry as _registry
from ..runconfig import RunConfig, resolve_tracer
from .elimination import DistributedEliminationResult, build_elimination_tree


def engine_automaton(
    automaton: TreeAutomaton,
    *,
    minimize: bool,
    d: int,
    labels: Tuple[str, ...],
    forest_depth: int,
) -> TreeAutomaton:
    """The automaton a node program should evaluate: the depth gate.

    With ``minimize``, the state-space reduction passes of
    :mod:`repro.algebra.minimize` apply: every transition lands on its
    equivalence-class representative.  Otherwise — and when the
    minimization budget blows, which silently falls back (memoized and
    counted in the metrics registry) — it is ``automaton`` itself.

    ``forest_depth`` is the depth of the elimination forest Algorithm 2
    actually recovered.  The quotient closure only covers boundary levels
    ``0..d``, so a deeper forest — Algorithm 2 admits up to ``2^d - 1``
    (the paper's ``D``) — bypasses the wrapper (counted in
    ``repro_minimize_depth_bypass_total``): its runs glue against
    partner values the refinement never saw, and applying the quotient
    there can change answers.
    """
    if not minimize:
        return automaton
    if forest_depth > d:
        _registry().counter(
            "repro_minimize_depth_bypass_total",
            "Runs whose elimination forest outgrew the minimization "
            "closure.",
        ).inc()
        return automaton
    wrapper = minimized_automaton(automaton, d=d, labels=labels)
    return automaton if wrapper is None else wrapper


class ClassCodec:
    """Shared class-id table: the simulated 'constant-size' 𝒞 encoding."""

    def __init__(self, automaton: TreeAutomaton):
        self._automaton = automaton
        self._by_id: List[Any] = []
        self._ids: Dict[Any, int] = {}

    def encode(self, state: Any) -> int:
        if state not in self._ids:
            self._ids[state] = len(self._by_id)
            self._by_id.append(state)
        return self._ids[state]

    def decode(self, class_id: int) -> Any:
        return self._by_id[class_id]

    @property
    def num_classes(self) -> int:
        return len(self._by_id)


def local_base_symbol(ctx: NodeContext, scope: Tuple[sx.Var, ...]) -> BaseSymbol:
    """Build the node's Base symbol from purely local inputs.

    ``ctx.input`` carries: depth, bag, anc_edge_positions, labels,
    edge_labels (ancestor position -> labels), and per-variable membership
    bits when the run checks a fixed assignment (optmarked / labeled runs).
    """
    depth = ctx.input["depth"]
    positions = tuple(ctx.input["anc_edge_positions"])
    elabels = tuple(
        (pos, frozenset(ctx.input.get("edge_labels", {}).get(pos, ())))
        for pos in positions
    )
    structure = BaseStructure(
        depth=depth,
        anc_edges=positions,
        vlabels=frozenset(ctx.input.get("labels", ())),
        elabels=elabels,
    )
    vbits = frozenset(ctx.input.get("vbits", ()))
    ebits = tuple(
        (pos, frozenset(ctx.input.get("ebits", {}).get(pos, ())))
        for pos in positions
    )
    return BaseSymbol(structure=structure, vbits=vbits, ebits=ebits)


def decision_program(automaton: TreeAutomaton, codec: ClassCodec):
    """Node program factory for the bottom-up decision convergecast."""

    @node_program(rounds="20 + 6*2**d + 2*n")
    def program(ctx: NodeContext) -> Generator[None, Inbox, bool]:
        depth: int = ctx.input["depth"]
        children: Tuple[Vertex, ...] = tuple(ctx.input["children"])
        parent: Optional[Vertex] = ctx.input["parent"]

        symbol = local_base_symbol(ctx, automaton.scope)
        state = automaton.leaf(symbol)
        pending = set(children)
        child_states: Dict[Vertex, Any] = {}
        # Bottom-up phase: wait for every child's class.
        with ctx.phase("convergecast"):
            while pending:
                inbox = yield
                for sender, payload in inbox.items():
                    if (
                        sender in pending
                        and isinstance(payload, tuple)
                        and payload
                        and payload[0] == "class"
                    ):
                        child_states[sender] = codec.decode(payload[1])
                        pending.discard(sender)
            for child in children:
                state = automaton.glue(depth, state, child_states[child])
            state = automaton.forget(depth, state)
            if parent is not None:
                ctx.send(parent, ("class", codec.encode(state)))
        # Top-down verdict flood.
        with ctx.phase("verdict-flood"):
            if parent is None:
                verdict = automaton.accepts(state)
                for child in children:
                    # Children still yield awaiting the verdict flood.
                    ctx.send(child, ("verdict", verdict))  # repro: noqa[RL003]
                return verdict
            while True:
                inbox = yield
                if parent in inbox:
                    payload = inbox[parent]
                    if isinstance(payload, tuple) and payload and payload[0] == "verdict":
                        verdict = payload[1]
                        for child in children:
                            ctx.send(child, ("verdict", verdict))
                        return verdict

    return program


@dataclass
class DistributedDecision:
    """Result of the full Theorem 6.1 decision pipeline."""

    accepted: bool
    treedepth_exceeded: bool
    total_rounds: int
    elimination_rounds: int
    checking_rounds: int
    max_message_bits: int
    num_classes: int
    total_messages: int = 0
    minimized: bool = False


def node_inputs_from_elimination(
    graph: Graph,
    elim: DistributedEliminationResult,
    assignment: Optional[Dict[sx.Var, Any]] = None,
    scope: Tuple[sx.Var, ...] = (),
) -> Dict[Vertex, Dict[str, Any]]:
    """Package each node's local knowledge for the checking protocols."""
    inputs: Dict[Vertex, Dict[str, Any]] = {}
    assignment = assignment or {}
    for v, out in elim.outputs.items():
        edge_labels = {}
        weights_edges = {}
        for pos in out.anc_edge_positions:
            ancestor = out.bag[pos - 1]
            edge_labels[pos] = tuple(sorted(graph.edge_labels(ancestor, v)))
            weights_edges[pos] = graph.edge_weight(ancestor, v)
        vbits = frozenset(
            i
            for i, var in enumerate(scope)
            if var.sort.is_vertex_kind and v in _as_set(assignment.get(var, frozenset()))
        )
        ebits = {
            pos: frozenset(
                i
                for i, var in enumerate(scope)
                if not var.sort.is_vertex_kind
                and canonical_edge(out.bag[pos - 1], v)
                in _as_set(assignment.get(var, frozenset()))
            )
            for pos in out.anc_edge_positions
        }
        inputs[v] = {
            "depth": out.depth,
            "parent": out.parent,
            "children": out.children,
            "bag": out.bag,
            "anc_edge_positions": out.anc_edge_positions,
            "labels": tuple(sorted(graph.vertex_labels(v))),
            "edge_labels": edge_labels,
            "weight": graph.vertex_weight(v),
            "edge_weights": weights_edges,
            "vbits": vbits,
            "ebits": ebits,
        }
    return inputs


def _as_set(value: Any):
    if isinstance(value, frozenset):
        return value
    return frozenset({value})


@dataclass
class CheckingRun:
    """One Theorem 6.1 run: Algorithm 2, then one convergecast over its tree.

    ``answer`` is what the pipeline's ``answer`` callback made of the
    node outputs; it is ``None`` when Algorithm 2 refused the promise.
    """

    answer: Any
    treedepth_exceeded: bool
    total_rounds: int
    elimination_rounds: int
    checking_rounds: int
    max_message_bits: int
    num_classes: int
    total_messages: int
    minimized: bool

    def totals(self, rounds_field: str) -> Dict[str, Any]:
        """The result fields every pipeline shares, with the checking
        rounds under the pipeline's own name ``rounds_field``."""
        return {
            "treedepth_exceeded": self.treedepth_exceeded,
            "total_rounds": self.total_rounds,
            "elimination_rounds": self.elimination_rounds,
            rounds_field: self.checking_rounds,
            "max_message_bits": self.max_message_bits,
            "num_classes": self.num_classes,
            "total_messages": self.total_messages,
            "minimized": self.minimized,
        }


def run_checking(
    automaton: TreeAutomaton,
    graph: Graph,
    d: int,
    make_program: Callable[[TreeAutomaton, ClassCodec], Any],
    config: Optional[RunConfig],
    *,
    phase: str,
    answer: Callable[[Dict[Vertex, Any], DistributedEliminationResult], Any],
    max_rounds: int,
    assignment: Optional[Dict[sx.Var, Any]] = None,
) -> CheckingRun:
    """Theorem 6.1: Algorithm 2, then the convergecast ``make_program`` builds.

    Decision, counting, optimization and optmarked differ only in what
    the convergecast carries, so this one driver runs all of them.  When
    a tracer is given (or installed), the run is attributed to the
    ``elimination`` and ``phase`` harness phases with the protocols' finer
    spans nested inside; Algorithm 2 receives the resolved tracer, so
    both phases record into the same one.  Both protocols share
    ``config``'s (default ``RunConfig()``) delivery order, seed and fault
    adversary; its retry policy wraps both in the redundancy-lockstep
    synchronizer.  Any crash raises
    :class:`~repro.errors.FaultToleranceExceeded`: an answer computed on a
    partial network says nothing about the whole one.

    This is the one place the minimization depth gate applies:
    :func:`engine_automaton` sees the recovered forest's depth, and
    ``minimized`` reports whether the quotient kernel actually ran.
    """
    cfg = config or RunConfig()
    tracer = resolve_tracer(cfg.trace)
    elim = build_elimination_tree(
        graph, d, config=cfg.with_overrides(trace=tracer)
    )
    if elim.crashed:
        raise FaultToleranceExceeded(
            f"nodes {sorted(map(repr, elim.crashed))} crashed during "
            f"elimination; the {phase} run needs the whole network",
            round=elim.rounds,
        )
    if not elim.accepted:
        return CheckingRun(
            answer=None,
            treedepth_exceeded=True,
            total_rounds=elim.rounds,
            elimination_rounds=elim.rounds,
            checking_rounds=0,
            max_message_bits=elim.max_message_bits,
            num_classes=0,
            total_messages=elim.total_messages,
            minimized=False,
        )
    inputs = node_inputs_from_elimination(
        graph, elim, assignment, automaton.scope
    )
    codec = cfg.codec if cfg.codec is not None else ClassCodec(automaton)
    kernel = engine_automaton(
        automaton,
        minimize=cfg.minimize_enabled, d=d,
        labels=graph_label_alphabet(graph),
        forest_depth=max(
            (out.depth for out in elim.outputs.values()), default=0
        ),
    )
    program = make_program(kernel, codec)
    budget = cfg.budget if cfg.budget is not None else default_budget(
        graph.num_vertices()
    )
    if cfg.retry is not None:
        from ..faults import reliable_program

        program = reliable_program(program, cfg.retry)
        budget = cfg.retry.physical_budget(budget)
        max_rounds = cfg.retry.physical_max_rounds(max_rounds)
    with maybe_phase(tracer, phase):
        result = run_protocol(
            graph,
            program,
            inputs=inputs,
            budget=budget,
            max_rounds=max_rounds,
            tracer=tracer,
            inbox_order=cfg.inbox_order,
            seed=cfg.seed,
            faults=cfg.faults,
        )
    if result.crashed:
        raise FaultToleranceExceeded(
            f"nodes {sorted(map(repr, result.crashed))} crashed during the "
            f"{phase} convergecast; its answer cannot be trusted",
            round=result.rounds,
        )
    return CheckingRun(
        answer=answer(result.outputs, elim),
        treedepth_exceeded=False,
        total_rounds=elim.rounds + result.rounds,
        elimination_rounds=elim.rounds,
        checking_rounds=result.rounds,
        max_message_bits=max(
            elim.max_message_bits, result.metrics.max_message_bits
        ),
        num_classes=codec.num_classes,
        total_messages=elim.total_messages + result.metrics.total_messages,
        minimized=kernel is not automaton,
    )


def unanimous_verdict(outputs: Dict[Vertex, Any], _elim: Any) -> bool:
    """The verdict every node returned after the root's flood."""
    if len(set(outputs.values())) != 1:
        raise ProtocolError(f"verdicts disagree: {outputs}")
    return bool(next(iter(outputs.values())))


def decide_pipeline(
    formula_automaton: TreeAutomaton,
    graph: Graph,
    d: int,
    assignment: Optional[Dict[sx.Var, Any]] = None,
    *,
    config: Optional[RunConfig] = None,
) -> DistributedDecision:
    """Run the full pipeline: Algorithm 2, then the decision convergecast.

    ``formula_automaton`` must be compiled for the scope matching
    ``assignment`` (empty scope for closed formulas).  ``config``
    (default ``RunConfig()``) holds every execution knob; its delivery
    order, seed and fault plan apply to *both* phases and its retry
    policy wraps both protocols in the redundancy-lockstep synchronizer.
    The decision requires every node alive end to end: any crash raises
    :class:`~repro.errors.FaultToleranceExceeded` — a verdict must never
    be computed on a partial network, and with bounded transient loss plus
    a retry policy the returned verdict equals the faultless one or the
    run fails closed (see :func:`run_checking`).
    """
    run = run_checking(
        formula_automaton, graph, d, decision_program, config,
        phase="decision", answer=unanimous_verdict,
        max_rounds=20 + 6 * (2 ** d) + 2 * graph.num_vertices(),
        assignment=assignment,
    )
    return DistributedDecision(
        accepted=bool(run.answer), **run.totals("checking_rounds")
    )
