"""Round-synchronous CONGEST simulator.

The model (paper Section 1): a network is a connected simple graph; each
node knows its own O(log n)-bit identifier; computation proceeds in
synchronous rounds; in every round each node may send one message of at
most B = Θ(log n) bits to each neighbor, receives its neighbors' messages,
and computes.

Node programs are written as *generators*: ``run(ctx)`` sends messages via
``ctx.send`` and executes ``inbox = yield`` to end the round; messages sent
in round r are delivered at the start of round r+1.  Returning from the
generator halts the node with its return value as output.  The generator
style makes sub-protocols composable with ``yield from`` (see
:mod:`repro.congest.primitives`).

The simulator *enforces* the model: at most one message per neighbor per
round, every payload serialized and measured, and any message above the bit
budget raises :class:`MessageTooLargeError` — protocols must fragment big
payloads across rounds themselves, paying the Θ(k / log n) cost the paper
describes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..errors import (
    CongestError,
    FaultToleranceExceeded,
    MessageTooLargeError,
    ProtocolError,
)
from ..graph import Graph, Vertex
from ..obs import NULL_SPAN, Tracer, current_tracer
from ..obs.registry import note_simulation
from .messages import Payload, payload_bits
from .metrics import RoundMetrics

Inbox = Dict[Vertex, Payload]
NodeProgram = Callable[["NodeContext"], Generator[None, Inbox, Any]]


def default_budget(n: int, multiplier: int = 4) -> int:
    """The per-edge per-round budget B = max(48, multiplier * ceil(log2 n)).

    The floor of 48 bits keeps tiny test networks usable; asymptotically
    the budget is Θ(log n), the CONGEST definition.
    """
    if n <= 1:
        return 48
    return max(48, multiplier * math.ceil(math.log2(n)))


class NodeContext:
    """What a node knows and can do.

    Knowledge: its id, its neighbors' ids (the usual KT1 assumption — one
    round of id exchange would provide them anyway), the network size n,
    and its local input dictionary (labels, weights, parameters).
    """

    def __init__(
        self,
        node: Vertex,
        neighbors: List[Vertex],
        n: int,
        input_data: Dict[str, Any],
        simulation: "Simulation",
    ):
        self.node = node
        self.neighbors = list(neighbors)
        self.n = n
        self.input = input_data
        self._simulation = simulation

    @property
    def degree(self) -> int:
        return len(self.neighbors)

    @property
    def round_number(self) -> int:
        """The current round (1-based once the first round starts)."""
        return self._simulation.metrics.rounds

    @property
    def budget(self) -> int:
        """This round's effective per-edge budget.

        Equal to the simulation-wide budget unless a fault plan with
        ``budget_jitter`` is active, in which case it is what
        :meth:`send` will actually enforce this round.
        """
        return self._simulation._round_budget

    def record_retry(self, count: int = 1) -> None:
        """Count ``count`` redundant transmissions in the run's metrics.

        Used by the reliability layer (:func:`repro.faults.reliable_program`)
        so retransmission overhead is visible in
        :class:`~repro.congest.metrics.RoundMetrics`.
        """
        self._simulation.metrics.record_retry(count)

    def phase(self, name: str):
        """Open a named per-node phase span on the simulation's tracer.

        Rounds, messages, and bits recorded while the span is open are
        attributed to the phase (hierarchically: nested spans join their
        names with ``/``).  Returns a shared no-op context manager when
        tracing is disabled, so protocols can phase unconditionally.
        """
        tracer = self._simulation.tracer
        if tracer is None:
            return NULL_SPAN
        return tracer.phase(name, node=self.node)

    def send(self, neighbor: Vertex, payload: Payload) -> None:
        """Queue a message for delivery to ``neighbor`` next round."""
        self._simulation._queue_message(self.node, neighbor, payload)

    def send_all(self, payload: Payload) -> None:
        """Broadcast the same message to every neighbor."""
        for neighbor in self.neighbors:
            self.send(neighbor, payload)


@dataclass
class SimulationResult:
    """Final outputs and metrics of a run, plus what it takes to replay it.

    ``seed``, ``inbox_order``, and ``fault_plan`` echo the knobs that (with
    the graph, program, and inputs) fully determine the execution —
    :meth:`replay_args` packages them for a reproducing ``Simulation``.
    ``crashed`` maps each node killed by fault injection to the round its
    crash fired in (empty without faults); crashed nodes never appear in
    ``outputs``.
    """

    outputs: Dict[Vertex, Any]
    metrics: RoundMetrics
    seed: Optional[int] = None
    inbox_order: str = "arrival"
    fault_plan: Optional[Any] = None
    crashed: Dict[Vertex, int] = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return self.metrics.rounds

    def replay_args(self) -> Dict[str, Any]:
        """Keyword arguments reproducing this run's schedule and faults."""
        return {
            "seed": self.seed,
            "inbox_order": self.inbox_order,
            "faults": self.fault_plan,
        }

    @property
    def undelivered(self) -> int:
        """Messages queued in the final round that no node lived to receive."""
        return self.metrics.undelivered_messages

    def unanimous(self) -> Any:
        """The common output if all nodes agree; raises otherwise.

        Outputs are compared with ``==`` (not their reprs), so e.g. equal
        dicts with different insertion orders still count as agreement.
        """
        values = list(self.outputs.values())
        if not values:
            raise ProtocolError("no outputs recorded")
        first = values[0]
        if any(value != first for value in values[1:]):
            raise ProtocolError(f"outputs disagree: {self.outputs}")
        return first


#: Accepted inbox delivery orders (see :class:`Simulation`).
INBOX_ORDERS = ("arrival", "shuffle", "sorted", "reversed")


class Simulation:
    """One synchronous execution of a node program on a network graph.

    ``inbox_order`` controls the iteration order of each node's inbox dict:

    * ``"arrival"`` (default) — the order senders were stepped by the
      scheduler, the historical behavior;
    * ``"shuffle"`` — a seeded adversarial permutation per inbox per round
      (``seed`` makes it reproducible).  The CONGEST model gives inboxes no
      canonical order, so a correct protocol must produce identical outputs
      under any of these; ``shuffle`` is the dynamic cross-check for the
      ``repro lint`` RL002 determinism rule;
    * ``"sorted"`` / ``"reversed"`` — deterministic extreme orders, cheap
      adversaries that need no seed.

    ``faults`` accepts a :class:`repro.faults.FaultPlan`: a seeded
    adversary that drops / duplicates / delays / truncates queued messages,
    jitters the per-round budget, and crashes (optionally restarts) nodes
    on schedule.  Every injected fault is counted in
    ``metrics.faults_injected`` and emitted as a typed trace event.  A null
    plan (all rates zero, no crashes) is byte-for-byte transparent.

    There is one round scheduler (:meth:`_run_rounds`).  It reuses
    per-node inbox buffers across rounds, so a node program must not
    retain its inbox dict across ``yield`` boundaries (none of the
    shipped protocols do; the ``repro lint`` rules already discourage it).
    """

    def __init__(
        self,
        graph: Graph,
        program: NodeProgram,
        inputs: Optional[Dict[Vertex, Dict[str, Any]]] = None,
        budget: Optional[int] = None,
        max_rounds: int = 10_000,
        tracer: Optional[Tracer] = None,
        inbox_order: str = "arrival",
        seed: Optional[int] = None,
        faults: Optional[Any] = None,
    ):
        if graph.num_vertices() == 0:
            raise CongestError("CONGEST needs at least one node")
        if inbox_order not in INBOX_ORDERS:
            raise CongestError(
                f"unknown inbox_order {inbox_order!r}; choose from {INBOX_ORDERS}"
            )
        self._graph = graph
        self._program = program
        self._inputs = inputs or {}
        self._max_rounds = max_rounds
        n = graph.num_vertices()
        self.metrics = RoundMetrics(budget_bits=budget or default_budget(n))
        self._outgoing: Dict[Tuple[Vertex, Vertex], Payload] = {}
        self._sending_open = False
        self._inbox_order = inbox_order
        self._seed = seed
        self._rng = random.Random(0 if seed is None else seed)
        self._ran = False
        self._fault_plan = faults
        self._injector = None
        if faults is not None:
            # Lazy import: repro.faults depends on this module for types.
            from ..faults.injector import FaultInjector

            self._injector = FaultInjector(faults)
        self._round_budget = self.metrics.budget_bits
        self.crashed: Dict[Vertex, int] = {}
        # Explicit tracer wins; otherwise pick up a process-installed one
        # (the REPRO_TRACE / ``repro trace`` path).  None = fully disabled.
        self.tracer = tracer if tracer is not None else current_tracer()
        # Scheduler state: payload-size memo (payloads are hashable
        # algebraic values), cached adjacency sets, and per-round message
        # accumulators flushed into the metrics arrays once per round.
        self._bits_memo: Dict[Payload, int] = {}
        self._adjacency: Dict[Vertex, frozenset] = {}
        self._acc_msgs = 0
        self._acc_bits = 0
        self._acc_max = 0

    # -- internal -------------------------------------------------------
    def _queue_message(
        self, sender: Vertex, receiver: Vertex, payload: Payload
    ) -> None:
        """Queue one send: memoized sizes, cached adjacency, batched metrics."""
        if not self._sending_open:
            raise CongestError("send outside of a round")
        if receiver not in self._adjacency[sender]:
            raise CongestError(f"{sender!r} is not adjacent to {receiver!r}")
        key = (sender, receiver)
        if key in self._outgoing:
            raise CongestError(
                f"node {sender!r} already sent to {receiver!r} this round"
            )
        memo = self._bits_memo
        try:
            bits = memo.get(payload)
        except TypeError:
            # Unhashable values are never valid payloads; let the measuring
            # path raise the canonical PayloadTypeError.
            bits = None
            memo = None
        if bits is None:
            bits = payload_bits(payload)
            if memo is not None:
                memo[payload] = bits
        if bits > self._round_budget:
            raise MessageTooLargeError(bits, self._round_budget)
        self._outgoing[key] = payload
        self._acc_msgs += 1
        self._acc_bits += bits
        if bits > self._acc_max:
            self._acc_max = bits
        if self.tracer is not None:
            self.tracer.on_send(sender, receiver, bits, payload)

    def _flush_round_metrics(self) -> None:
        """Fold the per-round message accumulators into metrics."""
        if self._acc_msgs:
            self.metrics.record_message_batch(
                self._acc_msgs, self._acc_bits, self._acc_max
            )
            self._acc_msgs = 0
            self._acc_bits = 0
            self._acc_max = 0

    def _arrange_inbox(self, inbox: Inbox) -> Inbox:
        """Apply the configured adversarial inbox iteration order."""
        if self._inbox_order == "arrival":
            return inbox
        items = sorted(inbox.items(), key=lambda kv: repr(kv[0]))
        if self._inbox_order == "reversed":
            items.reverse()
        elif self._inbox_order == "shuffle":
            self._rng.shuffle(items)
        return dict(items)

    # -- fault helpers --------------------------------------------------
    def _apply_crashes(
        self,
        round: int,
        generators: Dict[Vertex, Generator[None, Inbox, Any]],
    ) -> None:
        """Kill nodes whose crash fires at the start of ``round``."""
        injector = self._injector
        for node in injector.crashes_at(round):
            if node in self.crashed:
                continue
            gen = generators.pop(node, None)
            if gen is not None:
                gen.close()
            self.crashed[node] = round
            injector.note_crash(round, node, self.metrics, self.tracer)

    def _apply_restarts(self, round: int) -> List[Vertex]:
        """Reboot crashed nodes scheduled for ``round``; returns them."""
        injector = self._injector
        restarted = []
        for node in injector.restarts_at(round):
            if node not in self.crashed:
                continue
            del self.crashed[node]
            injector.note_restart(round, node, self.metrics, self.tracer)
            restarted.append(node)
        return restarted

    def _has_pending_restart(self) -> bool:
        if self._injector is None:
            return False
        return self._injector.has_pending_restart(self.metrics.rounds)

    # -- execution ------------------------------------------------------
    def run(self) -> SimulationResult:
        if self._ran:
            raise CongestError(
                "a Simulation can only be run once; construct a new one "
                "(metrics and node state would otherwise double-count)"
            )
        self._ran = True
        return self._run_rounds()

    def _finish(self, outputs: Dict[Vertex, Any]) -> SimulationResult:
        # Messages queued in the sweep where the last generators halted
        # have no living receiver to ever observe them.  Count them so
        # harnesses (and tests) can detect silently dropped final sends —
        # the dynamic face of the RL003 lint rule.  In-flight delayed or
        # duplicated fault copies that never matured count too.
        self.metrics.undelivered_messages = len(self._outgoing)
        if self._injector is not None:
            self.metrics.undelivered_messages += self._injector.pending_copies
        if self.tracer is not None:
            self.tracer.finish()
        note_simulation(self.metrics)
        return SimulationResult(
            outputs=outputs,
            metrics=self.metrics,
            seed=self._seed,
            inbox_order=self._inbox_order,
            fault_plan=self._fault_plan,
            crashed=dict(self.crashed),
        )

    def _run_rounds(self) -> SimulationResult:
        """The round scheduler: one dispatch loop per round.

        * nodes are stepped in sorted order, from a cached snapshot
          re-sorted only when membership changes (halt / crash / restart);
        * inboxes are preallocated per-node buffers, cleared and refilled
          in place instead of allocated per round;
        * payload sizes come from a memo table (payloads are hashable
          values measured by a pure function);
        * adjacency checks hit cached neighbor sets;
        * message metrics accumulate in plain counters and are flushed
          into the per-round arrays once per round.

        ``tests/golden/signatures.json`` pins the rounds, messages and
        payload bits this loop produces for every shipped workload.
        """
        graph = self._graph
        n = graph.num_vertices()
        self._adjacency = {
            v: frozenset(graph.neighbors(v)) for v in graph.vertices()
        }
        contexts = {
            v: NodeContext(
                node=v,
                neighbors=graph.neighbors(v),
                n=n,
                input_data=dict(self._inputs.get(v, {})),
                simulation=self,
            )
            for v in graph.vertices()
        }
        generators: Dict[Vertex, Generator[None, Inbox, Any]] = {}
        outputs: Dict[Vertex, Any] = {}

        tracer = self.tracer
        injector = self._injector
        metrics = self.metrics
        bits_memo = self._bits_memo
        arrival = self._inbox_order == "arrival"

        # Preallocated inbox buffers, reused round over round.  ``touched``
        # remembers which buffers hold data so only those are cleared.
        inboxes: Dict[Vertex, Inbox] = {v: {} for v in graph.vertices()}
        touched: List[Vertex] = []

        # Round 1: local computation + first sends.
        metrics.record_round()
        if tracer is not None:
            tracer.on_round_start()
        if injector is not None:
            for node in injector.crashes_at(1):
                self.crashed[node] = 1
                injector.note_crash(1, node, metrics, tracer)
            self._round_budget = injector.budget_for(
                1, metrics.budget_bits, metrics, tracer
            )
        self._sending_open = True
        for v in graph.vertices():
            if v in self.crashed:
                continue
            gen = self._program(contexts[v])
            try:
                next(gen)
                generators[v] = gen
            except StopIteration as stop:
                outputs[v] = stop.value
                if tracer is not None:
                    tracer.on_halt(v, stop.value)
        self._sending_open = False
        self._flush_round_metrics()

        order: List[Vertex] = sorted(generators)
        order_dirty = False

        while generators or self._has_pending_restart():
            if metrics.rounds >= self._max_rounds:
                if injector is not None and metrics.total_faults > 0:
                    raise FaultToleranceExceeded(
                        f"exceeded max_rounds={self._max_rounds} under fault "
                        "injection; the protocol did not terminate within "
                        "its tolerance envelope",
                        round=metrics.rounds,
                    )
                raise ProtocolError(
                    f"exceeded max_rounds={self._max_rounds}; "
                    "protocol is not terminating"
                )
            delivery = self._outgoing
            self._outgoing = {}
            metrics.record_round()
            rnd = metrics.rounds
            if tracer is not None:
                tracer.on_round_start()

            restarted: List[Vertex] = []
            if injector is not None:
                before = len(generators)
                self._apply_crashes(rnd, generators)
                restarted.extend(self._apply_restarts(rnd))
                if restarted or len(generators) != before:
                    order_dirty = True
                self._round_budget = injector.budget_for(
                    rnd, metrics.budget_bits, metrics, tracer
                )
                items: List[Tuple[Tuple[Vertex, Vertex], Payload]] = []
                for (sender, receiver), payload in delivery.items():
                    if receiver in self.crashed:
                        injector.drop_for_crashed(
                            rnd, sender, receiver, payload, metrics, tracer,
                        )
                        continue
                    items.append(((sender, receiver), payload))
                survivors = injector.process(rnd, items, metrics, tracer)
            else:
                survivors = [
                    (sender, receiver, payload)
                    for (sender, receiver), payload in delivery.items()
                ]

            for v in touched:
                inboxes[v].clear()
            touched = []
            for sender, receiver, payload in survivors:
                box = inboxes[receiver]
                if not box:
                    touched.append(receiver)
                box[sender] = payload
            if tracer is not None:
                for sender, receiver, payload in survivors:
                    try:
                        bits = bits_memo[payload]
                    except KeyError:
                        bits = payload_bits(payload)
                        bits_memo[payload] = bits
                    except TypeError:
                        bits = payload_bits(payload)
                    tracer.on_deliver(sender, receiver, bits)

            self._sending_open = True
            for v in restarted:
                gen = self._program(contexts[v])
                try:
                    next(gen)
                    generators[v] = gen
                except StopIteration as stop:
                    outputs[v] = stop.value
                    if tracer is not None:
                        tracer.on_halt(v, stop.value)
            if order_dirty:
                order = sorted(generators)
                order_dirty = False
            for v in order:
                if v in restarted:
                    continue  # a rebooted program starts fresh this round
                inbox: Inbox = (
                    inboxes[v] if arrival else self._arrange_inbox(inboxes[v])
                )
                gen = generators[v]
                try:
                    gen.send(inbox)
                except StopIteration as stop:
                    outputs[v] = stop.value
                    del generators[v]
                    order_dirty = True
                    if tracer is not None:
                        tracer.on_halt(v, stop.value)
            self._sending_open = False
            self._flush_round_metrics()
            if not self._outgoing and not generators \
                    and not self._has_pending_restart():
                break
        return self._finish(outputs)


def run_protocol(
    graph: Graph,
    program: NodeProgram,
    inputs: Optional[Dict[Vertex, Dict[str, Any]]] = None,
    budget: Optional[int] = None,
    max_rounds: int = 10_000,
    tracer: Optional[Tracer] = None,
    inbox_order: str = "arrival",
    seed: Optional[int] = None,
    faults: Optional[Any] = None,
) -> SimulationResult:
    """Convenience wrapper: build a Simulation and run it."""
    return Simulation(
        graph, program, inputs=inputs, budget=budget, max_rounds=max_rounds,
        tracer=tracer, inbox_order=inbox_order, seed=seed, faults=faults,
    ).run()
