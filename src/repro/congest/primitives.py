"""Reusable CONGEST sub-protocols (generator style, composed via yield from).

The key primitive is :func:`leader_election` — the paper's Algorithm 2 line
1 subroutine: min-id flooding restricted to a set U of participating nodes,
running for a fixed number of rounds so all nodes stay in lockstep, with
the paper's early-abort behavior obtained by passing a 2^d round bound.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Generator, Iterable, List, Optional, Set, Tuple

from ..errors import FaultToleranceExceeded, ProtocolError
from ..graph import Vertex
from .messages import Payload
from .runtime import Inbox, NodeContext


def ordered_inbox(inbox: Inbox) -> List[Tuple[Vertex, Payload]]:
    """The inbox as (sender, payload) pairs in a canonical sender order.

    The CONGEST model gives inboxes no ordering guarantee (and the
    simulator's ``inbox_order="shuffle"`` mode actively adversarializes
    it), so any protocol whose result could depend on iteration order must
    consume its inbox through this helper — the lint rule RL002 flags
    order-sensitive raw iteration.
    """
    return sorted(inbox.items(), key=lambda kv: repr(kv[0]))


def idle(ctx: NodeContext, rounds: int) -> Generator[None, Inbox, None]:
    """Stay silent for ``rounds`` rounds (keeps phases aligned)."""
    for _ in range(rounds):
        yield


def leader_election(
    ctx: NodeContext, participating: bool, rounds: int
) -> Generator[None, Inbox, Tuple[Optional[Vertex], FrozenSet[Vertex]]]:
    """Min-id flooding among participating nodes for exactly ``rounds`` rounds.

    Returns ``(leader, participating_neighbours)``.  ``leader`` is the
    minimum id seen, i.e. the leader of the participant's component of
    G[U] (provided ``rounds`` is at least that component's diameter), and
    ``None`` for non-participants.  Only participants emit ``("lead", id)``
    messages, so floods cannot leak across components of G[U] even though
    the physical network is connected.

    A participant sends in the first round and afterwards only in a round
    after its minimum improved: an unchanged id was already delivered to
    every neighbour.  After round r the minimum is still the one over the
    participant's radius-r ball in G[U], so rounds and payloads are those
    of sending every round.  Because every participant sends in round 1,
    a participant hears exactly its participating neighbours in that round
    and returns them as the second value (non-participants return an
    empty set).
    """
    best: Optional[Vertex] = ctx.node if participating else None
    improved = participating
    heard: Set[Vertex] = set()
    with ctx.phase("leader-election"):
        for r in range(rounds):
            if improved:
                ctx.send_all(("lead", best))
                improved = False
            inbox = yield
            if participating:
                for sender, payload in inbox.items():
                    if isinstance(payload, tuple) and payload and payload[0] == "lead":
                        if r == 0:
                            heard.add(sender)
                        candidate = payload[1]
                        if candidate is not None and candidate < best:
                            best = candidate
                            improved = True
    return best, frozenset(heard)


def flood_value(
    ctx: NodeContext, value: Optional[Payload], rounds: int
) -> Generator[None, Inbox, List[Payload]]:
    """Flood ``value`` (if any) network-wide for ``rounds`` rounds.

    Returns every distinct flooded value seen.  Values must be small
    (budget-sized); with rounds >= diameter every node sees every value.
    """
    known: Dict[str, Payload] = {}
    if value is not None:
        known[repr(value)] = value
    fresh = list(known.values())
    for _ in range(rounds):
        if fresh:
            # One new value per neighbor per round (pipelined).
            ctx.send_all(("flood", fresh[0]))
            fresh = fresh[1:]
        inbox = yield
        # Canonical sender order: the relay queue (and hence every later
        # message and the return value) must not depend on inbox order.
        for _, payload in ordered_inbox(inbox):
            if isinstance(payload, tuple) and payload and payload[0] == "flood":
                key = repr(payload[1])
                if key not in known:
                    known[key] = payload[1]
                    fresh.append(payload[1])
    return list(known.values())


def broadcast_from_root(
    ctx: NodeContext,
    is_root: bool,
    value: Optional[Payload],
    rounds: int,
) -> Generator[None, Inbox, Optional[Payload]]:
    """Flood a single value from one root for ``rounds`` rounds; everyone
    returns the value (or None if it did not arrive in time)."""
    current: Optional[Payload] = value if is_root else None
    sent = False
    for _ in range(rounds):
        if current is not None and not sent:
            ctx.send_all(("bcast", current))
            sent = True
        inbox = yield
        if current is None:
            # First match in canonical sender order: with a single root all
            # copies agree, but a misused double-root broadcast must still
            # resolve identically under any delivery order.
            for _, payload in ordered_inbox(inbox):
                if isinstance(payload, tuple) and payload and payload[0] == "bcast":
                    current = payload[1]
                    break
    return current


def exchange_with_neighbors(
    ctx: NodeContext, payload: Payload
) -> Generator[None, Inbox, Inbox]:
    """One round: send ``payload`` to every neighbor, return the inbox."""
    ctx.send_all(payload)
    inbox = yield
    return inbox


def send_items_to(
    ctx: NodeContext,
    target: Vertex,
    items: List[Payload],
    tag: str,
) -> Generator[None, Inbox, List[Inbox]]:
    """Stream ``items`` to ``target`` one per round, then an end marker.

    This is how protocols pay the Θ(k / log n) price of large logical
    payloads (e.g. the OPT tables of Lemma 4.6): each item must fit the
    budget on its own.  Returns the inboxes observed while streaming, so
    callers can keep processing concurrent traffic.
    """
    observed: List[Inbox] = []
    for item in items:
        ctx.send(target, (tag, item))
        observed.append((yield))
    ctx.send(target, (tag + "/end", None))
    observed.append((yield))
    return observed


def reliable_send(
    ctx: NodeContext,
    target: Vertex,
    payload: Payload,
    tag: str = "rel",
    max_retries: Optional[int] = None,
    backoff: int = 2,
) -> Generator[None, Inbox, int]:
    """Send ``payload`` to ``target``, retransmitting until acknowledged.

    The point-to-point reliability primitive for lossy substrates (see
    :mod:`repro.faults`): transmit ``(tag, payload)``, wait an
    exponentially growing window of rounds for ``(tag + "/ack",)`` from
    ``target`` (the partner runs :func:`reliable_recv`), and retransmit on
    timeout.  The first window is 2 rounds — the minimum round trip — and
    each retry multiplies it by ``backoff``.  Returns the number of
    retransmissions (0 on a clean first delivery), each also counted in
    ``metrics.retransmissions`` via ``ctx.record_retry``.

    ``max_retries=None`` waits forever: under persistent loss (or a crashed
    partner) the node — and with it the whole synchronous network — stalls
    until ``max_rounds``.  Lint rule RL005 flags such unbounded calls;
    pass a finite bound to fail closed with
    :class:`~repro.errors.FaultToleranceExceeded` instead.
    """
    if backoff < 1:
        raise ProtocolError("reliable_send backoff must be >= 1")
    ack = tag + "/ack"
    retries = 0
    window = 2
    while True:
        ctx.send(target, (tag, payload))
        if retries:
            ctx.record_retry()
        for _ in range(window):
            inbox = yield
            got = inbox.get(target)
            if isinstance(got, tuple) and got and got[0] == ack:
                return retries
        if max_retries is not None and retries >= max_retries:
            raise FaultToleranceExceeded(
                f"node {ctx.node!r}: no ack from {target!r} after "
                f"{retries} retransmissions (tag {tag!r})",
                node=ctx.node,
                round=ctx.round_number,
            )
        retries += 1
        window *= backoff


def reliable_recv(
    ctx: NodeContext,
    source: Vertex,
    tag: str = "rel",
    max_rounds: Optional[int] = None,
    linger: int = 0,
) -> Generator[None, Inbox, Payload]:
    """Receive one :func:`reliable_send` payload from ``source``, acking it.

    Waits for ``(tag, payload)``, answers ``(tag + "/ack",)``, and returns
    the payload.  ``linger`` extra rounds re-ack late retransmitted copies
    (an ack can itself be lost); ``max_rounds`` bounds the wait, failing
    closed with :class:`~repro.errors.FaultToleranceExceeded` when the
    sender never gets through.
    """
    ack = tag + "/ack"
    waited = 0
    while True:
        inbox = yield
        waited += 1
        got = inbox.get(source)
        if isinstance(got, tuple) and len(got) == 2 and got[0] == tag:
            break
        if max_rounds is not None and waited >= max_rounds:
            raise FaultToleranceExceeded(
                f"node {ctx.node!r}: nothing from {source!r} within "
                f"{max_rounds} rounds (tag {tag!r})",
                node=ctx.node,
                round=ctx.round_number,
            )
    payload = got[1]
    ctx.send(source, (ack,))
    for _ in range(linger):
        inbox = yield
        late = inbox.get(source)
        if isinstance(late, tuple) and len(late) == 2 and late[0] == tag:
            ctx.send(source, (ack,))
    return payload


class ItemCollector:
    """Accumulates streamed items (see :func:`send_items_to`) per sender."""

    def __init__(self, tag: str, senders: Iterable[Vertex]):
        self._tag = tag
        self._items: Dict[Vertex, List[Payload]] = {v: [] for v in senders}
        self._done: Dict[Vertex, bool] = {v: False for v in self._items}

    def absorb(self, inbox: Inbox) -> None:
        for sender, payload in inbox.items():
            if sender not in self._items:
                continue
            if not isinstance(payload, tuple) or not payload:
                continue
            if payload[0] == self._tag:
                if self._done[sender]:
                    raise ProtocolError(f"item from {sender!r} after end marker")
                self._items[sender].append(payload[1])
            elif payload[0] == self._tag + "/end":
                self._done[sender] = True

    @property
    def complete(self) -> bool:
        return all(self._done.values())

    def items_from(self, sender: Vertex) -> List[Payload]:
        return list(self._items[sender])
