"""Reusable CONGEST sub-protocols (generator style, composed via yield from).

The key primitive is :func:`leader_election` — the paper's Algorithm 2 line
1 subroutine: min-id flooding restricted to a set U of participating nodes,
running for a fixed number of rounds so all nodes stay in lockstep, with
the paper's early-abort behavior obtained by passing a 2^d round bound.
:class:`ItemCollector` is the receiving end of the convergecasts that
stream class ids and tables up the elimination tree, and
:func:`ordered_inbox` gives inboxes a canonical order.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Generator, Iterable, List, Optional, Set, Tuple

from ..errors import ProtocolError
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


class ItemCollector:
    """Accumulates streamed items per sender.

    A sender streams a list by sending ``(tag, item)`` one per round and
    then ``(tag + "/end", None)``; each item must fit the budget on its
    own, which is how the convergecasts pay the Θ(k / log n) price of a
    k-bit table.  ``complete`` turns true once every sender has ended.
    """

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
