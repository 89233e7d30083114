"""Round/message/bit accounting for CONGEST executions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class RoundMetrics:
    """Aggregate statistics of one simulated execution.

    ``max_message_bits`` is the headline CONGEST-legality figure: it must
    stay within the per-edge budget (O(log n)) for the execution to be a
    valid CONGEST run.  ``per_round_messages`` / ``per_round_bits`` track
    the load profile round by round.  ``undelivered_messages`` counts
    messages queued in the final sweep after every node had halted — a
    send no receiver could ever observe, i.e. a round-structure bug in
    the protocol (lint rule RL003).

    Fault-injection bookkeeping (see :mod:`repro.faults`):
    ``faults_injected`` counts injected faults by trace-event kind (e.g.
    ``fault-drop``); ``retransmissions`` counts redundant copies sent by
    the reliability layer (:func:`repro.faults.reliable_program`) — zero
    on faultless runs without a reliability wrapper.
    """

    budget_bits: int
    rounds: int = 0
    total_messages: int = 0
    total_bits: int = 0
    max_message_bits: int = 0
    per_round_messages: List[int] = field(default_factory=list)
    per_round_bits: List[int] = field(default_factory=list)
    undelivered_messages: int = 0
    faults_injected: Dict[str, int] = field(default_factory=dict)
    retransmissions: int = 0

    def record_round(self) -> None:
        self.rounds += 1
        self.per_round_messages.append(0)
        self.per_round_bits.append(0)

    def record_fault(self, kind: str) -> None:
        self.faults_injected[kind] = self.faults_injected.get(kind, 0) + 1

    def record_retry(self, count: int = 1) -> None:
        self.retransmissions += count

    @property
    def total_faults(self) -> int:
        return sum(self.faults_injected.values())

    def record_message_batch(self, count: int, bits: int, max_bits: int) -> None:
        """Fold one round's accumulated message counters in at once.

        Used by the round scheduler (array-backed accumulation): ``count``
        messages totalling ``bits`` bits, the largest being ``max_bits``,
        all sent in the current round.
        """
        self.total_messages += count
        self.total_bits += bits
        if max_bits > self.max_message_bits:
            self.max_message_bits = max_bits
        if self.per_round_messages:
            self.per_round_messages[-1] += count
            self.per_round_bits[-1] += bits

    def peak_round_messages(self) -> Tuple[int, int]:
        """(1-based round, message count) of the busiest round by messages."""
        if not self.per_round_messages:
            return (0, 0)
        count = max(self.per_round_messages)
        return (self.per_round_messages.index(count) + 1, count)

    def peak_round_bits(self) -> Tuple[int, int]:
        """(1-based round, bits) of the busiest round by bits."""
        if not self.per_round_bits:
            return (0, 0)
        bits = max(self.per_round_bits)
        return (self.per_round_bits.index(bits) + 1, bits)

    def summary(self) -> str:
        peak_r, peak_m = self.peak_round_messages()
        _, peak_b = self.peak_round_bits()
        text = (
            f"rounds={self.rounds} messages={self.total_messages} "
            f"bits={self.total_bits} max_message_bits={self.max_message_bits} "
            f"peak_round={peak_r} peak_round_messages={peak_m} "
            f"peak_round_bits={peak_b} budget={self.budget_bits}"
        )
        if self.undelivered_messages:
            text += f" undelivered={self.undelivered_messages}"
        if self.faults_injected:
            text += " faults=" + ",".join(
                f"{kind}:{count}"
                for kind, count in sorted(self.faults_injected.items())
            )
        if self.retransmissions:
            text += f" retransmissions={self.retransmissions}"
        return text
