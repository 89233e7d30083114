"""The phase-span tracer: rounds, messages, and bits by protocol phase.

Design constraints (see ``docs/observability.md``):

* **Hierarchical phases.**  Harness code opens *global* spans
  (``tracer.phase("elimination")``); node programs open *per-node* spans
  (``ctx.phase("leader-election")``).  A node's effective phase path is the
  concatenation of the open global stack and its own stack, joined with
  ``/`` — e.g. ``elimination/adoption/leader-election``.
* **Lockstep ref-counting.**  CONGEST programs run in lockstep, so all n
  nodes enter the same phase together.  A phase *span* (and its
  enter/exit events) opens when the first participant enters the path and
  closes when the last one leaves; per-node entries in between only bump a
  reference count.
* **Round attribution.**  A round is charged to the phase that sent the
  most messages during it; silent rounds go to the phase that was dominant
  when the round started.  Attribution is deferred one round so that a
  phase entered at the top of a round still receives that round's traffic.
* **Zero overhead when absent.**  The simulator guards every hook with
  ``if tracer is not None``; disabled runs never allocate.  Node programs
  always call ``ctx.phase(...)``, which returns the shared
  :data:`NULL_SPAN` singleton when tracing is off.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List, Optional, Tuple

from .events import (
    DeliverEvent,
    FaultEvent,
    NodeHalt,
    PhaseEnter,
    PhaseExit,
    RoundStart,
    SendEvent,
    TraceEvent,
)

UNPHASED = "unphased"


class _NullSpan:
    """Shared no-op context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


NULL_SPAN = _NullSpan()


class PhaseStats:
    """Aggregate round/message/bit figures for one phase path."""

    __slots__ = ("rounds", "messages", "bits", "max_message_bits", "entries")

    def __init__(self) -> None:
        self.rounds = 0
        self.messages = 0
        self.bits = 0
        self.max_message_bits = 0
        self.entries = 0  # number of span openings (first-enter events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PhaseStats(rounds={self.rounds}, messages={self.messages}, "
            f"bits={self.bits}, max_message_bits={self.max_message_bits})"
        )


class ProfileStat:
    """Wall-clock accumulator for one profiled sequential section."""

    __slots__ = ("calls", "seconds", "max_seconds")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.max_seconds = 0.0


class _PhaseSpan:
    """Context manager produced by :meth:`Tracer.phase`."""

    __slots__ = ("_tracer", "_name", "_node", "_path")

    def __init__(self, tracer: "Tracer", name: str, node: Optional[Any]):
        self._tracer = tracer
        self._name = name
        self._node = node
        self._path = ""

    def __enter__(self) -> "_PhaseSpan":
        self._path = self._tracer._enter_phase(self._name, self._node)
        return self

    def __exit__(self, *exc: Any) -> bool:
        self._tracer._exit_phase(self._name, self._node, self._path)
        return False


class _ProfileSpan:
    """Context manager produced by :meth:`Tracer.profile`."""

    __slots__ = ("_tracer", "_name", "_start")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_ProfileSpan":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        elapsed = time.perf_counter() - self._start
        stat = self._tracer.timings.get(self._name)
        if stat is None:
            stat = self._tracer.timings[self._name] = ProfileStat()
        stat.calls += 1
        stat.seconds += elapsed
        stat.max_seconds = max(stat.max_seconds, elapsed)
        return False


class Tracer:
    """Structured instrumentation sink for the CONGEST stack.

    One tracer may span several consecutive :class:`~repro.congest.runtime.
    Simulation` runs (e.g. Algorithm 2 followed by the checking
    convergecast); its ``round`` counter is global across them.

    ``events=False`` keeps the aggregate tables (phases, nodes, edges,
    timings) but drops the per-event log — the cheap mode benchmarks use.
    """

    def __init__(
        self,
        events: bool = True,
        max_events: int = 200_000,
        capture_payloads: bool = True,
    ):
        self.wants_events = events
        self.max_events = max_events
        self.capture_payloads = capture_payloads
        self.events: List[TraceEvent] = []
        self.truncated = False
        self.round = 0
        self.phase_stats: Dict[str, PhaseStats] = {}
        self.fault_counts: Dict[str, int] = {}
        self.timings: Dict[str, ProfileStat] = {}
        self._global_stack: List[str] = []
        self._global_path = ""
        self._node_stacks: Dict[Any, List[str]] = {}
        self._node_path: Dict[Any, str] = {}
        self._open_counts: Dict[str, int] = {}
        self._open_order: List[str] = []
        self._round_sends: Dict[str, int] = {}
        self._pending_phase = UNPHASED
        self._round_closed = True

    # -- phase spans ----------------------------------------------------
    def phase(self, name: str, node: Optional[Any] = None) -> _PhaseSpan:
        """Open a phase span (global when ``node`` is None, else per-node)."""
        return _PhaseSpan(self, name, node)

    def _enter_phase(self, name: str, node: Optional[Any]) -> str:
        if node is None:
            self._global_stack.append(name)
            self._global_path = "/".join(self._global_stack)
            path = self._global_path
        else:
            stack = self._node_stacks.setdefault(node, [])
            stack.append(name)
            parts = self._global_stack + stack
            path = "/".join(parts)
            self._node_path[node] = path
        count = self._open_counts.get(path, 0)
        self._open_counts[path] = count + 1
        if count == 0:
            self._open_order.append(path)
            stats = self.phase_stats.get(path)
            if stats is None:
                stats = self.phase_stats[path] = PhaseStats()
            stats.entries += 1
            self._emit(PhaseEnter(round=self.round, phase=path, node=node))
        return path

    def _exit_phase(self, name: str, node: Optional[Any], path: str) -> None:
        if node is None:
            if self._global_stack and self._global_stack[-1] == name:
                self._global_stack.pop()
            elif name in self._global_stack:  # tolerate interleaved exits
                self._global_stack.remove(name)
            self._global_path = "/".join(self._global_stack)
        else:
            stack = self._node_stacks.get(node, [])
            if stack and stack[-1] == name:
                stack.pop()
            elif name in stack:
                stack.remove(name)
            parts = self._global_stack + stack
            self._node_path[node] = "/".join(parts)
        remaining = self._open_counts.get(path, 0) - 1
        if remaining <= 0:
            self._open_counts.pop(path, None)
            if path in self._open_order:
                self._open_order.remove(path)
            self._emit(PhaseExit(round=self.round, phase=path, node=node))
        else:
            self._open_counts[path] = remaining

    def _phase_for(self, node: Any) -> str:
        path = self._node_path.get(node)
        if path:
            return path
        return self._global_path or UNPHASED

    def _dominant(self) -> str:
        if not self._open_order:
            return UNPHASED
        order = self._open_order
        return max(order, key=lambda p: (self._open_counts[p], order.index(p)))

    def _stats_for(self, path: str) -> PhaseStats:
        stats = self.phase_stats.get(path)
        if stats is None:
            stats = self.phase_stats[path] = PhaseStats()
        return stats

    # -- simulator hooks ------------------------------------------------
    def on_round_start(self) -> None:
        self._close_round()
        self.round += 1
        self._round_closed = False
        self._pending_phase = self._dominant()
        self._emit(RoundStart(round=self.round, phase=self._pending_phase))

    def _close_round(self) -> None:
        """Attribute the just-finished round to its dominant phase."""
        if self._round_closed:
            return
        self._round_closed = True
        if self._round_sends:
            path = max(
                self._round_sends.items(),
                key=lambda kv: (kv[1], kv[0].count("/"), kv[0]),
            )[0]
            self._round_sends = {}
        else:
            path = self._pending_phase
        self._stats_for(path).rounds += 1

    def finish(self) -> None:
        """Finalize the pending round (idempotent; exporters call this)."""
        self._close_round()

    def on_send(self, sender: Any, receiver: Any, bits: int, payload: Any) -> None:
        path = self._phase_for(sender)
        stats = self._stats_for(path)
        stats.messages += 1
        stats.bits += bits
        if bits > stats.max_message_bits:
            stats.max_message_bits = bits
        self._round_sends[path] = self._round_sends.get(path, 0) + 1
        if self.wants_events:
            self._emit(SendEvent(
                round=self.round,
                sender=sender,
                receiver=receiver,
                bits=bits,
                phase=path,
                payload=repr(payload) if self.capture_payloads else "",
            ))

    def on_deliver(self, sender: Any, receiver: Any, bits: int) -> None:
        if self.wants_events:
            self._emit(DeliverEvent(
                round=self.round, sender=sender, receiver=receiver, bits=bits
            ))

    def on_halt(self, node: Any, output: Any) -> None:
        if self.wants_events:
            self._emit(NodeHalt(
                round=self.round,
                node=node,
                output=repr(output) if self.capture_payloads else "",
            ))

    def on_fault(self, event: FaultEvent) -> None:
        """Record an injected-fault event (see :mod:`repro.faults`).

        The event's ``round`` field is rewritten to the tracer's *global*
        round counter so post-mortems line up with the rest of the log even
        across the several Simulations of one pipeline.
        """
        self.fault_counts[event.kind] = self.fault_counts.get(event.kind, 0) + 1
        if self.wants_events:
            if event.round != self.round:
                event = dataclasses.replace(event, round=self.round)
            self._emit(event)

    # -- wall-clock profiling -------------------------------------------
    def profile(self, name: str) -> _ProfileSpan:
        """Time a sequential section under ``name`` (accumulating)."""
        return _ProfileSpan(self, name)

    # -- event sink -----------------------------------------------------
    def _emit(self, event: TraceEvent) -> None:
        if not self.wants_events:
            return
        if len(self.events) >= self.max_events:
            self.truncated = True
            return
        self.events.append(event)

    # -- snapshots ------------------------------------------------------
    def phase_rows(self) -> List[Tuple[str, PhaseStats]]:
        """(path, stats) pairs in first-open order, pending round included."""
        self.finish()
        return list(self.phase_stats.items())

    def total_rounds(self) -> int:
        return self.round

    def summary(self) -> str:
        self.finish()
        total_msgs = sum(s.messages for s in self.phase_stats.values())
        total_bits = sum(s.bits for s in self.phase_stats.values())
        parts = [
            f"rounds={self.round} phases={len(self.phase_stats)} "
            f"messages={total_msgs} bits={total_bits} events={len(self.events)}"
        ]
        if self.fault_counts:
            parts.append(
                "faults=" + ",".join(
                    f"{kind}:{count}"
                    for kind, count in sorted(self.fault_counts.items())
                )
            )
        if self.truncated:
            parts.append("truncated=True")
        return " ".join(parts)
