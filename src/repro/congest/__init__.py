"""Round-synchronous CONGEST simulator with strict message accounting."""

from .messages import Payload, int_bits, payload_bits
from .metrics import RoundMetrics
from .primitives import ItemCollector, leader_election, ordered_inbox
from .parallel import Shard, ShardResult, run_sweep, shard_seed
from .registry import iter_registered, node_program, registered_programs
from .runtime import (
    INBOX_ORDERS,
    Inbox,
    NodeContext,
    NodeProgram,
    Simulation,
    SimulationResult,
    default_budget,
    run_protocol,
)

__all__ = [
    "INBOX_ORDERS", "Inbox", "ItemCollector", "NodeContext",
    "NodeProgram", "Payload", "RoundMetrics", "Shard", "ShardResult",
    "Simulation", "SimulationResult", "default_budget", "int_bits",
    "iter_registered", "leader_election", "node_program", "ordered_inbox",
    "payload_bits", "registered_programs", "run_protocol", "run_sweep",
    "shard_seed",
]
