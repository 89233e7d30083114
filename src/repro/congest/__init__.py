"""Round-synchronous CONGEST simulator with strict message accounting."""

from .messages import Payload, int_bits, payload_bits
from .metrics import RoundMetrics
from .primitives import ItemCollector, leader_election, ordered_inbox
from .parallel import Shard, ShardResult, run_sweep, shard_seed
from .runtime import (
    INBOX_ORDERS,
    Inbox,
    NodeContext,
    NodeProgram,
    Simulation,
    SimulationResult,
    default_budget,
    node_program,
    require_connected,
    run_protocol,
)

__all__ = [
    "INBOX_ORDERS", "Inbox", "ItemCollector", "NodeContext",
    "NodeProgram", "Payload", "RoundMetrics", "Shard", "ShardResult",
    "Simulation", "SimulationResult", "default_budget", "int_bits",
    "leader_election", "node_program", "ordered_inbox", "payload_bits",
    "require_connected", "run_protocol", "run_sweep", "shard_seed",
]
