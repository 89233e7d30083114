"""Round-synchronous CONGEST simulator with strict message accounting."""

from .messages import Payload, check_payload, fragment_payload, int_bits, payload_bits
from .metrics import RoundMetrics
from .primitives import (
    ItemCollector,
    broadcast_from_root,
    exchange_with_neighbors,
    flood_value,
    idle,
    leader_election,
    ordered_inbox,
    reliable_recv,
    reliable_send,
    send_items_to,
)
from .parallel import Shard, ShardResult, merge_metrics, run_sweep, shard_seed
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
    "Simulation", "SimulationResult", "broadcast_from_root", "check_payload",
    "default_budget", "exchange_with_neighbors", "flood_value",
    "fragment_payload", "idle", "int_bits", "iter_registered",
    "leader_election", "merge_metrics", "node_program", "ordered_inbox",
    "payload_bits", "registered_programs", "reliable_recv", "reliable_send",
    "run_protocol", "run_sweep", "send_items_to", "shard_seed",
]
