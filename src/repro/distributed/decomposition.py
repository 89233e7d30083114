"""Distributed low-treedepth decomposition for grid networks.

Theorem 7.2's general algorithm (Nešetřil–Ossona de Mendez) is simulated
per DESIGN §4; for the grid family used by the E7 benchmark and the mesh
example we additionally provide an honest *distributed* construction: a
grid node that knows its own coordinates computes its residue color in
zero communication, and one verification round lets every node check its
neighbors' coordinates are consistent (adjacent nodes differ by one in
exactly one coordinate) — so corrupted inputs are detected rather than
silently producing an invalid decomposition.

This instantiates the Corollary 7.3 pipeline fully in the CONGEST model
for grids: O(1) rounds for the decomposition instead of the charged
O(log n) of the general theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

from ..congest import Inbox, NodeContext, node_program, run_protocol
from ..errors import ProtocolError
from ..expansion import LowTreedepthDecomposition
from ..graph import Graph, Vertex
from ..obs import maybe_phase
from ..runconfig import RunConfig, resolve_tracer


@node_program(rounds="10")
def grid_coloring_program(ctx: NodeContext) -> Generator[None, Inbox, Optional[int]]:
    """Compute the residue color locally; verify neighbor coordinates.

    Inputs: ``row``, ``col``, ``p``.  Output: the part index, or ``None``
    if a neighbor's announced coordinates are inconsistent with adjacency.
    """
    row = int(ctx.input["row"])
    col = int(ctx.input["col"])
    p = int(ctx.input["p"])
    period = p + 1
    color = (row % period) * period + (col % period)
    with ctx.phase("coordinate-verification"):
        ctx.send_all(("coord", row, col))
        inbox = yield
    if set(inbox) != set(ctx.neighbors):
        return None  # a neighbor's announcement never arrived (lost/crashed)
    for payload in inbox.values():
        if not (isinstance(payload, tuple) and payload and payload[0] == "coord"):
            return None
        n_row, n_col = payload[1], payload[2]
        if abs(n_row - row) + abs(n_col - col) != 1:
            return None  # not a grid neighbor: coordinates are forged
    return color


@dataclass
class DistributedDecompositionResult:
    """Outcome of the distributed grid decomposition."""

    decomposition: Optional[LowTreedepthDecomposition]
    accepted: bool
    rounds: int
    max_message_bits: int


def grid_decomposition_distributed(
    graph: Graph,
    rows: int,
    cols: int,
    p: int,
    *,
    config: Optional[RunConfig] = None,
) -> DistributedDecompositionResult:
    """Run the O(1)-round distributed residue coloring on a grid network.

    ``graph`` must be the rows x cols grid with vertex ids r*cols + c (the
    :func:`repro.graph.generators.grid` convention, which fixes each node's
    coordinates as its local input).  Of ``config`` (default
    ``RunConfig()``) only the budget, delivery order, seed, fault plan and
    tracer apply.  A node whose verification inbox was corrupted or
    depleted by faults reports ``None`` and the decomposition is rejected
    rather than silently wrong.
    """
    if graph.num_vertices() != rows * cols:
        raise ProtocolError("graph does not match the announced grid shape")
    inputs: Dict[Vertex, Dict[str, int]] = {
        r * cols + c: {"row": r, "col": c, "p": p}
        for r in range(rows)
        for c in range(cols)
    }
    cfg = config or RunConfig()
    tracer = resolve_tracer(cfg.trace)
    with maybe_phase(tracer, "decomposition"):
        result = run_protocol(
            graph,
            grid_coloring_program,
            inputs=inputs,
            budget=cfg.budget,
            max_rounds=10,
            tracer=tracer,
            inbox_order=cfg.inbox_order,
            seed=cfg.seed,
            faults=cfg.faults,
        )
    if result.crashed or any(
        color is None for color in result.outputs.values()
    ):
        return DistributedDecompositionResult(
            decomposition=None,
            accepted=False,
            rounds=result.rounds,
            max_message_bits=result.metrics.max_message_bits,
        )
    decomposition = LowTreedepthDecomposition(
        p=p,
        part_of=dict(result.outputs),
        num_parts=(p + 1) ** 2,
        bound_kind="window",
    )
    return DistributedDecompositionResult(
        decomposition=decomposition,
        accepted=True,
        rounds=result.rounds,
        max_message_bits=result.metrics.max_message_bits,
    )
