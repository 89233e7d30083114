"""Seeded sweep runner for benchmark and experiment grids.

A *sweep* runs one worker function over a grid of parameter points
(dictionaries).  Each point becomes a :class:`Shard` carrying a
deterministic seed derived from the sweep's base seed and the shard index
— the same grid and base seed always reproduce the same per-shard seeds,
so any single point can be replayed on its own.  Shards run serially
in-process and results come back in grid order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

from ..errors import CongestError
from ..obs.registry import registry as _registry

__all__ = ["Shard", "ShardResult", "shard_seed", "run_sweep"]


def shard_seed(base_seed: int, index: int) -> int:
    """Deterministic 32-bit seed for shard ``index`` of a sweep.

    Derived by hashing (not by ``base_seed + index``) so that neighboring
    shards get statistically unrelated streams and nested sweeps with
    shifted base seeds cannot collide shard-for-shard.
    """
    digest = hashlib.sha256(f"repro-shard:{base_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class Shard:
    """One grid point of a sweep: its index, derived seed, and params."""

    index: int
    seed: int
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ShardResult:
    """A shard and the value its worker returned."""

    shard: Shard
    value: Any = None


def run_sweep(
    worker: Callable[[Dict[str, Any]], Any],
    grid: Sequence[Dict[str, Any]],
    *,
    seed: int = 0,
) -> List[ShardResult]:
    """Run ``worker`` over every point of ``grid``; results in grid order.

    Each shard's params are augmented with a deterministic ``seed`` (via
    :func:`shard_seed`, unless the point already pins one) and its
    ``shard`` index, so a sweep is replayable point-by-point.  A failing
    shard raises :class:`CongestError` naming the shard and its params,
    chained to the worker's exception.
    """
    shards = [
        Shard(index=i, seed=shard_seed(seed, i), params=dict(point))
        for i, point in enumerate(grid)
    ]
    reg = _registry()
    reg.counter("repro_sweeps_total", "Parameter sweeps launched.").inc()
    reg.counter("repro_sweep_shards_total",
                "Shards executed across all sweeps.").inc(len(shards))
    results = []
    for shard in shards:
        params = dict(shard.params)
        params.setdefault("seed", shard.seed)
        params.setdefault("shard", shard.index)
        try:
            value = worker(params)
        except Exception as exc:
            raise CongestError(
                f"sweep shard {shard.index} (params {shard.params!r}) "
                f"failed: {type(exc).__name__}: {exc}"
            ) from exc
        results.append(ShardResult(shard=shard, value=value))
    return results
