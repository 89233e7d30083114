"""Tests for the seeded sweep runner (:mod:`repro.congest.parallel`).

Determinism is the contract: the same grid and base seed must produce the
same per-shard seeds and the same results, so any point is replayable on
its own.
"""

import pytest

from repro.congest.parallel import run_sweep, shard_seed
from repro.errors import CongestError


def echo_worker(params):
    """Echo the params the worker received."""
    return dict(params)


def failing_worker(params):
    if params["n"] == 2:
        raise ValueError("boom")
    return params["n"]


def test_shard_seed_is_deterministic_and_spread():
    seeds = [shard_seed(0, i) for i in range(8)]
    assert seeds == [shard_seed(0, i) for i in range(8)]
    assert len(set(seeds)) == 8
    # Shifted base seeds must not collide shard-for-shard.
    shifted = [shard_seed(1, i) for i in range(8)]
    assert all(a != b for a, b in zip(seeds[1:], shifted))


def test_run_sweep_injects_seeds_and_preserves_grid_order():
    grid = [{"n": n} for n in (4, 6, 8)]
    results = run_sweep(echo_worker, grid, seed=5)
    assert [r.shard.index for r in results] == [0, 1, 2]
    assert [r.value["n"] for r in results] == [4, 6, 8]
    for i, r in enumerate(results):
        assert r.value["shard"] == i
        assert r.value["seed"] == shard_seed(5, i)
    # A point that pins its own seed keeps it.
    pinned = run_sweep(echo_worker, [{"n": 4, "seed": 99}], seed=5)
    assert pinned[0].value["seed"] == 99


def test_strict_sweep_raises_naming_the_shard():
    seen = []

    def worker(params):
        seen.append(params["n"])
        return failing_worker(params)

    grid = [{"n": n} for n in (1, 2, 3)]
    with pytest.raises(CongestError, match="shard 1"):
        run_sweep(worker, grid, seed=0)
    assert seen == [1, 2]  # no shard runs after the first failure


def test_shard_error_repr_names_its_shard():
    # The error message alone must identify the failing grid point and
    # the worker's exception, e.g. in a benchmark log.
    with pytest.raises(CongestError) as info:
        run_sweep(failing_worker, [{"n": n} for n in (1, 2, 3)], seed=0)
    message = str(info.value)
    assert message.startswith("sweep shard 1 (params {'n': 2}) failed: ")
    assert message.endswith("ValueError: boom")
    assert isinstance(info.value.__cause__, ValueError)
