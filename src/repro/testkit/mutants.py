"""The harness's own sensitivity check: a deliberately broken reference.

A differential oracle that never fires is indistinguishable from one that
cannot fire.  :func:`mutant_reference` is a drop-in replacement for
:func:`~repro.testkit.oracles.sequential_reference` whose ``optimize``
answer models one planted off-by-one in Algorithm 1's dynamic program
(:func:`repro.algebra.engine.optimize`): a glue that reads
``w = w1 + w2 + 1`` instead of ``w = w1 + w2``.  Such a glue shifts every
entry of its table alike, so the best class never changes, and a run
glues n - 1 times (each non-root vertex into its parent, then the roots
together): the mutant's optimum is the honest one plus n - 1.  The
mutation is *silent* — nothing raises — so

    differential_check(case, reference=mutant_reference)

must report ``verdict`` discrepancies on any feasible optimize case with
at least two vertices, and the shrinker must carry such a failure down to
a tiny graph.  The mutation test in ``tests/test_testkit_mutation.py``
pins exactly that, which is the evidence that the oracle, the shrinker,
and the replay pipeline are alive end to end.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..algebra.cache import AutomatonCache
from .cases import Case
from .oracles import Reference, sequential_reference

__all__ = ["mutant_reference", "mutant_optimize_value"]


def mutant_optimize_value(case: Case, cache: AutomatonCache) -> Optional[int]:
    """The planted-off-by-one optimum for an ``optimize`` case."""
    return mutant_reference(case, cache).value


def mutant_reference(case: Case, cache: AutomatonCache) -> Reference:
    """A reference with a silent off-by-one in the optimize glue update.

    Non-``optimize`` workloads and infeasible cases get the honest
    reference, so the mutation check isolates the optimize oracle path.
    """
    honest = sequential_reference(case, cache)
    if case.workload != "optimize" or honest.value is None:
        return honest
    # MUTATION: one extra unit per glue, n - 1 glues per run.
    return replace(honest, value=honest.value + case.graph.num_vertices() - 1)
