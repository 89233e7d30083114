"""The paper's distributed protocols (Algorithm 2, Theorem 6.1, §6-7).

Every entry point here takes its run settings as one keyword-only
``config=`` :class:`~repro.runconfig.RunConfig`; :class:`repro.api.Session`
is the keyword surface over them (see ``docs/api.md``).
"""

from .baselines import BaselineDecision, gather_decide
from .counting import DistributedCount, count_pipeline
from .decomposition import (
    DistributedDecompositionResult,
    grid_coloring_program,
    grid_decomposition_distributed,
)
from .elimination import (
    DistributedEliminationResult,
    EliminationOutput,
    build_elimination_tree,
    elimination_tree_program,
)
from .hfree import HFreenessResult, decide_h_freeness
from .marked import DistributedOptMarked, optmarked_distributed
from .model_checking import (
    ClassCodec,
    DistributedDecision,
    decide_pipeline,
    node_inputs_from_elimination,
)
from .optimization import (
    DistributedOptimization,
    NodeSelection,
    optimize_pipeline,
)

__all__ = [
    "BaselineDecision",
    "ClassCodec",
    "DistributedCount",
    "DistributedDecision",
    "DistributedDecompositionResult",
    "DistributedEliminationResult",
    "grid_coloring_program",
    "grid_decomposition_distributed",
    "DistributedOptMarked",
    "DistributedOptimization",
    "EliminationOutput",
    "HFreenessResult",
    "NodeSelection",
    "build_elimination_tree",
    "count_pipeline",
    "decide_h_freeness",
    "decide_pipeline",
    "elimination_tree_program",
    "gather_decide",
    "node_inputs_from_elimination",
    "optimize_pipeline",
    "optmarked_distributed",
]
