"""Metamorphic conformance harness for the sequential↔distributed pipeline.

Theorem 6.1 promises that the CONGEST pipeline and the sequential
Borie–Parker–Tovey Algorithm 1 compute the *same* verdicts, optima, and
counts for every MSO formula, graph, and depth bound.  This package turns
that promise into an executable oracle:

* :mod:`~repro.testkit.cases` — the :class:`Case` value (graph, depth
  promise, formula, workload, fault axis) with a parseable formula codec
  and content-addressed JSON serialization;
* :mod:`~repro.testkit.generators` — seeded, size-bounded case
  generators over the paper's graph families and an MSO fragment;
* :mod:`~repro.testkit.oracles` — the differential oracle: sequential
  semantics vs :class:`repro.api.Session` across ``inbox_order`` ×
  fault plans, with a byte-transparency check for the null fault plan;
* :mod:`~repro.testkit.metamorphic` — metamorphic relations
  (isomorphism invariance, label permutation, disjoint-union
  composition, seed independence);
* :mod:`~repro.testkit.shrink` — a greedy case minimizer;
* :mod:`~repro.testkit.corpus` — replay files and corpus directories;
* :mod:`~repro.testkit.runner` — the fuzz loop behind ``repro fuzz``;
* :mod:`~repro.testkit.mutants` — deliberately broken reference copies
  that validate the harness's own sensitivity.

The harness is importable (not just test files): property tests, the
``repro fuzz`` CLI, and CI smoke jobs all share these modules.
"""

from .cases import Case, formula_from_source, formula_to_source
from .corpus import iter_corpus, load_case, save_case
from .generators import CaseGenerator
from .metamorphic import check_metamorphic
from .mutants import mutant_reference
from .oracles import (
    Discrepancy,
    differential_check,
    replay_roundtrip_check,
    sequential_reference,
)
from .runner import FuzzConfig, FuzzReport, run_fuzz
from .shrink import shrink_case

__all__ = [
    "Case",
    "CaseGenerator",
    "Discrepancy",
    "FuzzConfig",
    "FuzzReport",
    "check_metamorphic",
    "differential_check",
    "formula_from_source",
    "formula_to_source",
    "iter_corpus",
    "load_case",
    "mutant_reference",
    "replay_roundtrip_check",
    "run_fuzz",
    "save_case",
    "sequential_reference",
    "shrink_case",
]
