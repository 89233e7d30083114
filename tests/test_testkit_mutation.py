"""The harness's sensitivity gate: the planted mutant MUST be caught.

:mod:`repro.testkit.mutants` models a silent ``w1 + w2 + 1`` off-by-one
in the optimize glue update: every glue shifts its table alike and a run
glues n - 1 times, so the mutant answers the honest sequential optimum
plus n - 1.  These tests pin the full kill chain — detect, shrink, replay —
so a refactor that blinds the oracle (or the shrinker, or the corpus
codec) fails loudly here instead of silently degrading the fuzzer.
"""

import glob
import json
import os

import pytest

from repro.algebra.cache import AutomatonCache
from repro.testkit import (
    CaseGenerator,
    differential_check,
    load_case,
    shrink_case,
)
from repro.testkit.mutants import mutant_reference

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


@pytest.fixture(scope="module")
def cache():
    return AutomatonCache(persist=False)


def _first_mutant_hit(cache, seed=8, budget=60):
    generator = CaseGenerator(seed, max_vertices=10)
    for _ in range(budget):
        case = generator.case()
        if case.workload != "optimize":
            continue
        found = differential_check(case, reference=mutant_reference,
                                   cache=cache)
        if found:
            return case, found
    return None, []


def test_mutant_is_caught_and_shrinks_small(cache):
    case, found = _first_mutant_hit(cache)
    assert case is not None, "the planted off-by-one was never detected"
    assert any(d.kind == "verdict" for d in found)

    def failing(candidate):
        return bool(differential_check(candidate, reference=mutant_reference,
                                       cache=cache))

    small, _checks = shrink_case(case, failing)
    assert small.graph.num_vertices() <= 8
    assert failing(small)  # still a counterexample after shrinking
    # ... and clean under the honest oracle: the bug is in the mutant,
    # not the pipeline.
    assert differential_check(small, cache=cache) == []


def _witness_files():
    out = []
    for path in sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            if json.load(handle).get("meta", {}).get("mutation_witness"):
                out.append(path)
    return out


def test_committed_witness_still_kills_the_mutant(cache):
    witnesses = _witness_files()
    assert witnesses, "no mutation witness committed under tests/corpus"
    for path in witnesses:
        case, meta = load_case(path)
        assert case.graph.num_vertices() <= 8
        assert differential_check(case, reference=mutant_reference,
                                  cache=cache), path
        assert differential_check(case, cache=cache) == []


def test_committed_corpus_is_conformant(cache):
    # Every replay file (golden cases and witnesses alike) must pass the
    # honest oracle — the corpus pins regressions, it never carries one.
    paths = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))
    assert len(paths) >= 5
    for path in paths:
        case, _meta = load_case(path)
        found = differential_check(case, cache=cache)
        assert found == [], (path, [d.format() for d in found])
