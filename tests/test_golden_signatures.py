"""Golden CONGEST signatures: answers and transcript sizes frozen as data.

Every run the repository ships — each ``tests/corpus`` case, a small fixed
grid of the four Session workloads under every inbox order, and the bare
pipeline entry points — is recorded in ``tests/golden/signatures.json`` as
its *signature*: the answer (verdict / value / count), rounds, messages,
maximum payload bits and the number of classes the codec assigned.  The
paper's costs are exactly these CONGEST quantities (Theorem 6.1), so a
refactor of the scheduler or the automaton kernel must leave every
signature unchanged.  A few ``forest/`` runs also pin the elimination tree
Algorithm 2 builds, as a sha256 of every node's (vertex, parent, depth,
bag), so a change that keeps the costs but moves the tree is caught too.

Each run compiles through its own in-memory cache, so class ids (and
with them payload bits) never depend on which run came first.

Regenerate only when a change is *meant* to alter transcripts::

    PYTHONPATH=src python tests/test_golden_signatures.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import pytest

from repro.algebra import compile_formula, compile_with_singletons
from repro.algebra.cache import AutomatonCache
from repro.api import Session
from repro.certification import prove, verify
from repro.congest import INBOX_ORDERS
from repro.distributed import (
    build_elimination_tree,
    count_pipeline,
    decide_h_freeness,
    decide_pipeline,
    optimize_pipeline,
    optmarked_distributed,
)
from repro.expansion import grid_residue_decomposition
from repro.faults import FaultPlan, RetryPolicy
from repro.graph import generators as gen
from repro.graph import properties as props
from repro.mso import formulas, vertex_set
from repro.runconfig import RunConfig
from repro.testkit.corpus import iter_corpus

HERE = Path(__file__).parent
GOLDEN = HERE / "golden" / "signatures.json"
CORPUS = HERE / "corpus"

Signature = Dict[str, Any]


def _session_run(graph, d, workload, formula, sense="max", **knobs):
    """One Session workload on a fresh in-memory cache, as a signature."""
    session = Session(graph, d, cache=AutomatonCache(persist=False), **knobs)
    if workload == "optimize":
        result = session.optimize(formula, sense=sense)
    else:
        result = getattr(session, workload)(formula)
    return {
        "verdict": result.verdict,
        "value": result.value,
        "count": result.count,
        "treedepth_exceeded": result.treedepth_exceeded,
        "rounds": result.rounds,
        "messages": result.messages,
        "max_payload_bits": result.max_payload_bits,
        "num_classes": result.num_classes,
    }


# ----------------------------------------------------------------------
# The recorded runs
# ----------------------------------------------------------------------

def _corpus_runs() -> List[Tuple[str, Callable[[], Signature]]]:
    runs = []
    for path, case, _meta in iter_corpus(str(CORPUS)):
        for order in INBOX_ORDERS:
            runs.append((f"corpus/{Path(path).stem}/{order}", partial(
                _session_run, case.graph, case.d, case.workload,
                case.formula, case.sense, seed=case.seed, inbox_order=order,
            )))
    return runs


def _grid_runs() -> List[Tuple[str, Callable[[], Signature]]]:
    graph = gen.random_bounded_treedepth(12, 3, seed=5)
    s = vertex_set("S")
    triangles, _scope = formulas.triangle_assignment()
    workloads = [
        ("decide", formulas.triangle_free(), "max"),
        ("optimize", formulas.independent_set(s), "max"),
        ("optimize-min", formulas.vertex_cover(s), "min"),
        ("count", triangles, "max"),
        ("certify", formulas.exists_vertex_of_degree_greater(2), "max"),
    ]
    runs = []
    for name, formula, sense in workloads:
        cell = partial(
            _session_run, graph, 3, name.split("-")[0], formula, sense,
            seed=1,
        )
        for order in INBOX_ORDERS:
            runs.append((f"grid/{name}/{order}",
                         partial(cell, inbox_order=order)))
        runs.append((f"grid/{name}/unminimized", partial(cell, minimize=False)))
    # Promises Algorithm 2 must refuse: C8 needs depth 8 > 2^2 - 1.
    for name, formula, _sense in workloads:
        if name not in ("decide", "optimize", "count"):
            continue
        runs.append((f"grid/{name}/treedepth-exceeded", partial(
            _session_run, gen.cycle(8), 2, name, formula,
        )))
    return runs


def _pipeline_runs() -> List[Tuple[str, Callable[[], Signature]]]:
    """The bare entry points with their default settings."""
    graph = gen.random_bounded_treedepth(12, 3, seed=5)
    s = vertex_set("S")
    triangles, triangle_scope = formulas.triangle_assignment()

    def decided(**knobs) -> Signature:
        out = decide_pipeline(
            compile_formula(formulas.triangle_free()), graph, 3,
            config=RunConfig(seed=1, **knobs),
        )
        return {
            "verdict": out.accepted, "rounds": out.total_rounds,
            "messages": out.total_messages,
            "max_payload_bits": out.max_message_bits,
            "num_classes": out.num_classes,
        }

    def optimized(**knobs) -> Signature:
        out = optimize_pipeline(
            compile_formula(formulas.independent_set(s), (s,)), graph, 3,
            config=RunConfig(seed=1, **knobs),
        )
        return {
            "verdict": out.feasible, "value": out.value,
            "witness": sorted(out.witness), "rounds": out.total_rounds,
            "messages": out.total_messages,
            "max_payload_bits": out.max_message_bits,
            "num_classes": out.num_classes,
        }

    def counted(**knobs) -> Signature:
        out = count_pipeline(
            compile_with_singletons(triangles, triangle_scope), graph, 3,
            config=RunConfig(seed=1, **knobs),
        )
        return {
            "count": out.count, "rounds": out.total_rounds,
            "messages": out.total_messages,
            "max_payload_bits": out.max_message_bits,
            "num_classes": out.num_classes,
        }

    def optmarked() -> Signature:
        automaton = compile_formula(formulas.independent_set(s), (s,))
        _size, best = props.max_independent_set(graph)
        signatures = {}
        for name, marked in (("optimum", best), ("single", {min(best)})):
            out = optmarked_distributed(automaton, graph, 3, frozenset(marked))
            signatures[name] = {
                "verdict": out.accepted, "rounds": out.total_rounds,
                "max_payload_bits": out.max_message_bits,
            }
        return signatures

    def eliminated() -> Signature:
        out = build_elimination_tree(graph, 3, config=RunConfig(seed=1))
        return {
            "verdict": out.accepted, "rounds": out.rounds,
            "messages": out.total_messages,
            "max_payload_bits": out.max_message_bits,
        }

    def certified() -> Signature:
        automaton = compile_formula(formulas.exists_vertex_of_degree_greater(2))
        instance = prove(graph, automaton)
        audit = verify(graph, automaton, instance)
        return {
            "verdict": audit.accepted, "rounds": audit.rounds,
            "messages": audit.total_messages,
            "max_payload_bits": instance.max_certificate_bits,
            "num_classes": instance.codec.num_classes,
        }

    def hfree() -> Signature:
        out = decide_h_freeness(
            gen.grid(4, 4), gen.cycle(4),
            grid_residue_decomposition(4, 4, p=4),
        )
        return {
            "verdict": out.h_free, "rounds": out.total_rounds,
            "runs": out.runs, "subsets_checked": out.subsets_checked,
            "max_payload_bits": out.max_message_bits,
        }

    return [
        ("pipeline/decide", decided),
        ("pipeline/optimize", optimized),
        ("pipeline/count", counted),
        ("pipeline/elimination", eliminated),
        ("pipeline/certify", certified),
        ("pipeline/hfree", hfree),
        # The redundancy-lockstep synchronizer under a null fault plan.
        ("pipeline/decide/reliable-null-plan", lambda: decided(
            faults=FaultPlan(), retry=RetryPolicy(attempts=2),
        )),
        ("pipeline/count/reliable-null-plan", lambda: counted(
            faults=FaultPlan(), retry=RetryPolicy(attempts=2),
        )),
        ("pipeline/optimize/reliable-null-plan", lambda: optimized(
            faults=FaultPlan(), retry=RetryPolicy(attempts=2),
        )),
        ("pipeline/optmarked", optmarked),
    ]


def _forest_signature(graph, d: int) -> Signature:
    """Algorithm 2's forest on ``graph`` as a hash, with verdict and rounds."""
    out = build_elimination_tree(graph, d, config=RunConfig(seed=1))
    rows = sorted(
        (v, o.parent, o.depth, list(o.bag)) for v, o in out.outputs.items()
    )
    return {
        "verdict": out.accepted, "rounds": out.rounds,
        "forest_sha256": hashlib.sha256(
            json.dumps(rows).encode("utf-8")
        ).hexdigest(),
    }


def _forest_runs() -> List[Tuple[str, Callable[[], Signature]]]:
    return [
        ("forest/golden-graph", partial(
            _forest_signature, gen.random_bounded_treedepth(12, 3, seed=5), 3,
        )),
        ("forest/bounded-128-d3", partial(
            _forest_signature, gen.random_bounded_treedepth(128, 3, seed=0), 3,
        )),
        ("forest/random-tree-d4", partial(
            _forest_signature, gen.random_tree(40, seed=0), 4,
        )),
    ]


def golden_runs() -> Dict[str, Callable[[], Signature]]:
    runs = _corpus_runs() + _grid_runs() + _pipeline_runs() + _forest_runs()
    table = dict(runs)
    assert len(table) == len(runs), "duplicate golden run names"
    return table


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------

RUNS = golden_runs()


def _golden() -> Dict[str, Signature]:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_covers_every_run():
    assert sorted(_golden()) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_signature(name):
    expected = _golden()[name]
    got = json.loads(json.dumps(RUNS[name]()))
    assert got == expected


def record() -> None:
    """Rewrite the golden table, one run per line."""
    rows = [
        f"{json.dumps(name)}: {json.dumps(RUNS[name](), sort_keys=True)}"
        for name in sorted(RUNS)
    ]
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"recorded {len(rows)} signatures into {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_signatures.py --record")
    record()
