"""Tests for the :mod:`repro.api` facade: Session, Result, replay.

Covers all four workloads through :class:`~repro.api.Session`, the
argument validation of the facade, and the satellite regression for
:attr:`Result.replay_args`: a faulty run replayed through the facade must
reproduce the verdict *and* the fault trace exactly.
"""

import pytest

from repro.api import Result, RunConfig, Session
from repro.distributed import decide_pipeline
from repro.errors import ReproError
from repro.faults import FaultPlan, RetryPolicy
from repro.graph import generators as gen
from repro.graph.properties import (
    count_triangles,
    is_independent_set,
    min_vertex_cover,
)
from repro.mso import formulas, vertex_set
from repro.obs import Tracer


@pytest.fixture(scope="module")
def network():
    return gen.random_bounded_treedepth(12, 3, seed=5)


# -- decide -----------------------------------------------------------------

def test_decide_matches_naive_pipeline(network):
    session = Session(network, d=3)
    result = session.decide(formulas.triangle_free())
    assert result.workload == "decide"
    assert isinstance(result, Result)
    automaton, codec = session.cache.automaton_with_codec(
        formulas.triangle_free(), (), d=3, labels=()
    )
    baseline = decide_pipeline(
        automaton, network, 3, config=RunConfig(codec=codec)
    )
    assert result.verdict == baseline.accepted
    assert result.rounds == baseline.total_rounds
    assert result.phase_rounds["elimination"] + result.phase_rounds["checking"] \
        == result.rounds
    assert result.messages > 0
    assert result.max_payload_bits > 0


def test_decide_parses_text_formulas(network):
    result = Session(network, d=3).decide(
        "forall x:V . exists y:V . adj(x, y)"
    )
    assert result.verdict is True


def test_decide_treedepth_exceeded_yields_none_verdict():
    # td(C8) = 4, so the d=3 promise legitimately fails.
    result = Session(gen.cycle(8), d=3).decide(formulas.triangle_free())
    assert result.treedepth_exceeded
    assert result.verdict is None


def test_decide_rejects_open_formulas(network):
    with pytest.raises(ReproError):
        Session(network, d=3).decide(formulas.independent_set(vertex_set("S")))


# -- optimize ---------------------------------------------------------------

def test_optimize_max_independent_set_on_cycle():
    g = gen.cycle(8)
    result = Session(g, d=4).optimize(formulas.independent_set(vertex_set("S")))
    assert result.workload == "optimize"
    assert result.verdict is True
    assert result.value == 4
    assert is_independent_set(g, result.witness)


def test_optimize_min_sense_vertex_cover():
    g = gen.cycle(8)
    result = Session(g, d=4).optimize(
        formulas.vertex_cover(vertex_set("S")), sense="min"
    )
    best, _cover = min_vertex_cover(g)
    assert result.value == best == 4


def test_optimize_weights_override_leaves_graph_untouched():
    g = gen.cycle(8)
    weights = {v: (10 if v == 0 else 1) for v in g.vertices()}
    result = Session(g, d=4).optimize(
        formulas.independent_set(vertex_set("S")), weights=weights
    )
    assert 0 in result.witness
    assert result.value == 13  # vertex 0 (10) + three others (1 each)
    assert all(g.vertex_weight(v) == 1 for v in g.vertices())


def test_optimize_rejects_bad_sense_and_closed_formula(network):
    with pytest.raises(ReproError):
        Session(network, d=3).optimize(
            formulas.independent_set(vertex_set("S")), sense="biggest"
        )
    with pytest.raises(ReproError):
        Session(network, d=3).optimize(formulas.triangle_free())
    with pytest.raises(ReproError):
        Session(network, d=3).optimize(
            formulas.independent_set(vertex_set("S")), weights={"no-such": 1}
        )


# -- count ------------------------------------------------------------------

def test_count_triangle_assignments(network):
    formula, _variables = formulas.triangle_assignment()
    result = Session(network, d=3).count(formula)
    assert result.workload == "count"
    assert result.verdict is True
    assert result.count == 6 * count_triangles(network)


def test_count_rejects_closed_formula(network):
    with pytest.raises(ReproError):
        Session(network, d=3).count(formulas.triangle_free())


# -- certify ----------------------------------------------------------------

def test_certify_acyclic_tree():
    tree = gen.random_tree(20, seed=3)
    result = Session(tree, d=5).certify(formulas.acyclic())
    assert result.workload == "certify"
    assert result.verdict is True
    assert result.rounds == result.phase_rounds["verification"]
    assert result.max_payload_bits > 0
    assert result.num_classes > 0


# -- session validation -----------------------------------------------------

def test_session_rejects_unknown_engine_and_order(network):
    with pytest.raises(TypeError):
        Session(network, d=3, engine="warp")
    with pytest.raises(ReproError):
        Session(network, d=3, inbox_order="chaotic")


def test_session_trace_knob(network):
    session = Session(network, d=3, trace=True)
    assert isinstance(session.tracer, Tracer)
    mine = Tracer()
    assert Session(network, d=3, trace=mine).tracer is mine
    assert Session(network, d=3).tracer is None
    # One decide records Algorithm 2 and the convergecast into ``mine``.
    Session(network, d=3, trace=mine).decide(formulas.triangle_free())
    phases = {path.split("/")[0] for path, _ in mine.phase_rows()}
    assert {"elimination", "decision"} <= phases


def test_engines_agree_through_facade(network):
    # Replays stored under any of the retired engines rerun identically.
    phi = formulas.k_colorable(2)
    results = [
        Session.from_replay(
            network, 3, {"seed": 1, "engine": engine}
        ).decide(phi)
        for engine in ("naive", "batched", "vectorized")
    ]
    assert len({
        (r.verdict, r.rounds, r.messages, r.max_payload_bits)
        for r in results
    }) == 1


# -- replay regression (satellite) ------------------------------------------

def test_replay_args_reproduce_faulty_run_and_fault_trace(network):
    plan = FaultPlan(
        seed=4, drop_rate=0.02, duplicate_rate=0.02, delay_rate=0.01,
        max_delay=2,
    )
    session = Session(
        network, d=3, seed=9, faults=plan,
        retry=RetryPolicy(attempts=4), trace=True,
    )
    first = session.decide(formulas.triangle_free())
    assert session.tracer.fault_counts  # faults actually fired

    replay_session = Session(network, d=3, trace=True, **first.replay_args)
    replay = replay_session.decide(formulas.triangle_free())

    assert replay.verdict == first.verdict
    assert replay.rounds == first.rounds
    assert replay.messages == first.messages
    assert replay_session.tracer.fault_counts == session.tracer.fault_counts


def test_replay_args_omit_engine(network):
    result = Session(network, d=3, seed=1).decide(formulas.triangle_free())
    assert "engine" not in result.replay_args
    assert result.replay_args["seed"] == 1
    assert result.report.engine == "batched"
