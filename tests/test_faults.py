"""Tests for the fault-injection subsystem (repro.faults).

Covers the plan serialization contract, injector determinism, null-plan
transparency, crash semantics (including the single-crash property test
against Algorithm 2), the reliable_send/reliable_recv primitives, the
redundancy-lockstep synchronizer, trace export of every fault kind, and
the SimulationResult replay fields.
"""

import io

import pytest

from repro.algebra import compile_formula, compile_with_singletons
from repro.congest import (
    NodeContext,
    Simulation,
    node_program,
    reliable_recv,
    reliable_send,
    run_protocol,
)
from repro.congest.metrics import RoundMetrics
from repro.distributed import (
    build_elimination_tree,
    count_pipeline,
    decide_pipeline,
    optimize_pipeline,
)
from repro.errors import CongestError, FaultToleranceExceeded
from repro.faults import (
    SYNC_OVERHEAD_BITS,
    CrashFault,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    reliable_program,
)
from repro.graph import generators as gen
from repro.mso import formulas, vertex_set
from repro.obs import FAULT_EVENT_KINDS, Tracer, read_events, write_jsonl
from repro.runconfig import RunConfig


# ----------------------------------------------------------------------
# Protocols used as fixtures
# ----------------------------------------------------------------------

@node_program
def echo_min_program(ctx: NodeContext):
    """Two synchronous rounds of neighbor gossip; output the min id seen."""
    best = ctx.node
    for _ in range(2):
        ctx.send_all(("min", best))
        inbox = yield
        for payload in inbox.values():
            if isinstance(payload, tuple) and len(payload) == 2 \
                    and payload[0] == "min":
                best = min(best, payload[1])
    return best


@node_program
def chatty_program(ctx: NodeContext):
    """Many rounds of tuple traffic: a target-rich fault environment."""
    total = 0
    for i in range(12):
        ctx.send_all(("tick", i, ctx.node))
        inbox = yield
        total += len(inbox)
    return total


# ----------------------------------------------------------------------
# FaultPlan: validation + serialization
# ----------------------------------------------------------------------

def test_plan_json_round_trip():
    plan = FaultPlan(
        seed=11, drop_rate=0.1, duplicate_rate=0.05, delay_rate=0.2,
        max_delay=4, truncate_rate=0.01, budget_jitter=3,
        crashes=(CrashFault(node=2, at_round=5, restart_round=9),),
        first_round=2, last_round=40,
    )
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_plan_rejects_bad_fields():
    with pytest.raises(CongestError):
        FaultPlan(drop_rate=1.5)
    with pytest.raises(CongestError):
        FaultPlan(max_delay=0)
    with pytest.raises(CongestError):
        FaultPlan(first_round=10, last_round=5)
    with pytest.raises(CongestError):
        CrashFault(node=1, at_round=0)
    with pytest.raises(CongestError):
        CrashFault(node=1, at_round=5, restart_round=5)
    with pytest.raises(CongestError):
        FaultPlan.from_dict({"drop_rate": 0.1, "bogus_knob": 1})
    with pytest.raises(CongestError):
        FaultPlan.from_json("not json at all {")
    with pytest.raises(CongestError):
        FaultPlan.from_json("[1, 2, 3]")


def test_plan_null_and_window():
    assert FaultPlan().is_null()
    assert not FaultPlan(drop_rate=0.01).is_null()
    assert not FaultPlan(crashes=(CrashFault(node=0, at_round=1),)).is_null()
    windowed = FaultPlan(drop_rate=0.5, first_round=3, last_round=5)
    assert not windowed.active_in(2)
    assert windowed.active_in(3)
    assert windowed.active_in(5)
    assert not windowed.active_in(6)
    assert windowed.with_seed(9).seed == 9


# ----------------------------------------------------------------------
# Injector: determinism
# ----------------------------------------------------------------------

def test_injector_replay_is_deterministic():
    plan = FaultPlan(seed=5, drop_rate=0.3, delay_rate=0.2,
                     duplicate_rate=0.2, truncate_rate=0.2)
    deliveries = [((a, b), ("msg", a, b))
                  for a in range(4) for b in range(4) if a != b]

    def one_run():
        injector = FaultInjector(plan)
        metrics = RoundMetrics(budget_bits=128)
        metrics.record_round()
        survived = [injector.process(r, list(deliveries), metrics)
                    for r in range(1, 6)]
        return survived, dict(metrics.faults_injected)

    assert one_run() == one_run()


def test_injector_different_seeds_differ():
    deliveries = [((a, b), ("msg", a)) for a in range(6) for b in (a + 1,)]
    outcomes = set()
    for seed in range(4):
        injector = FaultInjector(FaultPlan(seed=seed, drop_rate=0.5))
        metrics = RoundMetrics(budget_bits=128)
        metrics.record_round()
        survived = injector.process(1, list(deliveries), metrics)
        outcomes.add(tuple(survived))
    assert len(outcomes) > 1


# ----------------------------------------------------------------------
# Null-plan transparency
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [None, 1, 42])
def test_null_plan_is_transparent(seed):
    graph = gen.random_bounded_treedepth(8, 3, 0.6, seed=13)
    order = "arrival" if seed is None else "shuffle"
    bare = run_protocol(graph, echo_min_program, inbox_order=order, seed=seed)
    nulled = run_protocol(graph, echo_min_program, inbox_order=order,
                          seed=seed, faults=FaultPlan())
    assert nulled.outputs == bare.outputs
    assert nulled.rounds == bare.rounds
    assert nulled.metrics.total_bits == bare.metrics.total_bits
    assert nulled.metrics.total_messages == bare.metrics.total_messages
    assert nulled.metrics.total_faults == 0
    assert nulled.crashed == {}


# ----------------------------------------------------------------------
# Crash semantics
# ----------------------------------------------------------------------

def test_crash_removes_node_from_outputs():
    graph = gen.path(4)
    plan = FaultPlan(crashes=(CrashFault(node=2, at_round=2),))
    result = run_protocol(graph, chatty_program, faults=plan)
    assert result.crashed == {2: 2}
    assert 2 not in result.outputs
    assert set(result.outputs) == {0, 1, 3}
    assert result.metrics.faults_injected.get("fault-crash") == 1


def test_crash_restart_runs_fresh_program():
    graph = gen.path(3)
    plan = FaultPlan(crashes=(CrashFault(node=1, at_round=3,
                                         restart_round=5),))
    result = run_protocol(graph, chatty_program, faults=plan)
    assert result.crashed == {}  # restarted nodes are alive at the end
    assert 1 in result.outputs
    assert result.metrics.faults_injected.get("fault-crash") == 1
    assert result.metrics.faults_injected.get("fault-restart") == 1


def test_crash_at_round_one_never_starts():
    graph = gen.path(3)
    plan = FaultPlan(crashes=(CrashFault(node=0, at_round=1),))
    result = run_protocol(graph, chatty_program, faults=plan)
    assert result.crashed == {0: 1}
    assert 0 not in result.outputs


# Satellite 2: killing any single non-root node during elimination yields
# a validated tree on the surviving component or an explicit
# FaultToleranceExceeded — never a silently wrong depth.
CRASH_GRAPH = gen.random_bounded_treedepth(8, 3, 0.6, seed=21)
CRASH_ROOT = min(CRASH_GRAPH.vertices())  # min id wins leader election


@pytest.mark.parametrize("victim", sorted(
    v for v in CRASH_GRAPH.vertices() if v != CRASH_ROOT
))
@pytest.mark.parametrize("at_round", [2, 9, 25])
def test_single_crash_never_silently_wrong(victim, at_round):
    plan = FaultPlan(crashes=(CrashFault(node=victim, at_round=at_round),))
    try:
        result = build_elimination_tree(
            CRASH_GRAPH, 3, config=RunConfig(faults=plan)
        )
    except FaultToleranceExceeded:
        return  # failing closed is an allowed outcome
    assert result.crashed == {victim: at_round}
    assert victim not in result.outputs
    if result.accepted:
        # build_elimination_tree already validated the forest against the
        # surviving induced subgraph; re-check the contract independently.
        survivors = CRASH_GRAPH.induced_subgraph(set(result.outputs))
        assert result.forest is not None
        result.forest.validate_for(survivors)


# A crash anywhere in a model-checking run must fail closed: no pipeline
# may return a verdict, count or optimum computed on part of the network.
PIPELINE_GRAPH = gen.random_bounded_treedepth(12, 3, seed=5)
_S = vertex_set("S")
_TRIANGLES, _TRIANGLE_SCOPE = formulas.triangle_assignment()
PIPELINES = {
    "decide": lambda faults: decide_pipeline(
        compile_formula(formulas.triangle_free()), PIPELINE_GRAPH, 3,
        config=RunConfig(faults=faults),
    ),
    "count": lambda faults: count_pipeline(
        compile_with_singletons(_TRIANGLES, _TRIANGLE_SCOPE),
        PIPELINE_GRAPH, 3, config=RunConfig(faults=faults),
    ),
    "optimize": lambda faults: optimize_pipeline(
        compile_formula(formulas.independent_set(_S), (_S,)),
        PIPELINE_GRAPH, 3, config=RunConfig(faults=faults),
    ),
}


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
@pytest.mark.parametrize("at_round", [2, 9, 25])
def test_single_crash_fails_closed_in_every_pipeline(pipeline, at_round):
    victim = max(PIPELINE_GRAPH.vertices())  # not the elected leader
    plan = FaultPlan(crashes=(CrashFault(node=victim, at_round=at_round),))
    with pytest.raises(FaultToleranceExceeded):
        PIPELINES[pipeline](plan)


# ----------------------------------------------------------------------
# reliable_send / reliable_recv
# ----------------------------------------------------------------------

@node_program
def rel_pair_program(ctx: NodeContext):
    if ctx.input["role"] == "sender":
        retries = yield from reliable_send(
            ctx, ctx.input["peer"], ("data", 7), max_retries=6
        )
        return ("sent", retries)
    payload = yield from reliable_recv(
        ctx, ctx.input["peer"], max_rounds=40, linger=4
    )
    return ("got", payload)


def _rel_inputs():
    return {0: {"role": "sender", "peer": 1},
            1: {"role": "receiver", "peer": 0}}


def test_reliable_send_clean_channel_zero_retries():
    result = run_protocol(gen.path(2), rel_pair_program, inputs=_rel_inputs())
    assert result.outputs[0] == ("sent", 0)
    assert result.outputs[1] == ("got", ("data", 7))
    assert result.metrics.retransmissions == 0


def test_reliable_send_retries_through_loss():
    plan = FaultPlan(seed=3, drop_rate=0.5, last_round=6)
    result = run_protocol(gen.path(2), rel_pair_program,
                          inputs=_rel_inputs(), faults=plan, max_rounds=120)
    kind, retries = result.outputs[0]
    assert kind == "sent"
    assert retries > 0
    assert result.outputs[1] == ("got", ("data", 7))
    assert result.metrics.retransmissions == retries


def test_reliable_send_exhausts_bound():
    plan = FaultPlan(seed=0, drop_rate=1.0)

    @node_program
    def bounded(ctx: NodeContext):
        if ctx.input["role"] == "sender":
            yield from reliable_send(ctx, ctx.input["peer"], ("x",),
                                     max_retries=2)
            return True
        yield from reliable_recv(ctx, ctx.input["peer"], max_rounds=200)
        return True

    with pytest.raises(FaultToleranceExceeded):
        run_protocol(gen.path(2), bounded, inputs=_rel_inputs(),
                     faults=plan, max_rounds=500)


# ----------------------------------------------------------------------
# Redundancy-lockstep synchronizer
# ----------------------------------------------------------------------

def test_reliable_program_recovers_faultless_outputs():
    graph = gen.random_bounded_treedepth(7, 3, 0.6, seed=3)
    baseline = run_protocol(graph, echo_min_program)
    policy = RetryPolicy(attempts=5)
    plan = FaultPlan(seed=9, drop_rate=0.3)
    hardened = run_protocol(
        graph, reliable_program(echo_min_program, policy),
        budget=policy.physical_budget(256),
        max_rounds=policy.physical_max_rounds(40),
        faults=plan,
    )
    assert hardened.outputs == baseline.outputs
    assert hardened.metrics.retransmissions > 0
    assert hardened.metrics.faults_injected.get("fault-drop", 0) > 0


def test_reliable_program_fails_closed_on_total_loss():
    policy = RetryPolicy(attempts=2)
    plan = FaultPlan(seed=0, drop_rate=1.0)
    with pytest.raises(FaultToleranceExceeded):
        run_protocol(
            gen.path(3), reliable_program(echo_min_program, policy),
            budget=policy.physical_budget(256),
            max_rounds=policy.physical_max_rounds(40),
            faults=plan,
        )


def test_retry_policy_scaling():
    policy = RetryPolicy(attempts=3)
    assert policy.physical_budget(100) == 100 + SYNC_OVERHEAD_BITS
    assert policy.physical_max_rounds(10) > 30
    with pytest.raises(CongestError):
        RetryPolicy(attempts=0)


# ----------------------------------------------------------------------
# Trace export: every injected fault kind round-trips through JSONL
# ----------------------------------------------------------------------

def test_every_fault_kind_reaches_the_jsonl_trace():
    graph = gen.random_bounded_treedepth(8, 3, 0.7, seed=5)
    plan = FaultPlan(
        seed=12, drop_rate=0.25, duplicate_rate=0.25, delay_rate=0.25,
        truncate_rate=0.25, budget_jitter=8,
        crashes=(CrashFault(node=max(graph.vertices()), at_round=4,
                            restart_round=7),),
    )
    tracer = Tracer()
    result = run_protocol(graph, chatty_program, faults=plan,
                          tracer=tracer, max_rounds=200)
    tracer.finish()
    sink = io.StringIO()
    write_jsonl(tracer, sink)
    sink.seek(0)
    events = read_events(sink)
    seen_kinds = {event.kind for event in events
                  if event.kind in FAULT_EVENT_KINDS}
    assert seen_kinds == set(FAULT_EVENT_KINDS)
    # Metrics and the tracer agree on the per-kind totals.
    assert tracer.fault_counts == result.metrics.faults_injected


# ----------------------------------------------------------------------
# Simulation guard rails + replay
# ----------------------------------------------------------------------

def test_double_run_guard_names_the_api():
    sim = Simulation(gen.path(2), echo_min_program)
    sim.run()
    with pytest.raises(CongestError, match="can only be run once"):
        sim.run()


def test_result_carries_replay_fields():
    plan = FaultPlan(seed=4, drop_rate=0.2)
    graph = gen.random_bounded_treedepth(7, 3, 0.5, seed=8)
    result = run_protocol(graph, chatty_program, inbox_order="shuffle",
                          seed=17, faults=plan, max_rounds=200)
    assert result.seed == 17
    assert result.inbox_order == "shuffle"
    assert result.fault_plan == plan
    replay = run_protocol(graph, chatty_program, max_rounds=200,
                          **result.replay_args())
    assert replay.outputs == result.outputs
    assert replay.metrics.faults_injected == result.metrics.faults_injected
    assert replay.rounds == result.rounds
