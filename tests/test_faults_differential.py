"""Hypothesis differential harness for the fault-injection subsystem.

Two properties anchor the fault model:

1. **Null-plan transparency** — a plan with every rate at zero and no
   crashes is byte-for-byte invisible: outputs, round count, and traffic
   metrics are identical to a run without a fault plan at all.
2. **Never silently wrong** — under bounded transient loss with the
   redundancy-lockstep synchronizer, the distributed verdict either
   equals the sequential ground truth (``repro.mso.semantics``) or the
   run fails closed with :class:`~repro.errors.FaultToleranceExceeded`.
   A wrong verdict is a test failure; an explicit refusal is not.

CI runs this module under three fixed ``--hypothesis-seed`` values (see
.github/workflows/ci.yml), so regressions in the fault path reproduce.
"""

from hypothesis import given, settings, strategies as st

from repro.algebra import compile_formula
from repro.congest import NodeContext, node_program, run_protocol
from repro.distributed import decide_pipeline
from repro.errors import FaultToleranceExceeded
from repro.faults import FaultPlan, RetryPolicy
from repro.graph import generators as gen
from repro.mso import formulas, semantics
from repro.runconfig import RunConfig


@node_program
def gossip_min_program(ctx: NodeContext):
    """Two rounds of neighbor gossip; output the minimum id seen."""
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
def tick_count_program(ctx: NodeContext):
    """Several rounds of tuple traffic; output the messages received."""
    total = 0
    for i in range(6):
        ctx.send_all(("tick", i, ctx.node))
        inbox = yield
        total += len(inbox)
    return total


@st.composite
def networks(draw, max_n=12):
    n = draw(st.integers(4, max_n))
    depth = draw(st.integers(2, 3))
    prob = draw(st.sampled_from([0.3, 0.6, 0.9]))
    seed = draw(st.integers(0, 10 ** 6))
    return gen.random_bounded_treedepth(n, depth, prob, seed), depth


DIFF_FORMULAS = [
    formulas.h_free(gen.triangle()),
    formulas.has_even_subgraph(),
]
DIFF_AUTOMATA = [compile_formula(f, ()) for f in DIFF_FORMULAS]

PROGRAMS = [gossip_min_program, tick_count_program]


@given(
    networks(),
    st.integers(0, len(PROGRAMS) - 1),
    st.sampled_from(["arrival", "shuffle", "sorted", "reversed"]),
    st.integers(0, 10 ** 6),
)
@settings(max_examples=40)
def test_zero_rate_plan_is_byte_identical(net, prog_idx, order, sim_seed):
    graph, _ = net
    program = PROGRAMS[prog_idx]
    bare = run_protocol(graph, program, inbox_order=order, seed=sim_seed)
    nulled = run_protocol(graph, program, inbox_order=order, seed=sim_seed,
                          faults=FaultPlan(seed=sim_seed))
    assert nulled.outputs == bare.outputs
    assert nulled.rounds == bare.rounds
    assert nulled.metrics.total_messages == bare.metrics.total_messages
    assert nulled.metrics.total_bits == bare.metrics.total_bits
    assert nulled.metrics.per_round_bits == bare.metrics.per_round_bits
    assert nulled.metrics.max_message_bits == bare.metrics.max_message_bits
    assert nulled.metrics.total_faults == 0
    assert nulled.metrics.retransmissions == 0


@given(
    networks(max_n=9),
    st.integers(0, len(DIFF_FORMULAS) - 1),
    st.floats(0.01, 0.10),
    st.integers(0, 10 ** 6),
    st.integers(4, 5),
)
@settings(max_examples=70)
def test_lossy_decide_agrees_or_fails_closed(net, idx, drop, fault_seed,
                                             attempts):
    graph, depth = net
    truth = semantics.evaluate(graph, DIFF_FORMULAS[idx])
    plan = FaultPlan(seed=fault_seed, drop_rate=drop)
    retry = RetryPolicy(attempts=attempts)
    try:
        outcome = decide_pipeline(
            DIFF_AUTOMATA[idx], graph, d=depth,
            config=RunConfig(faults=plan, retry=retry),
        )
    except FaultToleranceExceeded:
        return  # failing closed is within the contract
    assert not outcome.treedepth_exceeded
    assert outcome.accepted == truth
