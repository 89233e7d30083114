"""E3 — CONGEST legality: every message fits the O(log n)-bit budget.

Series: for growing n, the maximum bits of any single message sent by the
full decision and optimization pipelines, against the budget
B = max(48, 4·ceil(log2 n)).  Expected shape: max bits grow (at most)
logarithmically and never exceed B — the simulator enforces this, so the
experiment documents the actual headroom.
"""

from repro.algebra import compile_formula
from repro.congest import default_budget
from repro.distributed import decide_pipeline, optimize_pipeline
from repro.graph import generators as gen
from repro.mso import formulas, vertex_set
from repro.obs import Tracer
from repro.runconfig import RunConfig

from reporting import record_phase_table, record_table

SIZES = (16, 64, 256)


def run_series():
    decision_automaton = compile_formula(formulas.h_free(gen.triangle()), ())
    s = vertex_set("S")
    opt_automaton = compile_formula(formulas.independent_set(s), (s,))
    rows = []
    for n in SIZES:
        g = gen.random_bounded_treedepth(n, depth=3, seed=3 * n)
        budget = default_budget(n)
        dec = decide_pipeline(decision_automaton, g, d=3)
        opt = optimize_pipeline(opt_automaton, g, d=3, maximize=True)
        rows.append(
            (n, budget, dec.max_message_bits, opt.max_message_bits)
        )
        assert dec.max_message_bits <= budget
        assert opt.max_message_bits <= budget
    return rows


def test_e3_message_sizes(benchmark):
    rows = run_series()
    record_table(
        "E3",
        "max message bits vs n (must stay under budget)",
        ("n", "budget B", "decision max bits", "optimization max bits"),
        rows,
    )
    s = vertex_set("S")
    automaton = compile_formula(formulas.independent_set(s), (s,))
    g = gen.random_bounded_treedepth(64, depth=3, seed=99)
    tracer = Tracer(events=False)
    optimize_pipeline(automaton, g, d=3, config=RunConfig(trace=tracer))
    record_phase_table(
        "E3", "per-phase messages/bits (independent-set, n=64, d=3)", tracer
    )
    benchmark(lambda: optimize_pipeline(automaton, g, d=3))
