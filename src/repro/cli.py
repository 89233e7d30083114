"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``check``     decide a closed MSO formula on a graph (sequential or CONGEST)
``optimize``  solve max-φ / min-φ for a formula with one free set variable
``count``     count satisfying assignments of free variables
``treedepth`` compute exact or heuristic treedepth / elimination forests
``certify``   produce and verify certification (proof labeling)
``catalog``   list the built-in formula catalog
``trace``     run any command above with instrumentation enabled
``faults``    replay a fault-injection plan against the CONGEST pipeline
``fuzz``      run the metamorphic conformance harness (``repro.testkit``)
``lint``      CONGEST-conformance static analysis of node programs
``report``    list / render / diff persisted RunReports
``bench``     gate fresh benchmark results against committed baselines
``cache``     automaton-cache statistics (entries, bytes, state counts)

Graphs are given either as a generator spec (``path:20``, ``cycle:8``,
``grid:4x6``, ``clique:5``, ``star:7``, ``bounded:24:3:0.5:42`` for
(n, depth, edge-prob, seed)) or as ``file:PATH`` in the
:mod:`repro.graph.io` text format.  Every command accepts the graph
either positionally or via ``--graph SPEC``.

Setting ``REPRO_TRACE=1`` traces any command without the ``trace``
prefix (phase table on stderr); ``REPRO_TRACE=PATH`` additionally
writes the JSON-lines trace to ``PATH``.  ``REPRO_METRICS=PATH`` dumps
the process-wide metrics registry in Prometheus text format to ``PATH``
after any command (``REPRO_METRICS=1`` prints it to stderr instead).
Workload commands accept ``--record [DIR]`` to persist their RunReport
to the run store (default ``REPRO_RUN_DIR`` or ``.repro/runs``).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Optional, Sequence

from .algebra import compile_formula
from .algebra import check as sequential_check
from .algebra import count as sequential_count
from .algebra import optimize as sequential_optimize
from .api import Session
from .runconfig import RunConfig
from .errors import ReproError
from .graph import Graph, generators
from .graph.io import read_graph
from .mso import Sort, Var, formulas, parse
from .obs import (
    Tracer,
    render_phase_table,
    use_tracer,
    write_chrome_trace,
    write_jsonl,
)
from .treedepth import (
    best_heuristic_forest,
    dfs_elimination_forest,
    treedepth,
    treedepth_lower_bound,
)

_SORTS = {"V": Sort.VERTEX, "E": Sort.EDGE, "VS": Sort.VERTEX_SET, "ES": Sort.EDGE_SET}

_CATALOG = {
    "triangle-free": lambda: formulas.triangle_free(),
    "acyclic": lambda: formulas.acyclic(),
    "connected": lambda: formulas.connected(),
    "2-colorable": lambda: formulas.k_colorable(2),
    "3-colorable": lambda: formulas.k_colorable(3),
    "non-3-colorable": lambda: formulas.not_k_colorable(3),
    "hamiltonian": lambda: formulas.hamiltonian_cycle_exists(),
    "perfect-matching": lambda: formulas.has_perfect_matching(),
    "c4-free": lambda: formulas.h_free(generators.cycle(4)),
    "claw-free": lambda: formulas.h_free(generators.claw()),
    "edge-3-colorable": lambda: formulas.edge_k_colorable(3),
    "two-clique-cover": lambda: formulas.partition_into_k_cliques(2),
    "has-even-subgraph": lambda: formulas.has_even_subgraph(),
    "has-cubic-subgraph": lambda: formulas.has_cubic_subgraph(),
}

_OPT_CATALOG = {
    "independent-set": (formulas.independent_set, "VS", True),
    "vertex-cover": (formulas.vertex_cover, "VS", False),
    "dominating-set": (formulas.dominating_set, "VS", False),
    "feedback-vertex-set": (formulas.feedback_vertex_set, "VS", False),
    "matching": (formulas.matching, "ES", True),
    "spanning-tree": (formulas.spanning_tree, "ES", False),
    "clique": (formulas.max_clique_set, "VS", True),
    "induced-forest": (formulas.induced_forest, "VS", True),
}


def parse_graph_spec(spec: str) -> Graph:
    """Turn a generator spec or ``file:PATH`` into a graph."""
    kind, _, rest = spec.partition(":")
    args = rest.split(":") if rest else []
    try:
        if kind == "file":
            with open(rest, encoding="utf-8") as handle:
                return read_graph(handle)
        if kind == "path":
            return generators.path(int(args[0]))
        if kind == "cycle":
            return generators.cycle(int(args[0]))
        if kind == "clique":
            return generators.clique(int(args[0]))
        if kind == "star":
            return generators.star(int(args[0]))
        if kind == "caterpillar":
            return generators.caterpillar(int(args[0]), int(args[1]))
        if kind == "grid":
            rows, cols = args[0].split("x")
            return generators.grid(int(rows), int(cols))
        if kind == "bounded":
            n = int(args[0])
            depth = int(args[1])
            prob = float(args[2]) if len(args) > 2 else 0.5
            seed = int(args[3]) if len(args) > 3 else 0
            return generators.random_bounded_treedepth(n, depth, prob, seed)
    except (IndexError, ValueError) as exc:
        raise ReproError(f"malformed graph spec {spec!r}: {exc}") from exc
    raise ReproError(
        f"unknown graph spec {spec!r} (try path:N, cycle:N, grid:RxC, "
        "clique:N, star:N, caterpillar:S:L, bounded:N:D[:P[:SEED]], file:PATH)"
    )


def _graph_spec(args: argparse.Namespace) -> str:
    spec = getattr(args, "graph_opt", None) or args.graph
    if spec is None:
        raise ReproError("provide a graph spec (positionally or via --graph)")
    return spec


def _resolve_formula(args: argparse.Namespace):
    if args.catalog:
        if args.catalog not in _CATALOG:
            raise ReproError(
                f"unknown catalog formula {args.catalog!r}; run 'catalog'"
            )
        return _CATALOG[args.catalog]()
    if args.formula:
        # A bare catalog name is accepted through --formula too, so that
        # ``--formula triangle-free`` does the obvious thing.
        if not args.free and args.formula in _CATALOG:
            return _CATALOG[args.formula]()
        free = {}
        for decl in args.free or []:
            name, _, sort = decl.partition(":")
            if sort not in _SORTS:
                raise ReproError(f"free variable {decl!r} needs a sort V/E/VS/ES")
            free[name] = _SORTS[sort]
        return parse(args.formula, free=free)
    raise ReproError("provide --catalog NAME or --formula TEXT")


def _session(graph: Graph, args: argparse.Namespace, **kwargs) -> Session:
    kwargs.setdefault("record", getattr(args, "record", False))
    config_path = getattr(args, "config", None)
    if config_path:
        import json

        with open(config_path) as handle:
            config = RunConfig.from_json(json.load(handle))
        return Session(graph, args.d, config=config, **kwargs)
    return Session(graph, args.d, **kwargs)


def _cmd_check(args: argparse.Namespace) -> int:
    graph = parse_graph_spec(_graph_spec(args))
    formula = _resolve_formula(args)
    if args.congest:
        result = _session(graph, args).decide(formula)
        if result.treedepth_exceeded:
            print(f"treedepth exceeded: td(G) > {args.d}")
            return 2
        print(f"result: {result.verdict}")
        print(f"rounds: {result.rounds} "
              f"(tree {result.phase_rounds['elimination']} "
              f"+ check {result.phase_rounds['checking']})")
        print(f"max message bits: {result.max_payload_bits}")
        print(f"classes: {result.num_classes}")
        return 0 if result.verdict else 1
    automaton = compile_formula(formula, ())
    forest = best_heuristic_forest(graph)
    verdict = sequential_check(formula, graph, forest, automaton)
    print(f"result: {verdict}")
    print(f"classes: {automaton.num_classes()}")
    return 0 if verdict else 1


def _cmd_optimize(args: argparse.Namespace) -> int:
    graph = parse_graph_spec(_graph_spec(args))
    if args.problem not in _OPT_CATALOG:
        raise ReproError(
            f"unknown problem {args.problem!r}; choose from {sorted(_OPT_CATALOG)}"
        )
    factory, sort_name, default_maximize = _OPT_CATALOG[args.problem]
    maximize = default_maximize if args.direction == "auto" else args.direction == "max"
    var = Var("S", _SORTS[sort_name])
    formula = factory(var)
    if args.congest:
        result = _session(graph, args).optimize(
            formula, sense="max" if maximize else "min"
        )
        if result.treedepth_exceeded:
            print(f"treedepth exceeded: td(G) > {args.d}")
            return 2
        if not result.verdict:
            print("infeasible")
            return 1
        print(f"optimum: {result.value}")
        print(f"witness: {sorted(result.witness)}")
        print(f"rounds: {result.rounds}")
        return 0
    automaton = compile_formula(formula, (var,))
    forest = best_heuristic_forest(graph)
    result = sequential_optimize(formula, graph, forest, var, maximize=maximize,
                                 automaton=automaton)
    if result is None:
        print("infeasible")
        return 1
    print(f"optimum: {result.value}")
    print(f"witness: {sorted(result.witness)}")
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    graph = parse_graph_spec(_graph_spec(args))
    if args.triangles:
        formula, variables = formulas.triangle_assignment()
        if args.congest:
            result = _session(graph, args).count(formula)
            if result.treedepth_exceeded:
                print(f"treedepth exceeded: td(G) > {args.d}")
                return 2
            print(f"triangles: {result.count // 6}")
            print(f"rounds: {result.rounds}")
            return 0
        from .algebra import compile_with_singletons

        automaton = compile_with_singletons(formula, variables)
        forest = best_heuristic_forest(graph)
        total = sequential_count(formula, graph, forest, variables, automaton)
        print(f"triangles: {total // 6}")
        return 0
    raise ReproError("count currently exposes --triangles")


def _cmd_treedepth(args: argparse.Namespace) -> int:
    graph = parse_graph_spec(_graph_spec(args))
    if args.exact:
        if graph.num_vertices() > 18:
            raise ReproError("exact treedepth is exponential; use <= 18 vertices")
        print(f"treedepth: {treedepth(graph)}")
    else:
        forest = best_heuristic_forest(graph)
        dfs = dfs_elimination_forest(graph)
        print(f"lower bound:      {treedepth_lower_bound(graph)}")
        print(f"heuristic depth:  {forest.depth()}")
        print(f"DFS forest depth: {dfs.depth()}")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    graph = parse_graph_spec(_graph_spec(args))
    formula = _resolve_formula(args)
    result = _session(graph, args).certify(formula)
    print(f"certificates: max {result.max_payload_bits} bits, "
          f"{result.num_classes} classes")
    print(f"verification: accepted={result.verdict} in {result.rounds} rounds")
    return 0 if result.verdict else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from .algebra.cache import default_cache

    inner = build_parser().parse_args([args.traced, *args.rest])
    tracer = Tracer(max_events=args.max_events,
                    capture_payloads=not args.no_payloads)
    cache = default_cache()
    cache_before = (cache.hits, cache.misses, cache.disk_loads)
    with use_tracer(tracer):
        code = inner.func(inner)
    tracer.finish()
    print()
    print(render_phase_table(tracer))
    print(f"automaton cache: {cache.hits - cache_before[0]} hits, "
          f"{cache.misses - cache_before[1]} misses, "
          f"{cache.disk_loads - cache_before[2]} disk loads")
    if args.jsonl and args.jsonl != "none":
        with open(args.jsonl, "w", encoding="utf-8") as handle:
            written = write_jsonl(tracer, handle)
        print(f"trace: {written} events -> {args.jsonl}")
    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as handle:
            write_chrome_trace(tracer, handle)
        print(f"trace: chrome trace -> {args.chrome}")
    return code


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import RULES, LintError, check_paths
    from .lint.conformance import RL009_NAME, RL009_SUMMARY

    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.code}  {rule.name:16} {rule.summary}")
        # RL009 needs run artifacts, so it lives outside the per-program
        # rule registry — list it all the same.
        print(f"RL009  {RL009_NAME:16} {RL009_SUMMARY}")
        return 0

    if args.verify_runs:
        from .lint.conformance import verify_runs

        result = verify_runs(args.verify_runs)
        if args.format == "json":
            print(json.dumps(
                {
                    "findings": [f.to_dict() for f in result.findings],
                    "count": len(result.findings),
                    "checked": result.checked,
                    "skipped": result.skipped,
                },
                indent=2,
            ))
        else:
            for finding in result.findings:
                print(finding.format())
            print(
                f"repro lint: verified {result.checked} run report(s) "
                f"({result.skipped} skipped), "
                f"{len(result.findings)} finding(s)"
            )
        return 1 if result.findings else 0

    if not args.paths:
        print("repro lint: no paths given (try: repro lint src/repro)",
              file=sys.stderr)
        return 2
    select = None
    if args.select:
        select = [c for chunk in args.select for c in chunk.split(",") if c]

    if args.show_unused_noqa:
        from .lint import find_unused_noqa

        try:
            unused = find_unused_noqa(args.paths)
        except LintError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
        for item in unused:
            print(item.format())
        noun = "suppression" if len(unused) == 1 else "suppressions"
        print(f"repro lint: {len(unused)} unused {noun}")
        return 1 if unused else 0

    try:
        findings = check_paths(args.paths, select=select)
    except LintError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(
            {
                "findings": [f.to_dict() for f in findings],
                "count": len(findings),
            },
            indent=2,
        ))
    elif args.format == "sarif":
        from .lint.findings import to_sarif

        meta = {
            code: {"name": r.name, "summary": r.summary}
            for code, r in RULES.items()
        }
        print(json.dumps(to_sarif(findings, meta), indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.format())
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"repro lint: {len(findings)} {noun}")
    return 1 if findings else 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .errors import FaultToleranceExceeded
    from .faults import FaultPlan, RetryPolicy

    graph = parse_graph_spec(_graph_spec(args))
    if args.plan:
        with open(args.plan, encoding="utf-8") as handle:
            plan = FaultPlan.from_json(handle.read())
    else:
        plan = FaultPlan(seed=args.fault_seed, drop_rate=args.drop_rate)
    if args.formula:
        args.catalog = None  # an explicit formula beats the catalog default
    formula = _resolve_formula(args)
    retry = RetryPolicy(attempts=args.retries) if args.retries > 0 else None
    tracer = Tracer() if args.jsonl else None
    print(f"plan: {plan.describe()}")
    if retry is not None:
        print(f"retry: {retry.attempts} copies per logical round")
    session = _session(graph, args, seed=args.seed, faults=plan, retry=retry,
                       trace=tracer)
    try:
        result = session.decide(formula)
    except FaultToleranceExceeded as exc:
        print(f"fault tolerance exceeded: {exc}")
        _write_fault_trace(tracer, args.jsonl)
        return 3
    _write_fault_trace(tracer, args.jsonl)
    if result.treedepth_exceeded:
        print(f"treedepth exceeded: td(G) > {args.d}")
        return 2
    print(f"result: {result.verdict}")
    print(f"rounds: {result.rounds} "
          f"(tree {result.phase_rounds['elimination']} "
          f"+ check {result.phase_rounds['checking']})")
    print(f"max message bits: {result.max_payload_bits}")
    return 0 if result.verdict else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .algebra.cache import AutomatonCache
    from .testkit import (
        FuzzConfig,
        check_metamorphic,
        differential_check,
        load_case,
        replay_roundtrip_check,
        run_fuzz,
    )

    if args.replay:
        case, meta = load_case(args.replay)
        print(f"replay: {case.describe()}")
        if meta.get("kinds"):
            print(f"pinned kinds: {', '.join(meta['kinds'])}")
        cache = AutomatonCache(persist=False)
        found = differential_check(case, cache=cache)
        if case.workload != "certify":
            found.extend(check_metamorphic(case, cache=cache))
            found.extend(replay_roundtrip_check(case, cache=cache))
        for disc in found:
            print(f"FAIL {disc.format()}")
        if not found:
            print("replay: conformant (0 discrepancies)")
            return 0
        if any(d.kind == "treedepth" for d in found):
            return 2
        return 1

    config = FuzzConfig(
        cases=args.cases,
        seed=args.seed,
        corpus_dir=args.corpus,
        max_vertices=args.max_vertices,
        metamorphic_every=args.metamorphic_every,
        max_shrinks=args.max_shrinks,
    )
    report = run_fuzz(config, log=print)
    for path in report.replay_files:
        print(f"replay file: {path}")
    if report.errors:
        for line in report.errors:
            print(f"harness error: {line}", file=sys.stderr)
        return 3
    if any(d.kind == "treedepth" for d in report.discrepancies):
        return 2
    return 1 if report.discrepancies else 0


def _write_fault_trace(tracer: Optional[Tracer], path: Optional[str]) -> None:
    if tracer is None or not path:
        return
    tracer.finish()
    with open(path, "w", encoding="utf-8") as handle:
        written = write_jsonl(tracer, handle)
    print(f"trace: {written} events -> {path}")
    if tracer.fault_counts:
        injected = ", ".join(
            f"{kind}:{count}"
            for kind, count in sorted(tracer.fault_counts.items())
        )
        print(f"injected: {injected}")


def _cmd_report(args: argparse.Namespace) -> int:
    from .obs.reports import (
        DEFAULT_DIFF_THRESHOLDS,
        RunStore,
        diff_reports,
        render_html,
        render_markdown,
    )

    store = RunStore(args.dir)
    if args.report_cmd == "list":
        reports = store.list()
        if not reports:
            print(f"no runs recorded in {store.path}")
            return 0
        for r in reports:
            print(f"{r.run_id[:12]}  {r.workload:<8}  "
                  f"n={r.graph['n']} d={r.d} engine={r.engine}  "
                  f"rounds={r.metrics['rounds']} "
                  f"messages={r.metrics['messages']}  "
                  f"verdict={r.verdict}")
        return 0
    if args.report_cmd == "show":
        try:
            report = store.load(args.id)
        except KeyError as exc:
            raise ReproError(str(exc)) from exc
        if args.format == "html":
            text = render_html(report)
        else:
            text = render_markdown(report)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"report {report.run_id[:12]} -> {args.out}")
        else:
            print(text)
        return 0
    # diff
    try:
        a = store.load(args.a)
        b = store.load(args.b)
    except KeyError as exc:
        raise ReproError(str(exc)) from exc
    thresholds = dict(DEFAULT_DIFF_THRESHOLDS)
    for spec in args.tolerance or []:
        name, sep, value = spec.partition("=")
        if not sep:
            raise ReproError(
                f"malformed --tolerance {spec!r}; expected METRIC=REL "
                "(e.g. rounds=0.1)"
            )
        try:
            thresholds[name] = float(value)
        except ValueError as exc:
            raise ReproError(
                f"malformed --tolerance {spec!r}: {exc}"
            ) from exc
    diff = diff_reports(a, b, thresholds)
    print(diff.render(wall=args.wall))
    return 0 if diff.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from .obs.benchgate import check_bench

    fresh = args.fresh or sorted(glob.glob("BENCH_*.json"))
    result = check_bench(
        fresh,
        args.baselines,
        speedup_tolerance=args.speedup_tolerance,
        speedup_floor=args.speedup_floor,
        time_tolerance=args.time_tolerance,
    )
    print(result.render())
    return 0 if result.ok else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    from .algebra.cache import default_cache
    from .obs.registry import registry

    cache = default_cache()
    stats = cache.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True, default=repr))
        return 0
    print(f"automaton cache: {stats['directory']} "
          f"(persist={'on' if stats['persist'] else 'off'})")
    print(f"  entries: {stats['memory_entries']} in memory, "
          f"{stats['disk_entries']} on disk "
          f"({stats['disk_bytes']} bytes)")
    print(f"  counters: {stats['hits']} hits, {stats['misses']} misses, "
          f"{stats['disk_loads']} disk loads")
    fallbacks = registry().counter(
        "repro_minimize_fallback_total",
        "Minimization attempts that fell back to the raw automaton.",
    ).total()
    print(f"  minimize fallbacks (process-wide): {int(fallbacks)}")
    for entry in stats["entries"]:
        print(f"  - {entry['key']!r}: "
              f"{entry['table_entries']} table entries, "
              f"{entry['records']} journal records")
        for info in entry["minimized"]:
            labels = ",".join(info["labels"]) or "-"
            if info["fallback"]:
                print(f"      minimized d={info['d']} labels={labels}: "
                      "fallback (budget exceeded)")
            else:
                print(f"      minimized d={info['d']} labels={labels}: "
                      f"{info['states_total']} states, "
                      f"{info['states_reachable']} reachable, "
                      f"{info['states_minimized']} after quotient")
    return 0


def _cmd_catalog(_args: argparse.Namespace) -> int:
    print("decision formulas:")
    for name in sorted(_CATALOG):
        print(f"  {name}")
    print("optimization problems:")
    for name in sorted(_OPT_CATALOG):
        factory, sort_name, maximize = _OPT_CATALOG[name]
        print(f"  {name} ({'max' if maximize else 'min'}, {sort_name})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed MSO model checking on bounded treedepth",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph(p):
        p.add_argument("graph", nargs="?", default=None,
                       help="graph spec (e.g. path:20, bounded:24:3)")
        p.add_argument("--graph", dest="graph_opt", default=None,
                       metavar="SPEC", help="graph spec (alternative to the "
                       "positional argument)")

    def add_common(p, formula=True):
        add_graph(p)
        p.add_argument("--congest", action="store_true",
                       help="run the distributed protocol instead of Algorithm 1")
        p.add_argument("--d", type=int, default=3,
                       help="treedepth promise for CONGEST runs (default 3)")
        p.add_argument("--config", metavar="FILE", default=None,
                       help="JSON RunConfig replay file (seed/inbox_order/"
                       "faults/retry/budget/minimize)")
        p.add_argument("--record", nargs="?", const=True, default=False,
                       metavar="DIR",
                       help="persist the RunReport to the run store "
                       "(default dir: REPRO_RUN_DIR or .repro/runs)")
        if formula:
            p.add_argument("--catalog", help="a catalog formula name")
            p.add_argument("--formula", help="an MSO formula in text syntax")
            p.add_argument("--free", nargs="*",
                           help="free variable declarations name:SORT")

    p_check = sub.add_parser("check", help="decide a closed formula")
    add_common(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_opt = sub.add_parser("optimize", help="solve max-φ / min-φ")
    add_common(p_opt, formula=False)
    p_opt.add_argument("--problem", required=True,
                       help="optimization problem name (see catalog)")
    p_opt.add_argument("--direction", choices=["auto", "max", "min"],
                       default="auto")
    p_opt.set_defaults(func=_cmd_optimize)

    p_count = sub.add_parser("count", help="count satisfying assignments")
    add_common(p_count, formula=False)
    p_count.add_argument("--triangles", action="store_true",
                         help="count triangles")
    p_count.set_defaults(func=_cmd_count)

    p_td = sub.add_parser("treedepth", help="treedepth of a graph")
    add_graph(p_td)
    p_td.add_argument("--exact", action="store_true")
    p_td.set_defaults(func=_cmd_treedepth)

    p_cert = sub.add_parser("certify", help="prove + verify certification")
    add_common(p_cert)
    p_cert.set_defaults(func=_cmd_certify)

    p_cat = sub.add_parser("catalog", help="list built-in formulas")
    p_cat.set_defaults(func=_cmd_catalog)

    p_lint = sub.add_parser(
        "lint",
        help="CONGEST-conformance static analysis of node programs",
        description="Statically checks node programs for locality (RL001), "
        "determinism (RL002), round-structure (RL003), payload-typing "
        "(RL004), bit-budget (RL006), "
        "round-bound (RL007), and nondeterminism-taint (RL008) "
        "violations; rules see through project-local helper calls.  "
        "Suppress a finding with '# repro: noqa[RL00x]' on the offending "
        "line (or at the call site of an inlined helper).  Exits 1 if any "
        "finding remains.",
    )
    p_lint.add_argument("paths", nargs="*",
                        help="files or directories to analyze")
    p_lint.add_argument("--format", choices=["text", "json", "sarif"],
                        default="text",
                        help="output format (default text)")
    p_lint.add_argument("--select", action="append", metavar="CODES",
                        help="only run these rule codes (comma-separated, "
                        "repeatable)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    p_lint.add_argument("--show-unused-noqa", action="store_true",
                        help="report '# repro: noqa' suppressions that no "
                        "longer suppress anything (exit 1 if any)")
    p_lint.add_argument("--verify-runs", metavar="DIR",
                        help="RL009: check stored RunReports in DIR against "
                        "the statically certified bit/round bounds "
                        "(exit 1 on any exceedance)")
    p_lint.set_defaults(func=_cmd_lint)

    p_faults = sub.add_parser(
        "faults",
        help="replay a fault plan against the distributed decision pipeline",
        description="Runs the full CONGEST decision pipeline (Algorithm 2 + "
        "the decision convergecast) under a seeded fault plan.  Exit codes: "
        "0 accepted, 1 rejected, 2 treedepth exceeded, 3 fault tolerance "
        "exceeded (the run failed closed).  Replays are deterministic: the "
        "same plan JSON, graph, seed, and retry policy reproduce the same "
        "faults and the same outcome.",
    )
    add_graph(p_faults)
    p_faults.add_argument("--plan", default=None, metavar="PATH",
                          help="fault plan JSON (see FaultPlan.to_json); "
                          "omit to build one from --drop-rate/--fault-seed")
    p_faults.add_argument("--drop-rate", type=float, default=0.0,
                          help="ad-hoc plan: per-message drop probability "
                          "(ignored when --plan is given)")
    p_faults.add_argument("--fault-seed", type=int, default=0,
                          help="ad-hoc plan: injector seed (default 0)")
    p_faults.add_argument("--retries", type=int, default=0, metavar="N",
                          help="wrap protocols in the redundancy-lockstep "
                          "synchronizer with N copies per logical round "
                          "(0 = no reliability layer)")
    p_faults.add_argument("--d", type=int, default=3,
                          help="treedepth promise (default 3)")
    p_faults.add_argument("--seed", type=int, default=None,
                          help="inbox-order seed for the simulator")
    p_faults.add_argument("--catalog", default="triangle-free",
                          help="catalog formula name (default triangle-free)")
    p_faults.add_argument("--formula", help="an MSO formula in text syntax")
    p_faults.add_argument("--free", nargs="*",
                          help="free variable declarations name:SORT")
    p_faults.add_argument("--jsonl", default=None, metavar="PATH",
                          help="write the fault-event trace as JSON lines")
    p_faults.set_defaults(func=_cmd_faults)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="run the metamorphic conformance harness",
        description="Generates seeded conformance cases and checks the "
        "CONGEST pipeline against sequential semantics (differential "
        "matrix over inbox orders and fault plans, plus "
        "metamorphic relations).  Failing cases are shrunk and written "
        "to the corpus as content-addressed replay files.  Exit codes "
        "mirror `repro faults`: 0 conformant, 1 discrepancies, 2 "
        "treedepth-promise violations, 3 harness errors.",
    )
    p_fuzz.add_argument("--cases", type=int, default=100, metavar="N",
                        help="number of fresh cases to generate "
                        "(default 100)")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="generator seed (default 0); the (seed, "
                        "cases) pair names a reproducible suite")
    p_fuzz.add_argument("--corpus", default=None, metavar="DIR",
                        help="replay every case in DIR first, and write "
                        "shrunk failures there")
    p_fuzz.add_argument("--replay", default=None, metavar="FILE",
                        help="re-run one replay file through the full "
                        "oracle instead of fuzzing")
    p_fuzz.add_argument("--max-vertices", type=int, default=12,
                        metavar="N",
                        help="bound on generated graph sizes (default 12)")
    p_fuzz.add_argument("--metamorphic-every", type=int, default=5,
                        metavar="K",
                        help="run metamorphic + replay round-trip checks "
                        "on every K-th case (default 5; 0 disables)")
    p_fuzz.add_argument("--max-shrinks", type=int, default=3, metavar="N",
                        help="failing cases to minimize per run "
                        "(default 3)")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_trace = sub.add_parser(
        "trace",
        help="run another command with the instrumentation layer on",
        description="Runs the wrapped command under a Tracer and reports a "
        "per-phase breakdown (rounds / messages / bits) plus sequential "
        "wall-clock profiles.  Trace options go BEFORE the wrapped command: "
        "repro trace --jsonl t.jsonl check --formula triangle-free "
        "--graph cycle:8 --congest",
    )
    p_trace.add_argument("--jsonl", default="repro-trace.jsonl", metavar="PATH",
                         help="JSON-lines trace output (default "
                         "repro-trace.jsonl; 'none' to skip)")
    p_trace.add_argument("--chrome", default=None, metavar="PATH",
                         help="also write a Chrome-trace-format file "
                         "(chrome://tracing / Perfetto)")
    p_trace.add_argument("--max-events", type=int, default=200_000,
                         help="event buffer cap (default 200000)")
    p_trace.add_argument("--no-payloads", action="store_true",
                         help="do not record message payload reprs")
    p_trace.add_argument("traced", choices=["check", "optimize", "count",
                                            "treedepth", "certify"],
                         help="the command to run under tracing")
    p_trace.add_argument("rest", nargs=argparse.REMAINDER,
                         help="arguments for the wrapped command")
    p_trace.set_defaults(func=_cmd_trace)

    p_report = sub.add_parser(
        "report",
        help="list, render, and diff persisted RunReports",
        description="Operates on the run store written by --record "
        "(an append-only runs.jsonl under .repro/runs, or REPRO_RUN_DIR, "
        "or --dir).  Run ids are content-addressed; unique prefixes and "
        "'latest' are accepted wherever an id is expected.",
    )
    p_report.add_argument("--dir", default=None, metavar="DIR",
                          help="run store directory (default: REPRO_RUN_DIR "
                          "or .repro/runs)")
    report_sub = p_report.add_subparsers(dest="report_cmd", required=True)
    report_sub.add_parser("list", help="one line per stored run")
    p_show = report_sub.add_parser("show", help="render one report")
    p_show.add_argument("id", help="run id (prefix) or 'latest'")
    p_show.add_argument("--format", choices=["md", "html"], default="md",
                        help="markdown (default) or self-contained HTML")
    p_show.add_argument("--out", default=None, metavar="PATH",
                        help="write to PATH instead of stdout")
    p_diff = report_sub.add_parser(
        "diff",
        help="deterministic phase-by-phase delta of two runs",
        description="Prints the metric/phase/cache/fault delta table for "
        "runs A and B and exits 1 when B regresses past a threshold "
        "(default: any increase in rounds/messages/bits/max_message_bits, "
        "or a verdict disagreement).  The table is byte-deterministic for "
        "fixed stored reports; --wall appends the non-deterministic "
        "wall-clock row.",
    )
    p_diff.add_argument("a", help="run id of the baseline run A")
    p_diff.add_argument("b", help="run id of the candidate run B")
    p_diff.add_argument("--tolerance", action="append", metavar="METRIC=REL",
                        help="override a gate tolerance, e.g. rounds=0.1 "
                        "(repeatable; REL is relative, 0.1 = +10%%)")
    p_diff.add_argument("--wall", action="store_true",
                        help="include the wall-clock row in the table")
    p_report.set_defaults(func=_cmd_report)

    p_bench = sub.add_parser(
        "bench",
        help="benchmark regression gate",
        description="Compares fresh BENCH_*.json results (benchmarks/"
        "bench_engine.py --out) against committed baselines matched by "
        "(benchmark, mode).  Exits 1 on any regression: changed "
        "verdicts/rounds on a matching grid, or a speedup below both the "
        "relative tolerance and the absolute floor.",
    )
    bench_sub = p_bench.add_subparsers(dest="bench_cmd", required=True)
    p_bcheck = bench_sub.add_parser("check", help="gate fresh results")
    p_bcheck.add_argument("--fresh", nargs="*", default=None, metavar="PATH",
                          help="fresh result files (default: BENCH_*.json "
                          "in the current directory)")
    p_bcheck.add_argument("--baselines", default="benchmarks/baselines",
                          metavar="DIR",
                          help="baseline directory (default "
                          "benchmarks/baselines)")
    p_bcheck.add_argument("--speedup-tolerance", type=float, default=0.5,
                          help="allowed relative speedup drop (default 0.5 "
                          "= may fall to 50%% of baseline)")
    p_bcheck.add_argument("--speedup-floor", type=float, default=1.0,
                          help="absolute speedup that always passes "
                          "(default 1.0)")
    p_bcheck.add_argument("--time-tolerance", type=float, default=None,
                          help="also gate raw seconds within this relative "
                          "tolerance (off by default: machine-dependent)")
    p_bench.set_defaults(func=_cmd_bench)

    p_cache = sub.add_parser(
        "cache",
        help="automaton cache introspection",
        description="Statistics for the process-wide persistent "
        "AutomatonCache: entry and on-disk byte counts, per-entry "
        "transition-table sizes, minimized-kernel state counts, and "
        "hit/miss/disk-load counters.",
    )
    cache_sub = p_cache.add_subparsers(dest="cache_cmd", required=True)
    p_cstats = cache_sub.add_parser("stats", help="print cache statistics")
    p_cstats.add_argument("--json", action="store_true",
                          help="machine-readable output")
    p_cache.set_defaults(func=_cmd_cache)
    return parser


def _dump_metrics() -> None:
    """Honor ``REPRO_METRICS``: Prometheus text to a path (or stderr)."""
    target = os.environ.get("REPRO_METRICS", "")
    if not target or target == "0":
        return
    from .obs.registry import registry

    text = registry().render_prometheus()
    if target.lower() in ("1", "true", "yes", "on"):
        print(text, file=sys.stderr, end="")
        return
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"metrics: registry -> {target}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    env_trace = os.environ.get("REPRO_TRACE", "")
    try:
        if env_trace and env_trace != "0" and args.command != "trace":
            tracer = Tracer()
            with use_tracer(tracer):
                code = args.func(args)
            tracer.finish()
            print(render_phase_table(tracer), file=sys.stderr)
            if env_trace.lower() not in ("1", "true", "yes", "on"):
                with open(env_trace, "w", encoding="utf-8") as handle:
                    write_jsonl(tracer, handle)
                print(f"trace: events -> {env_trace}", file=sys.stderr)
            return code
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    finally:
        _dump_metrics()


if __name__ == "__main__":
    sys.exit(main())
