"""The high-level facade: one ``Session``, four workloads, one ``Result``.

Everything the paper's pipeline can do — decide a closed MSO formula
(Theorem 6.1), optimize max-φ/min-φ, count satisfying assignments (§6),
and certify via the PODC'22 proof-labeling baseline — is reachable from a
:class:`Session` bound to a graph and a treedepth promise ``d``::

    from repro.api import Session
    from repro.graph import generators
    from repro.mso import formulas

    session = Session(generators.cycle(8), d=3)
    result = session.decide(formulas.triangle_free())
    assert result.verdict is True

Every workload returns the same frozen :class:`Result`, whose
``replay_args`` reproduce the run exactly::

    replay = Session(graph, d, **result.replay_args).decide(phi)

A session compiles formulas through the process-wide
:class:`~repro.algebra.cache.AutomatonCache` (transition tables and class
ids persist across processes) and runs every protocol on the one round
scheduler of :class:`repro.congest.Simulation`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Mapping, Optional, Tuple, Union

from .algebra.cache import AutomatonCache, default_cache
from .algebra.minimize import graph_label_alphabet, minimization_stats
from .certification import prove, verify
from .distributed.counting import count_pipeline
from .distributed.model_checking import decide_pipeline
from .distributed.optimization import optimize_pipeline
from .errors import ReproError
from .graph import Graph
from .mso import parse
from .mso.syntax import Formula, Var, free_variables
from .obs import Tracer
from .obs.export import phase_table_rows
from .obs.registry import collect_run
from .obs.reports import RunReport, RunStore, build_report
from .runconfig import RunConfig, resolve_tracer

__all__ = ["Result", "RunConfig", "Session"]

#: Workload names as they appear in :attr:`Result.workload`.
WORKLOADS = ("decide", "optimize", "count", "certify")


@dataclass(frozen=True)
class Result:
    """The common outcome shape of every :class:`Session` workload.

    ``verdict`` is the workload's boolean headline — the decision for
    ``decide``, feasibility for ``optimize``, "a count was produced" for
    ``count``, verification acceptance for ``certify`` — and ``None`` when
    the treedepth promise failed (``treedepth_exceeded=True``), in which
    case no verdict about φ was computed at all.

    ``replay_args`` are :class:`Session` keyword arguments:
    ``Session(graph, d, **result.replay_args)`` re-runs the same schedule,
    faults, retry policy and minimization setting, reproducing the run
    exactly.

    ``cache_hits`` / ``cache_misses`` are the
    :class:`~repro.algebra.cache.AutomatonCache` deltas attributable to
    this call (compiling the formula is the dominant sequential cost, so
    a miss here usually dwarfs the simulation itself).  ``report`` is the
    full :class:`~repro.obs.reports.RunReport` artifact — excluded from
    equality so two replayed Results still compare equal even though
    their reports differ in wall-clock.
    """

    workload: str
    verdict: Optional[bool]
    rounds: int
    messages: int
    max_payload_bits: int
    replay_args: Mapping[str, Any]
    treedepth_exceeded: bool = False
    value: Optional[int] = None
    witness: FrozenSet[Any] = frozenset()
    count: Optional[int] = None
    num_classes: int = 0
    phase_rounds: Mapping[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    report: Optional[RunReport] = field(
        default=None, compare=False, repr=False
    )


class _Observation:
    """One workload call's measurement window.

    Entered before formula compilation so the cache delta includes the
    compile, and wrapped around the simulations via
    :func:`~repro.obs.registry.collect_run` so the collector sees every
    per-round profile.  :meth:`result` closes the window: it assembles
    the :class:`Result` (cache deltas included), builds the content-
    addressed :class:`~repro.obs.reports.RunReport`, and appends it to
    the run store when the session was built with ``record``.
    """

    def __init__(self, session: "Session", workload: str):
        self.session = session
        self.workload = workload

    def __enter__(self) -> "_Observation":
        cache = self.session.cache
        self._cache_before = (cache.hits, cache.misses, cache.disk_loads)
        self._collect = collect_run()
        self.collector = self._collect.__enter__()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> Any:
        return self._collect.__exit__(*exc)

    def result(self, formula: Formula, **fields: Any) -> Result:
        wall = time.perf_counter() - self._started
        session = self.session
        cache = session.cache
        states = fields.pop("states", None)
        cache_delta = {
            "hits": cache.hits - self._cache_before[0],
            "misses": cache.misses - self._cache_before[1],
            "disk_loads": cache.disk_loads - self._cache_before[2],
        }
        phases = (
            phase_table_rows(session.tracer)
            if session.tracer is not None else None
        )
        report = build_report(
            workload=self.workload,
            formula=str(formula),
            graph=session.graph,
            d=session.d,
            engine=session.config.engine,
            verdict=fields.get("verdict"),
            treedepth_exceeded=fields.get("treedepth_exceeded", False),
            value=fields.get("value"),
            count=fields.get("count"),
            num_classes=fields.get("num_classes", 0),
            witness_size=len(fields.get("witness", ())),
            collector=self.collector,
            phase_rounds=fields.get("phase_rounds", {}),
            phases=phases,
            cache=cache_delta,
            replay=session._replay_json(),
            wall_seconds=wall,
            states_total=states.states_total if states else 0,
            states_reachable=states.states_reachable if states else 0,
            states_minimized=states.states_minimized if states else 0,
        )
        if session.record:
            store = RunStore(
                None if session.record is True else session.record
            )
            store.save(report)
        return Result(
            workload=self.workload,
            replay_args=session.replay_args,
            cache_hits=cache_delta["hits"],
            cache_misses=cache_delta["misses"],
            report=report,
            **fields,
        )


class Session:
    """A graph + treedepth promise + execution knobs, ready to run workloads.

    Parameters
    ----------
    graph:
        The network (must be connected for the CONGEST protocols).
    d:
        The treedepth promise handed to Algorithm 2.
    faults / retry / trace / seed / inbox_order / budget / minimize / cache:
        The :class:`~repro.runconfig.RunConfig` fields, documented there;
        or pass them whole as ``config=`` (never both).  ``certify``
        ignores ``faults`` and ``retry`` (its prover is centralized, its
        verifier one round).  The resolved tracer is ``session.tracer``;
        ``cache`` defaults to the process-wide persistent cache.
    record:
        ``True`` to append each workload's
        :class:`~repro.obs.reports.RunReport` to the default run store
        (``REPRO_RUN_DIR`` or ``.repro/runs``), or a directory path to
        record there.  Reports are built either way and attached to
        ``Result.report``; ``record`` only controls persistence.
    """

    def __init__(
        self,
        graph: Graph,
        d: int,
        *,
        faults: Optional[Any] = None,
        retry: Optional[Any] = None,
        trace: Union[Tracer, bool, None] = None,
        seed: Optional[int] = None,
        inbox_order: Optional[str] = None,
        budget: Optional[int] = None,
        minimize: Optional[bool] = None,
        cache: Optional[AutomatonCache] = None,
        record: Union[bool, str, None] = False,
        config: Optional[RunConfig] = None,
    ):
        self.config = RunConfig.from_kwargs(
            config,
            faults=faults,
            retry=retry,
            trace=trace or None,
            seed=seed,
            inbox_order=inbox_order,
            budget=budget,
            minimize=minimize,
            cache=cache,
        )
        self.graph = graph
        self.d = d
        self.cache = (
            self.config.cache if self.config.cache is not None
            else default_cache()
        )
        self.record = record
        self.tracer: Optional[Tracer] = (
            resolve_tracer(self.config.trace) if self.config.trace else None
        )

    # -- shared plumbing -------------------------------------------------

    @property
    def replay_args(self) -> Dict[str, Any]:
        """Session kwargs reproducing this session's executions exactly."""
        return self.config.replay_args()

    def _replay_json(self) -> Dict[str, Any]:
        """``replay_args`` reduced to JSON-native values for RunReports.

        Delegates to :meth:`RunConfig.to_json` — the inverse of
        :meth:`from_replay`: every value is a JSON scalar or dict, so a
        stored report (or a ``repro fuzz`` replay file) can reconstruct
        the session without evaluating reprs.
        """
        return self.config.to_json()

    @classmethod
    def from_replay(
        cls, graph: Graph, d: int, replay: Mapping[str, Any], **overrides: Any
    ) -> "Session":
        """Rebuild a session from JSON-native replay arguments.

        Accepts both the live :attr:`replay_args` mapping (FaultPlan /
        RetryPolicy instances pass through) and its
        :meth:`RunConfig.to_json` encoding as stored in run reports and
        fuzz replay files, where ``faults`` is a
        :meth:`~repro.faults.FaultPlan.to_dict` dict and ``retry`` is
        ``{"attempts": n}``.  ``overrides`` win over the replayed values
        (e.g. ``cache=...`` for an isolated rerun).
        """
        cfg = RunConfig.from_json(replay)
        kwargs: Dict[str, Any] = cfg.replay_args()
        kwargs.update(overrides)
        return cls(graph, d, **kwargs)

    def _observe(self, workload: str) -> _Observation:
        return _Observation(self, workload)

    def _formula(self, phi: Union[Formula, str]) -> Formula:
        if isinstance(phi, str):
            return parse(phi)
        return phi

    def _compiled(self, phi: Formula, scope: Tuple[Var, ...],
                  singletons: bool = False):
        return self.cache.automaton_with_codec(
            phi, scope, d=self.d, labels=graph_label_alphabet(self.graph),
            singletons=singletons,
        )

    def _run_config(self, codec: Any = None) -> RunConfig:
        """The pipeline-facing config: session knobs + resolved tracer."""
        return self.config.with_overrides(
            trace=self.tracer, codec=codec, cache=None
        )

    def _minimize_stats(self, automaton: Any, out: Any) -> Optional[Any]:
        """The state-reduction counts of the pipeline call that just ran.

        Peek-only, and gated on the pipeline's own ``minimized`` flag:
        when minimization is off, the budgeted passes fell back to the
        raw kernel, or the recovered elimination forest was deeper than
        the closure (so the run bypassed the wrapper), there is nothing
        to report — even if an earlier run on another graph warmed the
        memo.
        """
        if not getattr(out, "minimized", False):
            return None
        return minimization_stats(
            automaton, d=self.d, labels=graph_label_alphabet(self.graph)
        )

    # -- workloads -------------------------------------------------------

    def decide(self, phi: Union[Formula, str]) -> Result:
        """Decide the closed formula ``phi`` (Theorem 6.1)."""
        phi = self._formula(phi)
        if free_variables(phi):
            raise ReproError(
                "decide needs a closed formula; use optimize/count for "
                "formulas with free variables"
            )
        with self._observe("decide") as obs:
            automaton, codec = self._compiled(phi, ())
            out = decide_pipeline(
                automaton, self.graph, self.d,
                config=self._run_config(codec),
            )
            self.cache.save_warm()
            return obs.result(
                phi,
                verdict=None if out.treedepth_exceeded else out.accepted,
                rounds=out.total_rounds,
                messages=out.total_messages,
                max_payload_bits=out.max_message_bits,
                treedepth_exceeded=out.treedepth_exceeded,
                num_classes=out.num_classes,
                phase_rounds={
                    "elimination": out.elimination_rounds,
                    "checking": out.checking_rounds,
                },
                states=self._minimize_stats(automaton, out),
            )

    def optimize(
        self,
        phi: Union[Formula, str],
        weights: Optional[Mapping[Any, int]] = None,
        sense: str = "max",
    ) -> Result:
        """Solve max-φ / min-φ for ``phi`` with one free set variable.

        ``weights`` optionally overrides item weights: vertex keys set
        vertex weights, ``(u, v)`` tuple keys set edge weights (on a copy
        of the session graph; the original is untouched).  ``sense`` is
        ``"max"`` or ``"min"``.
        """
        if sense not in ("max", "min"):
            raise ReproError(f"sense must be 'max' or 'min', not {sense!r}")
        phi = self._formula(phi)
        scope = tuple(sorted(free_variables(phi), key=lambda v: v.name))
        if len(scope) != 1 or not scope[0].sort.is_set:
            raise ReproError(
                "optimize needs exactly one free set variable in phi"
            )
        graph = self.graph
        if weights:
            graph = graph.copy()
            for key, weight in weights.items():
                if isinstance(key, tuple) and len(key) == 2 \
                        and graph.has_edge(*key):
                    graph.set_edge_weight(key[0], key[1], weight)
                elif graph.has_vertex(key):
                    graph.set_vertex_weight(key, weight)
                else:
                    raise ReproError(
                        f"weight key {key!r} is neither a vertex nor an "
                        "edge of the session graph"
                    )
        with self._observe("optimize") as obs:
            automaton, codec = self._compiled(phi, scope)
            out = optimize_pipeline(
                automaton, graph, self.d, maximize=(sense == "max"),
                config=self._run_config(codec),
            )
            self.cache.save_warm()
            return obs.result(
                phi,
                verdict=None if out.treedepth_exceeded else out.feasible,
                rounds=out.total_rounds,
                messages=out.total_messages,
                max_payload_bits=out.max_message_bits,
                treedepth_exceeded=out.treedepth_exceeded,
                value=out.value,
                witness=out.witness,
                num_classes=out.num_classes,
                phase_rounds={
                    "elimination": out.elimination_rounds,
                    "optimization": out.optimization_rounds,
                },
                states=self._minimize_stats(automaton, out),
            )

    def count(self, phi: Union[Formula, str]) -> Result:
        """Count satisfying assignments of ``phi``'s free variables (§6)."""
        phi = self._formula(phi)
        scope = tuple(sorted(free_variables(phi), key=lambda v: v.name))
        if not scope:
            raise ReproError("count needs at least one free variable in phi")
        singletons = any(not v.sort.is_set for v in scope)
        with self._observe("count") as obs:
            automaton, codec = self._compiled(phi, scope,
                                              singletons=singletons)
            out = count_pipeline(
                automaton, self.graph, self.d,
                config=self._run_config(codec),
            )
            self.cache.save_warm()
            return obs.result(
                phi,
                verdict=None if out.treedepth_exceeded else True,
                rounds=out.total_rounds,
                messages=out.total_messages,
                max_payload_bits=out.max_message_bits,
                treedepth_exceeded=out.treedepth_exceeded,
                count=out.count,
                num_classes=out.num_classes,
                phase_rounds={
                    "elimination": out.elimination_rounds,
                    "counting": out.counting_rounds,
                },
                states=self._minimize_stats(automaton, out),
            )

    def certify(self, phi: Union[Formula, str]) -> Result:
        """Prove + verify ``phi`` via the PODC'22 certification baseline.

        Raises :class:`repro.errors.CertificationError` when the graph
        does not satisfy ``phi`` (a prover cannot certify a false
        statement), and :class:`repro.errors.ProtocolError` when the
        graph is disconnected, as :meth:`decide` does: the verifier's
        root check only covers the whole network when there is one root.
        Fault/retry session knobs do not apply: the prover is
        centralized and the verifier runs a single round.
        """
        phi = self._formula(phi)
        if free_variables(phi):
            raise ReproError("certify needs a closed formula")
        with self._observe("certify") as obs:
            automaton, _codec = self._compiled(phi, ())
            instance = prove(self.graph, automaton)
            audit = verify(self.graph, automaton, instance)
            self.cache.save_warm()
            return obs.result(
                phi,
                verdict=audit.accepted,
                rounds=audit.rounds,
                messages=audit.total_messages,
                max_payload_bits=instance.max_certificate_bits,
                num_classes=instance.codec.num_classes,
                phase_rounds={"verification": audit.rounds},
            )
