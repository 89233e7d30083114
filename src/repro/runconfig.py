"""One frozen configuration object for every execution surface.

Every entry point in :mod:`repro.distributed` and the
:class:`repro.api.Session` facade share the same execution knobs — seed,
inbox order, fault plan, retry policy, bit budget, minimization, tracing,
automaton cache, class codec.  :class:`RunConfig` is the single place
those knobs are named and validated: the distributed entry points take
one keyword-only ``config=`` (``None`` means ``RunConfig()``), and
``Session`` — the one keyword surface — funnels its keywords through
:meth:`RunConfig.from_kwargs`.

``to_json`` / ``from_json`` are the replay contract:
``Result.replay_args`` and fuzz-corpus replay files store exactly this
encoding, and :meth:`repro.api.Session.from_replay` reconstructs a
byte-identical run from it.  Only the replayable fields are serialized —
``trace`` / ``cache`` / ``codec`` hold live objects and stay local.
Replays stored while there were three engines carry an ``engine`` key;
:meth:`RunConfig.from_json` accepts and ignores its legacy values.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional

from .congest.runtime import INBOX_ORDERS
from .errors import ReproError

__all__ = ["RunConfig", "resolve_tracer"]


def resolve_tracer(trace: Any) -> Optional[Any]:
    """A concrete tracer for a ``RunConfig.trace`` value.

    Pipeline semantics: an explicit :class:`~repro.obs.Tracer` records
    into itself, ``True`` requests a fresh one, anything falsy falls back
    to the process-installed tracer (or none).
    """
    from .obs import Tracer, current_tracer

    if isinstance(trace, Tracer):
        return trace
    if trace:
        return Tracer()
    return current_tracer()

#: The replayable subset of fields, in their canonical JSON order.
REPLAY_FIELDS = ("seed", "inbox_order", "faults", "retry", "budget", "minimize")

#: ``engine`` values older replays may carry; all ran the same transcript.
LEGACY_ENGINES = ("naive", "batched", "vectorized")


@dataclass(frozen=True)
class RunConfig:
    """Validated execution knobs shared by Session and every pipeline.

    Parameters mirror the keyword arguments of Session:

    * ``seed`` / ``inbox_order`` — the simulator's adversarial delivery
      knobs (see :class:`repro.congest.Simulation`);
    * ``faults`` / ``retry`` — a :class:`repro.faults.FaultPlan`
      adversary and :class:`repro.faults.RetryPolicy` reliability layer;
    * ``budget`` — per-edge per-round bit budget override;
    * ``minimize`` — ``False`` opts out of the state-space reduction
      passes of :mod:`repro.algebra.minimize`; ``None`` (the default)
      means minimize (see ``docs/engines.md``);
    * ``trace`` — ``True`` for a fresh :class:`repro.obs.Tracer`, or a
      Tracer instance to record into;
    * ``cache`` — an :class:`repro.algebra.cache.AutomatonCache`
      (Session-level; pipelines receive compiled automata directly);
    * ``codec`` — a :class:`repro.distributed.model_checking.ClassCodec`
      to share class ids across runs (pipeline-level).

    There is one round scheduler and one automaton kernel, so ``engine``
    is not a knob: it is a read-only property, always ``"batched"``, kept
    for RunReports and other readers of the old field.
    """

    seed: Optional[int] = None
    inbox_order: str = "arrival"
    faults: Optional[Any] = None
    retry: Optional[Any] = None
    budget: Optional[int] = None
    minimize: Optional[bool] = None
    trace: Any = None
    cache: Optional[Any] = None
    codec: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.inbox_order not in INBOX_ORDERS:
            raise ReproError(
                f"unknown inbox order {self.inbox_order!r}; "
                f"choose from {INBOX_ORDERS}"
            )
        if self.minimize not in (None, True, False):
            raise ReproError(
                f"minimize must be True, False or None, "
                f"not {self.minimize!r}"
            )

    # -- construction ----------------------------------------------------

    @classmethod
    def from_kwargs(
        cls,
        config: Optional["RunConfig"] = None,
        **kwargs: Any,
    ) -> "RunConfig":
        """Normalize Session's keyword surface into one validated config.

        ``config`` (when given) is taken whole; keyword arguments must
        then all be ``None`` — mixing both surfaces would make it
        ambiguous which value wins.  Without ``config``, keywords with
        value ``None`` fall back to the dataclass defaults, so
        ``from_kwargs(seed=None)`` means "the default seed", exactly like
        omitting the keyword.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(kwargs) - known
        if unknown:
            raise ReproError(
                f"unknown run configuration key(s): {sorted(unknown)}"
            )
        if config is not None:
            clashes = sorted(k for k, v in kwargs.items() if v is not None)
            if clashes:
                raise ReproError(
                    "pass either config= or individual keyword arguments, "
                    f"not both (got config plus {clashes})"
                )
            if not isinstance(config, cls):
                raise ReproError(
                    f"config must be a RunConfig, not {type(config).__name__}"
                )
            return config
        return cls(**{k: v for k, v in kwargs.items() if v is not None})

    def with_overrides(self, **overrides: Any) -> "RunConfig":
        """A copy with ``overrides`` applied (re-validated)."""
        return replace(self, **overrides)

    @property
    def engine(self) -> str:
        """The round scheduler every run uses (read-only, always batched)."""
        return "batched"

    @property
    def minimize_enabled(self) -> bool:
        """Whether the state-space reduction passes apply to this run.

        ``None`` (auto) resolves to ``True``.
        """
        return self.minimize is not False

    # -- replay serialization ---------------------------------------------

    def replay_args(self) -> Dict[str, Any]:
        """The replayable fields with live objects (Session kwargs)."""
        return {name: getattr(self, name) for name in REPLAY_FIELDS}

    def to_json(self) -> Dict[str, Any]:
        """JSON-native replay encoding (inverse of :meth:`from_json`)."""
        replay = self.replay_args()
        if replay["faults"] is not None:
            replay["faults"] = replay["faults"].to_dict()
        if replay["retry"] is not None:
            replay["retry"] = {"attempts": replay["retry"].attempts}
        return replay

    @classmethod
    def from_json(cls, replay: Mapping[str, Any]) -> "RunConfig":
        """Decode :meth:`to_json` output (or live replay_args) strictly.

        Unknown keys are rejected — a replay file with a field this
        version cannot reproduce must fail loudly, not silently drift.
        The one exception is a legacy ``engine`` naming one of
        :data:`LEGACY_ENGINES`: every engine produced the same
        transcript, so it is dropped; any other value is rejected.
        """
        from .faults import FaultPlan, RetryPolicy

        kwargs: Dict[str, Any] = dict(replay)
        if "engine" in kwargs:
            engine = kwargs.pop("engine")
            if engine not in LEGACY_ENGINES:
                raise ReproError(
                    f"unknown engine {engine!r} in replay; stored replays "
                    f"may only name {LEGACY_ENGINES}"
                )
        unknown = set(kwargs) - set(REPLAY_FIELDS)
        if unknown:
            raise ReproError(
                f"unknown replay argument(s): {sorted(unknown)}"
            )
        faults = kwargs.get("faults")
        if isinstance(faults, Mapping):
            kwargs["faults"] = FaultPlan.from_dict(dict(faults))
        retry = kwargs.get("retry")
        if isinstance(retry, Mapping):
            try:
                kwargs["retry"] = RetryPolicy(attempts=int(retry["attempts"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise ReproError(
                    f"malformed retry encoding {retry!r}: {exc}"
                ) from exc
        provided = {k: v for k, v in kwargs.items() if v is not None}
        return cls(**provided)
