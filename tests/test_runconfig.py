"""RunConfig: the single validated configuration surface.

Covers the from_kwargs funnel (None-means-default, the config-vs-kwargs
clash), the retired ``engine`` knob (a read-only constant, rejected as an
argument, accepted and ignored in legacy replays), the JSON replay
round-trip, and the Session/pipeline integration points.
"""

import dataclasses
import json

import pytest

from repro.algebra import compile_formula
from repro.api import Result, RunConfig, Session
from repro.congest import run_protocol
from repro.distributed import decide_pipeline
from repro.errors import ReproError
from repro.faults import FaultPlan, RetryPolicy
from repro.graph import generators as gen
from repro.mso import formulas
from repro.runconfig import LEGACY_ENGINES, REPLAY_FIELDS


def test_defaults():
    cfg = RunConfig()
    assert cfg.engine == "batched"
    assert cfg.inbox_order == "arrival"
    assert cfg.seed is None
    assert cfg.faults is None


def test_frozen():
    cfg = RunConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 3
    # ``engine`` is a read-only constant, not a field.
    with pytest.raises(AttributeError):
        cfg.engine = "naive"
    assert "engine" not in {f.name for f in dataclasses.fields(RunConfig)}


def test_unknown_engine_typed():
    # A stored replay may only name one of the retired engines.
    with pytest.raises(ReproError) as exc:
        RunConfig.from_json({"engine": "warp"})
    message = str(exc.value)
    assert "warp" in message
    for engine in LEGACY_ENGINES:
        assert engine in message


def test_unknown_inbox_order():
    with pytest.raises(ReproError):
        RunConfig(inbox_order="chaotic")


def test_from_kwargs_none_means_default():
    cfg = RunConfig.from_kwargs(minimize=None, seed=None, inbox_order=None)
    assert cfg == RunConfig()


def test_from_kwargs_config_passthrough():
    cfg = RunConfig(seed=9, inbox_order="sorted")
    assert RunConfig.from_kwargs(cfg) is cfg


def test_from_kwargs_clash_rejected():
    cfg = RunConfig(seed=9)
    with pytest.raises(ReproError, match="not both"):
        RunConfig.from_kwargs(cfg, inbox_order="sorted")
    # None-valued kwargs do not clash: they mean "unspecified".
    assert RunConfig.from_kwargs(cfg, inbox_order=None) is cfg


def test_from_kwargs_unknown_key():
    with pytest.raises(ReproError, match="unknown run configuration"):
        RunConfig.from_kwargs(warp_factor=9)
    with pytest.raises(ReproError, match="unknown run configuration"):
        RunConfig.from_kwargs(engine="batched")


def test_with_overrides_revalidates():
    cfg = RunConfig()
    assert cfg.with_overrides(inbox_order="sorted").inbox_order == "sorted"
    with pytest.raises(ReproError):
        cfg.with_overrides(inbox_order="chaotic")


def test_json_round_trip():
    cfg = RunConfig(
        seed=7, inbox_order="sorted",
        faults=FaultPlan(seed=3, drop_rate=0.1),
        retry=RetryPolicy(attempts=2), budget=64,
    )
    encoded = json.loads(json.dumps(cfg.to_json()))
    assert "engine" not in encoded
    decoded = RunConfig.from_json(encoded)
    assert decoded.replay_args() == cfg.replay_args()


@pytest.mark.parametrize("engine", LEGACY_ENGINES)
def test_from_json_ignores_legacy_engine(engine):
    stored = {"seed": 7, "inbox_order": "sorted", "engine": engine}
    assert RunConfig.from_json(stored) == RunConfig(
        seed=7, inbox_order="sorted"
    )
    session = Session.from_replay(gen.path(4), 2, stored)
    assert session.config == RunConfig(seed=7, inbox_order="sorted")
    assert session.config.engine == "batched"


def test_from_json_rejects_unknown_keys():
    with pytest.raises(ReproError, match="unknown replay"):
        RunConfig.from_json({"seed": 1, "warp": True})


def test_from_json_rejects_nonreplay_fields():
    # trace/cache/codec hold live objects and must never round-trip.
    assert set(RunConfig(seed=1).to_json()) == set(REPLAY_FIELDS)
    with pytest.raises(ReproError):
        RunConfig.from_json({"trace": True})


def test_session_accepts_config():
    g = gen.random_bounded_treedepth(12, 3, seed=4)
    cfg = RunConfig(seed=5, inbox_order="reversed", minimize=False)
    session = Session(g, 3, config=cfg)
    assert session.config.minimize is False
    assert session.config.seed == 5
    result = session.decide(formulas.triangle_free())
    assert isinstance(result, Result)
    assert result.replay_args["inbox_order"] == "reversed"


def test_session_config_kwargs_clash():
    g = gen.path(4)
    with pytest.raises(ReproError, match="not both"):
        Session(g, 2, seed=3, config=RunConfig())


def test_session_replay_round_trip():
    g = gen.random_bounded_treedepth(12, 3, seed=4)
    first = Session(
        g, 3, seed=11, inbox_order="shuffle", minimize=False,
    ).decide(formulas.triangle_free())
    replay = json.loads(json.dumps(dict(first.replay_args)))
    second = Session.from_replay(g, 3, replay).decide(
        formulas.triangle_free()
    )
    assert second.replay_args == first.replay_args
    assert (first.verdict, first.rounds, first.messages,
            first.max_payload_bits) == \
           (second.verdict, second.rounds, second.messages,
            second.max_payload_bits)


def test_pipelines_accept_config():
    g = gen.random_bounded_treedepth(12, 3, seed=4)
    automaton = compile_formula(formulas.triangle_free())
    cfg = RunConfig(seed=2, inbox_order="reversed")
    via_config = decide_pipeline(automaton, g, 3, config=cfg)
    # Session is the keyword surface; it hands the same config down.
    via_kwargs = Session(g, 3, seed=2, inbox_order="reversed").decide(
        formulas.triangle_free()
    )
    assert via_config.accepted == via_kwargs.verdict  # pipeline result field
    assert via_config.total_rounds == via_kwargs.rounds


def test_unknown_engine_everywhere():
    # ``engine`` is no longer a parameter of any public entry point.
    g = gen.path(4)
    for engine in ("warp", "batched"):
        with pytest.raises(TypeError):
            Session(g, 2, engine=engine)
        with pytest.raises(TypeError):
            RunConfig(engine=engine)
        automaton = compile_formula(formulas.triangle_free())
        with pytest.raises(TypeError):
            decide_pipeline(automaton, g, 2, engine=engine)
        with pytest.raises(TypeError):
            run_protocol(g, lambda ctx: iter(()), engine=engine)
    # Nor are the other knobs: pipelines take them as one config=.
    with pytest.raises(TypeError):
        decide_pipeline(automaton, g, 2, seed=1)
