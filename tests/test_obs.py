"""Tests for the instrumentation layer: tracer, events, exporters, CLI."""

import io
import json

import pytest

from repro.congest import run_protocol
from repro.errors import ProtocolError
from repro.graph import generators as gen
from repro.obs import (
    NULL_SPAN,
    DeliverEvent,
    PhaseEnter,
    PhaseExit,
    RoundStart,
    SendEvent,
    Tracer,
    chrome_trace_dict,
    current_tracer,
    event_from_dict,
    phase_table_rows,
    read_events,
    render_phase_table,
    use_tracer,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.profile import profiled


def ping_program(ctx):
    with ctx.phase("ping"):
        ctx.send_all(("ping", ctx.node))
        inbox = yield
    with ctx.phase("pong"):
        ctx.send_all(("pong", len(inbox)))
        inbox = yield
    return len(inbox)


# ----------------------------------------------------------------------
# Phase spans
# ----------------------------------------------------------------------

def test_phase_nesting_builds_hierarchical_paths():
    tracer = Tracer()
    with tracer.phase("outer"):
        with tracer.phase("inner"):
            with use_tracer(tracer):
                run_protocol(gen.path(3), ping_program)
    paths = [path for path, _ in tracer.phase_rows()]
    assert "outer" in paths
    assert "outer/inner" in paths
    assert "outer/inner/ping" in paths
    assert "outer/inner/pong" in paths


def test_lockstep_spans_refcount_to_one_enter_exit():
    tracer = Tracer()
    with use_tracer(tracer):
        run_protocol(gen.path(3), ping_program)
    # All 3 nodes enter "ping" together, but the span opens/closes once.
    enters = [e for e in tracer.events
              if isinstance(e, PhaseEnter) and e.phase == "ping"]
    exits = [e for e in tracer.events
             if isinstance(e, PhaseExit) and e.phase == "ping"]
    assert len(enters) == 1 and len(exits) == 1
    assert tracer.phase_stats["ping"].entries == 1


def test_rounds_attributed_to_sending_phase():
    tracer = Tracer()
    with use_tracer(tracer):
        run_protocol(gen.path(3), ping_program)
    stats = dict(tracer.phase_rows())
    # 4 directed edges in P3; each phase sends once per node over them.
    assert stats["ping"].messages == 4
    assert stats["pong"].messages == 4
    assert stats["ping"].rounds >= 1
    assert stats["pong"].rounds >= 1
    assert stats["ping"].bits > 0 and stats["pong"].bits > 0
    assert sum(s.rounds for s in stats.values()) == tracer.total_rounds()


def test_event_ordering_round_start_precedes_its_sends():
    tracer = Tracer()
    with use_tracer(tracer):
        run_protocol(gen.path(3), ping_program)
    started = 0
    last_round = 0
    for event in tracer.events:
        if isinstance(event, RoundStart):
            assert event.round == last_round + 1
            last_round = event.round
            started = event.round
        elif isinstance(event, (SendEvent, DeliverEvent)):
            # traffic is only recorded inside a started round
            assert event.round == started
    assert last_round == tracer.total_rounds()


def test_deliveries_follow_sends_by_one_round():
    tracer = Tracer()
    with use_tracer(tracer):
        run_protocol(gen.path(2), ping_program)
    sends = [e for e in tracer.events if isinstance(e, SendEvent)]
    delivers = [e for e in tracer.events if isinstance(e, DeliverEvent)]
    assert sends and delivers
    assert all(e.round == 1 for e in sends if e.phase == "ping")
    assert all(any(d.round == s.round + 1 and d.sender == s.sender
                   and d.receiver == s.receiver for d in delivers)
               for s in sends)


def test_per_node_and_per_edge_breakdowns():
    tracer = Tracer()
    with use_tracer(tracer):
        run_protocol(gen.path(3), ping_program)
    # Middle node talks to both neighbors, twice (ping + pong).
    assert tracer.node_stats[1].sent_messages == 4
    assert tracer.node_stats[1].received_messages == 4
    assert tracer.node_stats[0].sent_messages == 2
    assert tracer.edge_stats[(0, 1)].messages == 2
    assert tracer.edge_stats[(1, 0)].messages == 2
    assert all(stats.halt_round is not None
               for stats in tracer.node_stats.values())


# ----------------------------------------------------------------------
# Disabled / cheap modes
# ----------------------------------------------------------------------

def test_no_tracer_means_null_spans():
    assert current_tracer() is None
    seen = []

    def program(ctx):
        seen.append(ctx.phase("anything"))
        return None
        yield  # pragma: no cover

    run_protocol(gen.path(2), program)
    assert all(span is NULL_SPAN for span in seen)
    with profiled("not.recorded"):
        pass  # no tracer installed: must be a silent no-op


def test_events_false_keeps_aggregates_drops_log():
    tracer = Tracer(events=False)
    with use_tracer(tracer):
        run_protocol(gen.path(3), ping_program)
    assert tracer.events == []
    assert not tracer.truncated
    assert tracer.phase_stats["ping"].messages == 4


def test_event_cap_sets_truncated_flag():
    tracer = Tracer(max_events=5)
    with use_tracer(tracer):
        run_protocol(gen.path(3), ping_program)
    assert len(tracer.events) == 5
    assert tracer.truncated
    assert "truncated=True" in tracer.summary()


def test_use_tracer_restores_previous():
    outer, inner = Tracer(), Tracer()
    with use_tracer(outer):
        with use_tracer(inner):
            assert current_tracer() is inner
        assert current_tracer() is outer
    assert current_tracer() is None


def test_profiled_accumulates_wall_clock():
    tracer = Tracer()
    with use_tracer(tracer):
        for _ in range(3):
            with profiled("section"):
                pass
    stat = tracer.timings["section"]
    assert stat.calls == 3
    assert stat.seconds >= 0.0
    assert stat.max_seconds <= stat.seconds + 1e-9


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

def traced_run():
    tracer = Tracer()
    with use_tracer(tracer):
        run_protocol(gen.cycle(4), ping_program)
    return tracer


def test_jsonl_round_trip():
    tracer = traced_run()
    buf = io.StringIO()
    written = write_jsonl(tracer, buf)
    assert written == len(tracer.events)
    assert read_events(buf.getvalue()) == tracer.events


def test_jsonl_header_and_line_validity():
    tracer = traced_run()
    buf = io.StringIO()
    write_jsonl(tracer, buf)
    lines = buf.getvalue().splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "trace-header"
    assert header["rounds"] == tracer.total_rounds()
    assert header["events"] == len(tracer.events)
    for line in lines[1:]:
        event = event_from_dict(json.loads(line))
        assert event.round >= 0


def test_event_dict_round_trip_each_kind():
    tracer = traced_run()
    kinds = {type(e) for e in tracer.events}
    assert {RoundStart, SendEvent, DeliverEvent, PhaseEnter, PhaseExit} <= kinds
    for event in tracer.events:
        assert event_from_dict(event.to_dict()) == event


def test_phase_table_render():
    tracer = traced_run()
    rows = phase_table_rows(tracer)
    assert [row[0] for row in rows] == ["ping", "pong", "unphased"] or \
        [row[0] for row in rows][:2] == ["ping", "pong"]
    text = render_phase_table(tracer)
    assert "ping" in text and "messages" in text


def test_chrome_trace_structure():
    tracer = traced_run()
    payload = chrome_trace_dict(tracer)
    events = payload["traceEvents"]
    begins = [e for e in events if e["ph"] == "B"]
    ends = [e for e in events if e["ph"] == "E"]
    assert len(begins) == len(ends) > 0
    buf = io.StringIO()
    write_chrome_trace(tracer, buf)
    assert json.loads(buf.getvalue()) == payload


def _traced_faulty_run():
    from repro.faults import CrashFault, FaultPlan

    plan = FaultPlan(seed=1, drop_rate=0.4, delay_rate=0.3,
                     crashes=(CrashFault(node=2, at_round=2,
                                         restart_round=4),))
    tracer = Tracer()
    run_protocol(gen.cycle(4), chatty_program, tracer=tracer, faults=plan,
                 seed=0)
    tracer.finish()
    return tracer


def chatty_program(ctx):
    for _ in range(5):
        ctx.send_all(("hello", ctx.node))
        yield
    return ctx.node


def test_chrome_trace_fault_events_land_on_node_tracks():
    tracer = _traced_faulty_run()
    assert tracer.fault_counts, "the plan must actually inject faults"
    payload = chrome_trace_dict(tracer)
    faults = [e for e in payload["traceEvents"]
              if e.get("cat") == "fault"]
    assert faults, "fault events must appear in the chrome trace"
    # Crash/restart instants sit on the crashed node's own track, message
    # faults on the sender's — never all lumped onto tid 0.
    send_tids = {
        e["args"].get("node", e["args"].get("sender")): e["tid"]
        for e in faults
        if "node" in e["args"] or "sender" in e["args"]
    }
    assert send_tids, "faults must carry node/sender attribution"
    assert all(tid != 0 for tid in send_tids.values())
    crashes = [e for e in faults if e["name"] == "fault-crash"]
    restarts = [e for e in faults if e["name"] == "fault-restart"]
    assert crashes and restarts
    assert crashes[0]["tid"] == restarts[0]["tid"] != 0
    # A node's fault track is the same track its sends use.
    sends = [e for e in payload["traceEvents"]
             if e.get("cat") == "message"]
    tid_by_sender = {e["name"].split()[1].split("->")[0]: e["tid"]
                     for e in sends}
    for event in faults:
        sender = event["args"].get("sender")
        if sender is not None and str(sender) in tid_by_sender:
            assert event["tid"] == tid_by_sender[str(sender)]


def test_fault_events_round_trip_through_jsonl():
    tracer = _traced_faulty_run()
    buf = io.StringIO()
    write_jsonl(tracer, buf)
    events = read_events(buf.getvalue())
    assert events == list(tracer.events)
    kinds = {type(e).__name__ for e in events}
    assert "NodeCrashed" in kinds and "NodeRestarted" in kinds


# ----------------------------------------------------------------------
# Satellite fixes in the runtime
# ----------------------------------------------------------------------

def test_unanimous_compares_by_equality_not_repr():
    # Dict outputs built in different insertion orders are equal but have
    # different reprs; unanimous() must use ==.
    def program(ctx):
        if ctx.node == 0:
            return {"a": 1, "b": 2}
        return {"b": 2, "a": 1}
        yield  # pragma: no cover

    assert run_protocol(gen.path(2), program).unanimous() == {"a": 1, "b": 2}

    def program2(ctx):
        return {"a": ctx.node}
        yield  # pragma: no cover

    with pytest.raises(ProtocolError):
        run_protocol(gen.path(2), program2).unanimous()


def test_per_round_bits_and_peaks():
    def program(ctx):
        for _ in range(3):
            if ctx.round_number == 2:
                ctx.send_all(("payload", 12345678))
            else:
                ctx.send_all(("x",))
            yield
        return None

    result = run_protocol(gen.path(2), program)
    metrics = result.metrics
    assert len(metrics.per_round_bits) == len(metrics.per_round_messages)
    assert sum(metrics.per_round_bits) == metrics.total_bits
    peak_round, peak_bits = metrics.peak_round_bits()
    assert peak_round == 2 and peak_bits == metrics.per_round_bits[1]
    msg_round, msg_count = metrics.peak_round_messages()
    assert metrics.per_round_messages[msg_round - 1] == msg_count
    summary = metrics.summary()
    assert "peak_round_bits=" in summary and "peak_round=" in summary


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------

def test_cli_trace_check(tmp_path, capsys):
    from repro.cli import main

    jsonl = tmp_path / "trace.jsonl"
    chrome = tmp_path / "trace.chrome.json"
    code = main([
        "trace", "--jsonl", str(jsonl), "--chrome", str(chrome),
        "check", "--formula", "triangle-free",
        "--graph", "bounded:12:3:0.4:5", "--congest",
    ])
    assert code in (0, 1)
    out = capsys.readouterr().out
    assert "per-phase breakdown" in out
    assert "elimination/" in out
    lines = jsonl.read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "trace-header"
    assert read_events("\n".join(lines))
    assert json.loads(chrome.read_text())["traceEvents"]


def test_cli_repro_trace_env(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    target = tmp_path / "env.jsonl"
    monkeypatch.setenv("REPRO_TRACE", str(target))
    code = main(["check", "--catalog", "triangle-free",
                 "--graph", "cycle:6", "--congest", "--d", "4"])
    assert code == 0
    err = capsys.readouterr().err
    assert "per-phase breakdown" in err
    assert target.exists()
