"""Tests for the metrics registry, RunReport artifacts, report diffing,
and the benchmark regression gate."""

import json

import pytest

from repro.algebra.cache import AutomatonCache
from repro.api import Session
from repro.cli import main as cli_main
from repro.graph import generators as gen
from repro.mso import formulas
from repro.obs.benchgate import check_bench, compare_bench
from repro.obs.registry import (
    MetricsRegistry,
    collect_run,
    note_simulation,
    registry,
    set_registry,
)
from repro.obs.reports import (
    RunReport,
    RunStore,
    build_report,
    diff_reports,
    render_html,
    render_markdown,
)


@pytest.fixture
def fresh_registry():
    """Isolate each test from the process-wide registry singleton."""
    old = registry()
    reg = MetricsRegistry()
    set_registry(reg)
    yield reg
    set_registry(old)


def _session(graph=None, d=4, **kwargs):
    kwargs.setdefault("cache", AutomatonCache(persist=False))
    return Session(graph if graph is not None else gen.cycle(8), d, **kwargs)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

def test_counter_gauge_histogram_basics(fresh_registry):
    reg = fresh_registry
    c = reg.counter("repro_test_total", "help", ("kind",))
    c.inc(kind="a")
    c.inc(3, kind="a")
    c.inc(kind="b")
    g = reg.gauge("repro_test_gauge", "help")
    g.set(7)
    g.set_max(3)  # lower: must not regress the max
    h = reg.histogram("repro_test_hist", "help", buckets=(1, 10))
    for v in (0, 5, 100):
        h.observe(v)
    data = reg.to_json()
    assert data["repro_test_total"]["samples"] == [
        {"labels": {"kind": "a"}, "value": 4},
        {"labels": {"kind": "b"}, "value": 1},
    ]
    assert data["repro_test_gauge"]["samples"] == [{"labels": {}, "value": 7}]
    assert data["repro_test_hist"]["buckets"] == [1, 10]
    hist = data["repro_test_hist"]["samples"][0]
    assert hist["count"] == 3 and hist["sum"] == 105
    assert hist["counts"] == [1, 2]  # <=1: one, <=10: two, +Inf via count


def test_get_or_create_returns_same_metric(fresh_registry):
    reg = fresh_registry
    assert reg.counter("repro_x_total", "h") is reg.counter("repro_x_total", "h")


def test_prometheus_rendering_is_deterministic(fresh_registry):
    reg = fresh_registry
    reg.counter("repro_b_total", "second", ("kind",)).inc(kind="z")
    reg.counter("repro_b_total", "second", ("kind",)).inc(kind="a")
    reg.counter("repro_a_total", "first").inc(2)
    reg.histogram("repro_h", "hist", buckets=(1,)).observe(0.5)
    text = reg.render_prometheus()
    assert text == reg.render_prometheus()
    # Families sorted by name, label sets sorted within a family.
    assert text.index("repro_a_total") < text.index("repro_b_total")
    assert text.index('kind="a"') < text.index('kind="z"')
    assert "# TYPE repro_a_total counter" in text
    assert 'repro_h_bucket{le="+Inf"} 1' in text
    assert "repro_h_count 1" in text


def test_simulations_feed_registry_and_collectors(fresh_registry):
    with collect_run() as collector:
        _session().decide(formulas.triangle_free())
    assert collector.simulations >= 2  # elimination + checking
    assert collector.rounds > 0
    assert collector.messages > 0
    assert len(collector.per_round_messages) == collector.rounds
    data = fresh_registry.to_json()
    assert data["repro_rounds_total"]["samples"][0]["value"] == collector.rounds
    simulations = data["repro_simulations_total"]["samples"]
    assert [s["value"] for s in simulations] == [collector.simulations]


def test_fault_injection_counts_into_registry(fresh_registry):
    from repro.faults import FaultPlan

    plan = FaultPlan(seed=3, drop_rate=0.5)
    session = _session(faults=plan, retry=None)
    with collect_run() as collector:
        session.decide(formulas.triangle_free())
    assert collector.faults.get("fault-drop", 0) > 0
    samples = fresh_registry.to_json()["repro_faults_injected_total"]["samples"]
    by_kind = {s["labels"]["kind"]: s["value"] for s in samples}
    assert by_kind["fault-drop"] == collector.faults["fault-drop"]


def test_sweeps_count_into_registry(fresh_registry):
    from repro.congest.parallel import run_sweep

    run_sweep(_noop_worker, [{"x": 1}, {"x": 2}, {"x": 3}])
    data = fresh_registry.to_json()
    assert data["repro_sweeps_total"]["samples"][0]["value"] == 1
    assert data["repro_sweep_shards_total"]["samples"][0]["value"] == 3


def _noop_worker(params):
    return {"metrics": {"rounds": 1}}


# ----------------------------------------------------------------------
# RunReports and the run store
# ----------------------------------------------------------------------

def test_result_exposes_cache_deltas_and_report(fresh_registry):
    session = _session()
    phi = formulas.triangle_free()
    first = session.decide(phi)
    second = session.decide(phi)
    assert (first.cache_hits, first.cache_misses) == (0, 1)
    assert (second.cache_hits, second.cache_misses) == (1, 0)
    report = first.report
    assert isinstance(report, RunReport)
    assert report.workload == "decide"
    assert report.metrics["rounds"] == first.rounds
    assert report.metrics["messages"] == first.messages
    assert report.phase_rounds == dict(first.phase_rounds)
    assert report.cache == {"hits": 0, "misses": 1, "disk_loads": 0}
    assert report.engine == "batched"
    assert "engine" not in report.replay
    assert len(report.run_id) == 64
    # Wall-clock and timestamps never leak into the content address.
    assert "wall_seconds" not in report.deterministic_core()
    assert report.to_dict()["wall_seconds"] == report.wall_seconds


def test_identical_executions_share_a_content_address(fresh_registry):
    phi = formulas.triangle_free()
    a = _session().decide(phi)
    b = _session().decide(phi)
    assert a.report.run_id == b.report.run_id
    assert a.report.wall_seconds != 0.0


def test_record_persists_to_run_store(fresh_registry, tmp_path):
    phi = formulas.triangle_free()
    session = _session(record=str(tmp_path))
    session.decide(phi)
    session.certify(phi)
    store = RunStore(tmp_path)
    stored = store.list()
    assert [r.workload for r in stored] == ["decide", "certify"]
    latest = store.load("latest")
    assert latest.workload == "certify"
    by_prefix = store.load(stored[0].run_id[:10])
    assert by_prefix.run_id == stored[0].run_id
    with pytest.raises(KeyError):
        store.load("not-a-run")


def test_run_store_env_override(fresh_registry, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path / "envruns"))
    _session(record=True).decide(formulas.triangle_free())
    assert RunStore().list()[0].workload == "decide"
    assert (tmp_path / "envruns" / "runs.jsonl").exists()


def test_run_store_skips_corrupt_lines(fresh_registry, tmp_path):
    _session(record=str(tmp_path)).decide(formulas.triangle_free())
    store = RunStore(tmp_path)
    with open(store.path, "a", encoding="utf-8") as handle:
        handle.write("not json\n{\"also\": \"no run_id\"}\n")
    assert len(store.list()) == 1


def test_renderers_cover_the_report(fresh_registry):
    from repro.mso import Sort, Var

    result = _session().optimize(
        formulas.independent_set(Var("S", Sort.VERTEX_SET))
    )
    md = render_markdown(result.report)
    assert "## Metrics" in md and "rounds" in md
    assert f"value**: {result.value}" in md
    html = render_html(result.report)
    assert html.startswith("<!DOCTYPE html>")
    assert "<table>" in html and "</html>" in html


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------

def test_diff_of_identical_runs_is_clean_and_deterministic(fresh_registry):
    phi = formulas.triangle_free()
    a = _session().decide(phi).report
    b = _session().decide(phi).report
    diff = diff_reports(a, b)
    assert diff.ok
    assert diff.render() == diff_reports(a, b).render()
    assert "no threshold breaches" in diff.render()
    # wall-clock only appears on request
    assert "wall_seconds" not in diff.render()
    assert "wall_seconds" in diff.render(wall=True)


def test_diff_flags_regressions_and_verdict_changes(fresh_registry):
    a = _session().decide(formulas.triangle_free()).report
    b = _session(gen.cycle(16), d=6).decide(formulas.triangle_free()).report
    diff = diff_reports(a, b)
    assert not diff.ok
    assert any("rounds" in breach for breach in diff.breaches)
    # Loosening the tolerance clears the gate.
    loose = diff_reports(a, b, {"rounds": 100.0})
    assert all("rounds:" not in breach for breach in loose.breaches)
    # Verdict disagreements always breach, regardless of thresholds.
    c = _session().decide(formulas.acyclic()).report  # cycle: False
    verdict_diff = diff_reports(a, c, {})
    assert any("verdict" in breach for breach in verdict_diff.breaches)


# ----------------------------------------------------------------------
# Bench gate
# ----------------------------------------------------------------------

BENCH = {
    "benchmark": "engine",
    "mode": "smoke",
    "experiments": {
        "E1": {
            "grid": [8, 12],
            "checks": [[8, True, 100], [12, True, 150]],
            "minimized_speedup": 2.0,
            "batched_seconds": 1.0,
            "minimized_seconds": 0.5,
        },
    },
}


def test_compare_bench_passes_identical_results():
    result = compare_bench(json.loads(json.dumps(BENCH)), BENCH)
    assert result.ok
    assert "checks match" in result.render()


def test_compare_bench_flags_slow_and_wrong_runs():
    slow = json.loads(json.dumps(BENCH))
    slow["experiments"]["E1"]["minimized_speedup"] = 0.4
    result = compare_bench(slow, BENCH)
    assert [b.metric for b in result.breaches] == ["minimized_speedup"]

    # Above the floor: noise, not a regression, even far below baseline.
    floored = json.loads(json.dumps(BENCH))
    floored["experiments"]["E1"]["minimized_speedup"] = 1.01
    assert compare_bench(floored, BENCH).ok

    wrong = json.loads(json.dumps(BENCH))
    wrong["experiments"]["E1"]["checks"][0][1] = False
    assert [b.metric for b in compare_bench(wrong, BENCH).breaches] == ["checks"]


def test_compare_bench_skips_checks_on_grid_mismatch():
    smoke = json.loads(json.dumps(BENCH))
    smoke["experiments"]["E1"]["grid"] = [6]
    smoke["experiments"]["E1"]["checks"] = [[6, True, 80]]
    result = compare_bench(smoke, BENCH)
    assert result.ok
    assert "grid differs" in result.render()


def test_compare_bench_time_gate_is_opt_in():
    slow = json.loads(json.dumps(BENCH))
    slow["experiments"]["E1"]["batched_seconds"] = 5.0
    assert compare_bench(slow, BENCH).ok
    gated = compare_bench(slow, BENCH, time_tolerance=0.25)
    assert [b.metric for b in gated.breaches] == ["batched_seconds"]


def test_check_bench_requires_baseline_and_inputs(tmp_path):
    fresh = tmp_path / "BENCH_engine.json"
    fresh.write_text(json.dumps(BENCH))
    missing = check_bench([fresh], tmp_path / "nowhere")
    assert not missing.ok
    assert missing.breaches[0].metric == "baseline"
    assert not check_bench([], tmp_path).ok

    baselines = tmp_path / "baselines"
    baselines.mkdir()
    (baselines / "BENCH_engine_smoke.json").write_text(json.dumps(BENCH))
    assert check_bench([fresh], baselines).ok


def test_benchmark_reporting_emits_typed_json(tmp_path, monkeypatch):
    import importlib.util
    import pathlib

    def fresh_session():
        spec = importlib.util.spec_from_file_location(
            "bench_reporting",
            pathlib.Path(__file__).parent.parent / "benchmarks"
            / "reporting.py",
        )
        reporting = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(reporting)
        monkeypatch.setattr(reporting, "RESULTS_DIR", str(tmp_path))
        return reporting

    reporting = fresh_session()
    reporting.record_table("E9", "demo", ("n", "rounds", "speedup"),
                           [(8, 100, 2.5), (12, 150, 3.0)])
    reporting.record_table("E9", "more", ("k",), [("x",)])
    reporting.record_table("E1", "other", ("k",), [("y",)])
    assert (tmp_path / "e9.txt").exists()
    data = json.loads((tmp_path / "e9.json").read_text())
    assert data["experiment"] == "E9"
    assert [t["title"] for t in data["tables"]] == ["demo", "more"]
    rows = data["tables"][0]["rows"]
    assert rows == [[8, 100, 2.5], [12, 150, 3.0]]
    assert isinstance(rows[0][0], int) and isinstance(rows[0][2], float)

    # A later run of one experiment rewrites only that experiment's files.
    other = (tmp_path / "e1.txt").read_text()
    fresh_session().record_table("E9", "again", ("k",), [("z",)])
    data = json.loads((tmp_path / "e9.json").read_text())
    assert [t["title"] for t in data["tables"]] == ["again"]
    assert (tmp_path / "e9.txt").read_text().startswith("== again ==")
    assert (tmp_path / "e1.txt").read_text() == other
    assert (tmp_path / "e1.json").exists()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_record_report_list_show_diff(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    base = ["check", "--graph", "cycle:8", "--congest", "--d", "4",
            "--catalog", "triangle-free", "--record"]
    assert cli_main(base) == 0
    assert cli_main(base) == 0
    assert cli_main(["report", "list"]) == 0
    listing = capsys.readouterr().out.strip().splitlines()
    runs = [line for line in listing if "decide" in line]
    assert len(runs) == 2
    run_id = runs[0].split()[0]

    assert cli_main(["report", "show", run_id]) == 0
    assert "## Metrics" in capsys.readouterr().out
    out_html = tmp_path / "run.html"
    assert cli_main(["report", "show", "latest", "--format", "html",
                     "--out", str(out_html)]) == 0
    assert out_html.read_text().startswith("<!DOCTYPE html>")
    capsys.readouterr()  # drop the "report ... -> PATH" confirmation

    assert cli_main(["report", "diff", run_id, "latest"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["report", "diff", run_id, "latest"]) == 0
    assert capsys.readouterr().out == first  # byte-deterministic


def test_cli_report_diff_exits_one_on_breach(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    for spec, d in (("cycle:8", "4"), ("cycle:16", "6")):
        assert cli_main(["check", "--graph", spec, "--congest", "--d", d,
                         "--catalog", "triangle-free", "--record"]) == 0
    store = RunStore(tmp_path)
    small, big = [r.run_id for r in store.list()]
    assert cli_main(["report", "diff", small, big]) == 1
    assert "threshold breaches" in capsys.readouterr().out
    assert cli_main(["report", "diff", small, big,
                     "--tolerance", "rounds=100",
                     "--tolerance", "messages=100",
                     "--tolerance", "bits=100",
                     "--tolerance", "max_message_bits=100"]) == 0


def test_cli_bench_check_pass_and_fail(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    baselines = tmp_path / "baselines"
    baselines.mkdir()
    (baselines / "BENCH_engine_smoke.json").write_text(json.dumps(BENCH))
    fresh = tmp_path / "BENCH_engine.json"
    fresh.write_text(json.dumps(BENCH))
    assert cli_main(["bench", "check", "--baselines", str(baselines)]) == 0
    assert "bench check: ok" in capsys.readouterr().out

    slow = json.loads(json.dumps(BENCH))
    slow["experiments"]["E1"]["minimized_speedup"] = 0.4
    fresh.write_text(json.dumps(slow))
    assert cli_main(["bench", "check", "--baselines", str(baselines)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_metrics_env_writes_prometheus(tmp_path, capsys, monkeypatch):
    target = tmp_path / "metrics.prom"
    monkeypatch.setenv("REPRO_METRICS", str(target))
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert cli_main(["check", "--graph", "cycle:8", "--congest", "--d", "4",
                     "--catalog", "triangle-free"]) == 0
    text = target.read_text()
    assert "# TYPE repro_simulations_total counter" in text
    assert "repro_simulations_total " in text
