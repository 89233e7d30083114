"""Tests for the lint v2 interprocedural layer: RL006–RL009 and friends.

Covers the bit-width certifier (RL006), the round-bound rule (RL007),
nondeterminism taint (RL008), the static-vs-observed conformance gate
(RL009 / ``--verify-runs``), interprocedural noqa semantics, unused-noqa
detection, SARIF output, and the astutils regressions (walrus-bound
inboxes, ``match`` captures, decorated nested functions).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import Session
from repro.graph import generators as gen
from repro.lint import (
    RULES,
    Width,
    certify_program,
    check_program,
    check_source,
    find_unused_noqa,
    to_sarif,
    verify_runs,
)
from repro.lint.analyzer import _expanded, discover_programs
from repro.lint.astutils import ModuleInfo
from repro.lint.conformance import BoundExprError, eval_bound_expr
from repro.mso import formulas

REPO = Path(__file__).resolve().parent.parent
DISTRIBUTED = REPO / "src" / "repro" / "distributed"


def codes(findings):
    return {f.code for f in findings}


def lint_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        cwd=cwd or str(REPO),
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )


# -- the headline acceptance criterion --------------------------------------

def all_distributed_bounds():
    bounds = []
    for path in sorted(DISTRIBUTED.glob("*.py")):
        info = ModuleInfo.from_source(path.read_text(), str(path))
        for program in discover_programs(info):
            bound = certify_program(_expanded(program))
            if bound is not None:
                bounds.append((path.name, bound))
    return bounds


def test_every_distributed_program_certifies_log_n_family():
    bounds = all_distributed_bounds()
    assert len(bounds) >= 7
    for name, bound in bounds:
        assert not bound.width.top, f"{name}:{bound.qualname} is unbounded"
        assert bound.width.family() in ("O(1)", "O(log n)"), (
            f"{name}:{bound.qualname} certifies {bound.width.family()}"
        )
        assert bound.certified, f"{name}:{bound.qualname} exceeds declaration"


#: The certified payload widths of the three table convergecasts.  Only a
#: ⊤ width is an RL006 finding, so a silent widening would pass lint; any
#: change here must be a tightening.
TABLE_WIDTHS = {
    "counting.py": Width(const=31, logn=1),
    "optimization.py": Width(const=28, logn=3, msg=1),
    "marked.py": Width(const=30, logn=3, msg=1),
}


def test_table_convergecast_widths_are_pinned():
    widths = {
        name: bound.width for name, bound in all_distributed_bounds()
        if name in TABLE_WIDTHS
    }
    assert widths == TABLE_WIDTHS


def test_distributed_tree_is_clean_with_no_rl006_suppressions():
    for path in sorted(DISTRIBUTED.rglob("*.py")):
        source = path.read_text()
        info = ModuleInfo.from_source(source, str(path))
        for line, suppressed in info.noqa.items():
            assert "RL006" not in suppressed and "*" not in suppressed, (
                f"{path}:{line} suppresses the bit-budget certifier"
            )
        assert check_source(source, str(path)) == []


# -- the Width abstract domain ----------------------------------------------

def test_width_family_ranking_and_evaluation():
    assert Width(const=5).family() == "O(1)"
    assert Width(logn=2, const=3).family() == "O(log n)"
    assert Width(dlogn=1).family() == "O(d log n)"
    assert Width(top=True).family() == "⊤"
    # One logn unit at n=256 is 3 + 8 bits.
    assert Width(logn=1).evaluate(256, 3, 48) == 11
    assert Width(const=7).evaluate(10**6, 3, 48) == 7
    assert Width(msg=1).evaluate(100, 3, 48) == 48


def test_width_join_and_plus():
    a, b = Width(logn=1, const=4), Width(logn=2, d=1)
    assert a.join(b) == Width(logn=2, d=1, const=4)
    assert a.plus(b) == Width(logn=3, d=1, const=4)
    assert a.join(Width(top=True)).top


# -- RL006 bit budget -------------------------------------------------------

BOUNDED_PROGRAM = """
from repro.congest import NodeContext, node_program

@node_program
def program(ctx: NodeContext):
    inbox = yield
    total = sum(inbox.values()) if inbox else 0
    ctx.send_all(("sum", total, ctx.node))
    yield
    return total
"""


def test_rl006_silent_on_bounded_payloads():
    assert "RL006" not in codes(check_source(BOUNDED_PROGRAM))


def test_rl006_flags_declared_budget_violation():
    source = BOUNDED_PROGRAM.replace(
        "@node_program", '@node_program(bits="O(1)")'
    )
    findings = [f for f in check_source(source) if f.code == "RL006"]
    assert findings, "O(log n) payload must exceed a declared O(1) budget"
    assert "O(1)" in findings[0].message


def test_rl006_only_fires_on_declared_programs():
    source = BOUNDED_PROGRAM.replace(
        'ctx.send_all(("sum", total, ctx.node))',
        "acc = ()\n"
        "    for v in sorted(inbox):\n"
        "        acc = acc + (v,)\n"
        "    ctx.send_all(acc)",
    )
    assert "RL006" in codes(check_source(source))
    undecorated = source.replace("@node_program\n", "")
    assert "RL006" not in codes(check_source(undecorated))


def test_rl006_sees_through_helper_calls():
    source = """
from repro.congest import NodeContext, node_program

def blob(ctx):
    acc = ()
    for nb in sorted(ctx.neighbors):
        acc = acc + (nb, nb)
    return acc

@node_program
def program(ctx: NodeContext):
    ctx.send_all(("blob", blob(ctx)))
    yield
    return None
"""
    findings = [f for f in check_source(source) if f.code == "RL006"]
    assert findings, "unbounded width built in a helper must be caught"


def test_rl006_charges_helpers_behind_absolute_imports(monkeypatch):
    # A script outside the package finds ``repro`` on sys.path, as the
    # interpreter would; the same program inside the package imports
    # the helper relatively.  Both are charged the helper's sends.
    monkeypatch.syspath_prepend(str(REPO / "src"))
    fixture = REPO / "tests" / "lint_fixtures" / "rl006_absolute_import.py"
    source = fixture.read_text()
    relative = source.replace("from repro.congest", "from ..congest")
    widths = []
    for text, path in ((source, fixture),
                       (relative, DISTRIBUTED / "leader_fixture.py")):
        (program,) = discover_programs(ModuleInfo.from_source(text, str(path)))
        widths.append(certify_program(_expanded(program)).width)
    assert widths[0] == widths[1]
    assert widths[0].evaluate(n=1024, d=3, budget=48) == 76


def test_rl006_charges_each_field_of_an_unpacked_tuple_once():
    # Unpacking ``for cid, w in entries`` gives each name its own field's
    # width, so building the pairs first certifies what sending them
    # straight from the inbox does.
    fixture = REPO / "tests" / "lint_fixtures" / "rl006_unpacked_tuple.py"
    source = fixture.read_text()
    direct = source.replace(
        "    entries = [(codec.encode(s), w) for s, w in inbox.items()]\n"
        "    for cid, w in entries:\n"
        "        ctx.send(parent, (\"opt\", (cid, w)))\n",
        "    for s, w in inbox.items():\n"
        "        ctx.send(parent, (\"opt\", (codec.encode(s), w)))\n",
    )
    assert direct != source
    widths = []
    for text in (source, direct):
        (program,) = discover_programs(ModuleInfo.from_source(text, str(fixture)))
        widths.append(certify_program(_expanded(program)).width)
    assert widths[0] == widths[1] == Width(const=16, logn=1, msg=1)


# -- interprocedural findings and noqa --------------------------------------

HELPER_VIOLATION = """
from repro.congest import NodeContext, node_program

def announce(ctx, weights):
    ctx.send_all(("w", weights))


@node_program
def program(ctx: NodeContext):
    weights = [1, 2, 3]
    announce(ctx, weights)
    yield
    return None
"""


def test_helper_finding_carries_callsite_and_origin():
    findings = [f for f in check_source(HELPER_VIOLATION) if f.code == "RL004"]
    assert findings
    f = findings[0]
    assert "in inlined helper 'announce'" in f.message
    assert f.callsites, "an inlined finding must record its call site"
    assert "via call at line" in f.format()


def test_noqa_at_helper_definition_suppresses():
    source = HELPER_VIOLATION.replace(
        'ctx.send_all(("w", weights))',
        'ctx.send_all(("w", weights))  # repro: noqa[RL004]',
    )
    assert "RL004" not in codes(check_source(source))


def test_noqa_at_call_site_suppresses():
    source = HELPER_VIOLATION.replace(
        "    announce(ctx, weights)",
        "    announce(ctx, weights)  # repro: noqa[RL004]",
    )
    assert "RL004" not in codes(check_source(source))


def test_find_unused_noqa(tmp_path):
    used = HELPER_VIOLATION.replace(
        "    announce(ctx, weights)",
        "    announce(ctx, weights)  # repro: noqa[RL004]",
    )
    target = tmp_path / "mod.py"
    content = (
        used + "\n\nTABLE = {}  # repro: noqa[RL003]\nX = 1  # repro: noqa\n"
    )
    target.write_text(content)
    lines = content.splitlines()
    table_line = lines.index("TABLE = {}  # repro: noqa[RL003]") + 1
    unused = find_unused_noqa([str(target)])
    assert [(u.line, u.code) for u in unused] == [
        (table_line, "RL003"),
        (table_line + 1, "*"),
    ]
    assert "unused suppression" in unused[0].format()


# -- RL007 / RL008 ----------------------------------------------------------

def test_rl007_flags_exitless_send_loop():
    source = """
from repro.congest import NodeContext, node_program

@node_program
def program(ctx: NodeContext):
    while True:
        ctx.send_all(("ping", 1))
        yield
"""
    assert "RL007" in codes(check_source(source))


def test_rl008_catches_two_hop_order_chain_and_clock():
    source = """
import time
from repro.congest import NodeContext, node_program

@node_program
def program(ctx: NodeContext):
    inbox = yield
    first = list(inbox)
    relay = first
    stamp = time.monotonic()
    ctx.send_all(("pick", relay[0]))
    yield
    return stamp
"""
    findings = [f for f in check_source(source) if f.code == "RL008"]
    messages = " / ".join(f.message for f in findings)
    assert "relay" in messages
    assert "time.monotonic" in messages


def test_rl008_silent_on_cleansed_chain():
    source = """
from repro.congest import NodeContext, node_program

@node_program
def program(ctx: NodeContext):
    inbox = yield
    first = sorted(inbox)
    relay = first
    ctx.send_all(("pick", relay[0]))
    yield
    return None
"""
    assert "RL008" not in codes(check_source(source))


# -- astutils regressions ---------------------------------------------------

def test_walrus_bound_inbox_is_recognized():
    source = """
from repro.congest import NodeContext, node_program

@node_program
def program(ctx: NodeContext):
    while (inbox := (yield)) is not None:
        ctx.send_all(("order", list(inbox)[0]))
        break
    yield
    return None
"""
    assert "RL002" in codes(check_source(source))


def test_match_capture_names_are_bound_not_global_reads():
    source = """
from repro.congest import NodeContext, node_program

@node_program
def program(ctx: NodeContext):
    inbox = yield
    msg = inbox.get(0)
    match msg:
        case ("tag", value):
            ctx.send_all(("fwd", value))
        case [head, *rest]:
            ctx.send_all(("list", head, len(rest)))
        case {"k": v, **extra}:
            ctx.send_all(("map", v, len(extra)))
    yield
    return None
"""
    assert "RL001" not in codes(check_source(source))


def test_decorator_expressions_of_nested_functions_are_scanned():
    source = """
import time
from repro.congest import NodeContext, node_program

def deco(_stamp):
    def wrap(fn):
        return fn
    return wrap


@node_program
def program(ctx: NodeContext):
    @deco(time.monotonic())
    def helper():
        return 1
    ctx.send_all(("h", helper()))
    yield
    return None
"""
    findings = [f for f in check_source(source) if f.code == "RL008"]
    assert any("time.monotonic" in f.message for f in findings)


# -- check_program on methods and alias registrations -----------------------

def test_check_program_on_alias_registered_program(tmp_path, monkeypatch):
    target = tmp_path / "aliased_mod.py"
    target.write_text(
        """
from repro.congest import NodeContext, node_program

@node_program
def program(ctx: NodeContext):
    inbox = yield
    ctx.send_all(("pick", list(inbox)[0]))
    yield
    return None
"""
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    import aliased_mod

    findings = check_program(aliased_mod.program)
    assert "RL002" in codes(findings)
    assert all(f.program == "program" for f in findings)


def test_class_methods_are_not_node_programs(tmp_path, monkeypatch):
    source = """
from repro.congest import NodeContext, node_program

class Proto:
    @node_program
    def run(self, ctx: NodeContext):
        inbox = yield
        ctx.send_all(("pick", list(inbox)[0]))
        yield
        return None
"""
    assert check_source(source) == []
    target = tmp_path / "method_mod.py"
    target.write_text(source)
    monkeypatch.syspath_prepend(str(tmp_path))
    import method_mod

    assert check_program(method_mod.Proto.run) == []


# -- RL009: eval_bound_expr -------------------------------------------------

def test_eval_bound_expr():
    assert eval_bound_expr("200 + 40*4**d + 4*n", n=9, d=2) == 876
    assert eval_bound_expr("10", n=1, d=1) == 10
    with pytest.raises(BoundExprError):
        eval_bound_expr("n + m", n=1, d=1)
    with pytest.raises(BoundExprError):
        eval_bound_expr("__import__('os')", n=1, d=1)
    with pytest.raises(BoundExprError):
        eval_bound_expr("2**1000", n=1, d=1)


# -- RL009: verify_runs end to end ------------------------------------------

@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("runs")
    result = Session(gen.grid(3, 3), d=4, record=str(store_dir)).decide(
        formulas.triangle_free()
    )
    assert result.verdict is True
    return store_dir


def test_verify_runs_passes_on_fresh_run(recorded_run):
    outcome = verify_runs(str(recorded_run))
    assert outcome.ok
    assert outcome.checked == 1
    assert outcome.skipped == 0


def _doctor(store_dir, tmp_path, **metric_overrides):
    lines = (store_dir / "runs.jsonl").read_text().splitlines()
    record = json.loads(lines[-1])
    record["metrics"].update(metric_overrides)
    record["run_id"] = "doctored" + record["run_id"][8:]
    doctored = tmp_path / "doctored"
    doctored.mkdir()
    (doctored / "runs.jsonl").write_text(json.dumps(record) + "\n")
    return doctored


def test_verify_runs_fails_on_inflated_bits(recorded_run, tmp_path):
    doctored = _doctor(recorded_run, tmp_path, max_message_bits=10**6)
    outcome = verify_runs(str(doctored))
    assert not outcome.ok
    assert any("max_payload_bits" in f.message for f in outcome.findings)
    assert all(f.code == "RL009" for f in outcome.findings)


def test_verify_runs_fails_on_inflated_rounds(recorded_run, tmp_path):
    doctored = _doctor(recorded_run, tmp_path, rounds=10**9)
    outcome = verify_runs(str(doctored))
    assert not outcome.ok
    assert any("rounds" in f.message for f in outcome.findings)


def test_verify_runs_skips_unmapped_and_faulty_workloads(tmp_path):
    from repro.faults import FaultPlan, RetryPolicy

    store_dir = tmp_path / "certify-runs"
    session = Session(gen.grid(2, 2), d=3, record=str(store_dir))
    session.certify(formulas.triangle_free())
    outcome = verify_runs(str(store_dir))
    assert outcome.checked == 0
    assert outcome.skipped == 1

    faulty_dir = tmp_path / "faulty-runs"
    plan = FaultPlan(seed=3, drop_rate=0.2)
    Session(
        gen.grid(2, 2), d=3, faults=plan, retry=RetryPolicy(attempts=5),
        record=str(faulty_dir),
    ).decide(formulas.triangle_free())
    faulty = verify_runs(str(faulty_dir))
    assert faulty.checked == 0
    assert faulty.skipped == 1


# -- SARIF ------------------------------------------------------------------

def test_to_sarif_shape():
    findings = check_source(HELPER_VIOLATION, path="src/mod.py")
    meta = {
        code: {"name": rule.name, "summary": rule.summary}
        for code, rule in RULES.items()
    }
    doc = to_sarif(findings, meta)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    # Only rules that actually fired are listed.
    rules = run["tool"]["driver"]["rules"]
    assert [r["id"] for r in rules] == ["RL004"]
    assert rules[0]["name"] == "payload-typing"
    result = run["results"][0]
    assert result["ruleId"] == "RL004"
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/mod.py"
    assert location["region"]["startLine"] > 0


# -- CLI --------------------------------------------------------------------

def test_cli_list_rules_includes_rl009():
    proc = lint_cli("--list-rules")
    assert proc.returncode == 0
    assert "RL009" in proc.stdout
    assert "static-vs-observed" in proc.stdout


def test_cli_sarif_output_is_json():
    proc = lint_cli("--format", "sarif", "tests/lint_fixtures/rl004_bad.py")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["results"]


def test_cli_show_unused_noqa(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("X = 1  # repro: noqa[RL004]\n")
    proc = lint_cli("--show-unused-noqa", str(target))
    assert proc.returncode == 1
    assert "unused suppression" in proc.stdout
    clean = tmp_path / "clean.py"
    clean.write_text("X = 1\n")
    assert lint_cli("--show-unused-noqa", str(clean)).returncode == 0


def test_cli_verify_runs(recorded_run, tmp_path):
    proc = lint_cli("--verify-runs", str(recorded_run))
    assert proc.returncode == 0
    assert "verified 1 run report(s)" in proc.stdout
    doctored = _doctor(recorded_run, tmp_path, max_message_bits=10**6)
    proc = lint_cli("--verify-runs", str(doctored))
    assert proc.returncode == 1
    assert "RL009" in proc.stdout
