"""Tests for the repro.lint CONGEST-conformance analyzer."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.distributed.elimination import elimination_tree_program
from repro.lint import (
    RULES,
    LintError,
    check_module,
    check_paths,
    check_program,
    check_source,
    discover_programs,
    is_node_program,
)
from repro.lint.astutils import ModuleInfo

FIXTURES = Path(__file__).parent / "lint_fixtures"
PROTOCOL_PATHS = [
    "src/repro/distributed",
    "src/repro/congest/primitives.py",
    "src/repro/certification",
]


# -- golden fixtures: one bad + one near-miss per rule -----------------------

@pytest.mark.parametrize("code", sorted(RULES))
def test_bad_fixture_trips_only_its_rule(code):
    findings = check_module(str(FIXTURES / f"{code.lower()}_bad.py"))
    assert findings, f"{code} bad fixture produced no findings"
    assert {f.code for f in findings} == {code}


@pytest.mark.parametrize("code", sorted(RULES))
def test_near_miss_fixture_is_clean(code):
    assert check_module(str(FIXTURES / f"{code.lower()}_ok.py")) == []


def test_rl001_catches_each_locality_channel():
    findings = check_module(str(FIXTURES / "rl001_bad.py"))
    messages = "\n".join(f.message for f in findings)
    assert "captured from an enclosing scope" in messages
    assert "module-level mutable state" in messages
    assert "module-level Graph" in messages
    assert "ctx._simulation" in messages
    assert "global TOTAL" in messages
    assert "parameter 'graph' is a Graph" in messages


def test_rl002_catches_each_nondeterminism_channel():
    findings = check_module(str(FIXTURES / "rl002_bad.py"))
    messages = "\n".join(f.message for f in findings)
    assert "random.randrange" in messages
    assert "hash()" in messages
    assert "was built from an unordered collection" in messages
    assert "keeps the last matching element" in messages


def test_rl003_catches_each_round_structure_channel():
    findings = check_module(str(FIXTURES / "rl003_bad.py"))
    messages = "\n".join(f.message for f in findings)
    assert "inside a loop that never yields" in messages
    assert "second send to the same neighbor" in messages
    assert "no reachable yield afterwards" in messages


def test_rl004_reports_payload_paths():
    findings = check_module(str(FIXTURES / "rl004_bad.py"))
    messages = [f.message for f in findings]
    assert any(m.startswith("payload[1]: 'weights' is a list") for m in messages)
    assert any(m.startswith("payload[0]: float") for m in messages)
    assert any(m.startswith("payload[1]: dict") for m in messages)
    assert any("true division" in m for m in messages)


# -- noqa suppressions -------------------------------------------------------

BAD_SEND = """
from repro.congest import NodeContext, node_program

@node_program
def program(ctx: NodeContext):
    ctx.send_all([1, 2]){noqa}
    yield
    return None
"""


def test_noqa_with_code_suppresses():
    noisy = check_source(BAD_SEND.format(noqa=""))
    assert [f.code for f in noisy] == ["RL004"]
    assert check_source(BAD_SEND.format(noqa="  # repro: noqa[RL004]")) == []


def test_bare_noqa_suppresses_everything():
    assert check_source(BAD_SEND.format(noqa="  # repro: noqa")) == []


def test_noqa_for_other_rule_does_not_suppress():
    findings = check_source(BAD_SEND.format(noqa="  # repro: noqa[RL001]"))
    assert [f.code for f in findings] == ["RL004"]


def test_noqa_is_line_scoped():
    src = BAD_SEND.format(noqa="") + "\n# repro: noqa\n"
    assert [f.code for f in check_source(src)] == ["RL004"]


# -- program discovery -------------------------------------------------------

def test_discovery_finds_decorated_and_generator_programs():
    src = (
        "from repro.congest import NodeContext, node_program\n"
        "@node_program\n"
        "def a(ctx):\n"
        "    return 1\n"
        "def b(ctx: NodeContext):\n"
        "    yield\n"
        "    return 2\n"
        "def helper(x):\n"
        "    yield x\n"
        "def factory():\n"
        "    def inner(ctx):\n"
        "        yield\n"
        "    return inner\n"
        "class C:\n"
        "    def method(self, ctx):\n"
        "        yield\n"
    )
    module = ModuleInfo.from_source(src, "<test>")
    names = {p.qualname for p in discover_programs(module)}
    assert names == {"a", "b", "factory.<locals>.inner"}


def test_is_node_program_rejects_plain_functions():
    import ast

    tree = ast.parse("def f(x):\n    return x\n")
    assert not is_node_program(tree.body[0])


# -- the real tree is lint-clean --------------------------------------------

def test_protocol_modules_lint_clean():
    assert check_paths(PROTOCOL_PATHS) == []


def test_check_program_on_live_function():
    assert check_program(elimination_tree_program) == []


def test_check_program_flags_bad_fixture_function():
    spec = importlib.util.spec_from_file_location(
        "rl004_bad_fixture", FIXTURES / "rl004_bad.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    findings = check_program(module.program)
    assert findings and {f.code for f in findings} == {"RL004"}


def test_select_and_unknown_rule():
    findings = check_module(
        str(FIXTURES / "rl003_bad.py"), select=["RL004"]
    )
    assert findings == []
    with pytest.raises(LintError):
        check_module(str(FIXTURES / "rl003_bad.py"), select=["RL999"])


# -- CLI ---------------------------------------------------------------------

def test_cli_lint_exit_codes(capsys):
    assert cli_main(["lint", *PROTOCOL_PATHS]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out
    assert cli_main(["lint", str(FIXTURES / "rl002_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "RL002" in out


def test_cli_lint_json(capsys):
    code = cli_main(["lint", "--format", "json", str(FIXTURES / "rl004_bad.py")])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == len(payload["findings"]) > 0
    assert all(f["code"] == "RL004" for f in payload["findings"])


def test_cli_lint_select_and_list_rules(capsys):
    assert cli_main(["lint", "--select", "RL004",
                     str(FIXTURES / "rl003_bad.py")]) == 0
    capsys.readouterr()
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in RULES:
        assert code in out


def test_cli_lint_missing_path(capsys):
    assert cli_main(["lint", "tests/lint_fixtures/does_not_exist.py"]) == 2
