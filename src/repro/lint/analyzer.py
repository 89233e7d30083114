"""Program discovery and the programmatic lint entry points.

The analyzer is purely static: it parses source text, finds node
programs (``@node_program``-decorated functions, or generator functions
taking a ``ctx`` / ``NodeContext`` parameter), and runs every registered
rule over each.  ``# repro: noqa[RL00x]`` comments on the offending line
suppress findings; a bare ``# repro: noqa`` suppresses all rules.
"""

from __future__ import annotations

import ast
import inspect
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import CongestError
from .astutils import ModuleInfo, ProgramInfo, contains_yield, _annotation_names
from .findings import Finding
from .rules import RULES


class LintError(CongestError):
    """Raised when a path cannot be analyzed (missing, unparseable)."""


def _decorator_names(func: ast.FunctionDef) -> Set[str]:
    names: Set[str] = set()
    for dec in func.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


def _takes_ctx(func: ast.FunctionDef) -> bool:
    args = func.args
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        if arg.arg == "ctx" or "NodeContext" in _annotation_names(arg.annotation):
            return True
    return False


def is_node_program(func: ast.AST) -> bool:
    """Syntactic test: is this function definition a node program?"""
    if not isinstance(func, ast.FunctionDef):
        return False
    if "node_program" in _decorator_names(func):
        return True
    return contains_yield(func) and _takes_ctx(func)


def discover_programs(module: ModuleInfo) -> List[ProgramInfo]:
    """All node programs in a module, with factory-closure qualnames."""
    programs: List[ProgramInfo] = []

    def visit(node: ast.AST, stack: List[ast.FunctionDef], qual: List[str]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                # Methods are not node programs; don't descend.
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                parts = qual + (
                    ["<locals>", child.name] if stack else [child.name]
                )
                if is_node_program(child):
                    programs.append(
                        ProgramInfo(
                            module=module,
                            node=child,
                            qualname=".".join(parts),
                            enclosing=list(stack),
                        )
                    )
                if isinstance(child, ast.FunctionDef):
                    visit(child, stack + [child], parts)
                continue
            visit(child, stack, qual)

    visit(module.tree, [], [])
    return programs


def _selected_rules(select: Optional[Sequence[str]]):
    if select is None:
        return list(RULES.values())
    wanted = {code.upper() for code in select}
    unknown = wanted - set(RULES)
    if unknown:
        raise LintError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    return [RULES[code] for code in sorted(wanted)]


_INLINE_SUFFIX_RE = re.compile(r" \(in inlined helper '[^']+'\)$")


def _expanded(program: ProgramInfo) -> ProgramInfo:
    """The program with project-local helper calls inlined (best effort)."""
    from .callgraph import expand_program

    try:
        node = expand_program(program)
    except RecursionError:
        node = None
    if node is None:
        return program
    return ProgramInfo(
        module=program.module,
        node=node,
        qualname=program.qualname,
        enclosing=program.enclosing,
    )


def _dedupe_key(finding: Finding) -> Tuple[str, int, int, str, str]:
    # A helper that is itself a discoverable program produces the same
    # finding standalone and inlined into its callers; the inlined copy
    # only differs by the "(in inlined helper ...)" suffix.
    base = _INLINE_SUFFIX_RE.sub("", finding.message)
    return (finding.path, finding.line, finding.col, finding.code, base)


def _suppressed(module: ModuleInfo, finding: Finding) -> bool:
    """noqa applies at the finding's line *or* at any inlining call site."""
    if module.suppressed(finding.line, finding.code):
        return True
    return any(
        module.suppressed(line, finding.code) for line in finding.callsites
    )


def _raw_findings(
    module: ModuleInfo, select: Optional[Sequence[str]] = None
) -> List[Finding]:
    """All findings for a module, deduplicated but not noqa-filtered."""
    findings: List[Finding] = []
    seen: Set[Tuple[str, int, int, str, str]] = set()
    for program in discover_programs(module):
        target = _expanded(program)
        for rule in _selected_rules(select):
            for finding in rule.check(target):
                key = _dedupe_key(finding)
                if key not in seen:
                    seen.add(key)
                    findings.append(finding)
    return findings


def check_source(
    source: str,
    path: str = "<string>",
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint source text; findings are sorted and noqa-filtered."""
    try:
        module = ModuleInfo.from_source(source, path)
    except SyntaxError as exc:
        raise LintError(f"{path}: cannot parse: {exc}") from exc
    findings = [
        f for f in _raw_findings(module, select) if not _suppressed(module, f)
    ]
    return sorted(findings, key=lambda f: f.sort_key)


def check_module(
    path: str, select: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint one ``.py`` file."""
    try:
        source = Path(path).read_text()
    except OSError as exc:
        raise LintError(f"{path}: cannot read: {exc}") from exc
    return check_source(source, path=str(path), select=select)


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(str(p) for p in sorted(path.rglob("*.py")))
        elif path.suffix == ".py" or path.is_file():
            out.append(str(path))
        else:
            raise LintError(f"{raw}: not a file or directory")
    seen: Set[str] = set()
    unique = []
    for p in out:
        key = os.path.normpath(p)
        if key not in seen:
            seen.add(key)
            unique.append(p)
    return unique


def check_paths(
    paths: Iterable[str], select: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(check_module(path, select=select))
    return sorted(findings, key=lambda f: f.sort_key)


@dataclass(frozen=True)
class UnusedNoqa:
    """A ``# repro: noqa`` comment that suppresses nothing."""

    path: str
    line: int
    code: str  # "*" for a bare noqa

    def format(self) -> str:
        label = "noqa" if self.code == "*" else f"noqa[{self.code}]"
        return (
            f"{self.path}:{self.line}: unused suppression: # repro: {label} "
            "matches no finding"
        )


def find_unused_noqa(paths: Iterable[str]) -> List[UnusedNoqa]:
    """Suppression comments that no longer suppress any finding.

    A suppression counts as *used* when some raw (pre-noqa) finding is
    anchored at its line — either directly or through an interprocedural
    call-site chain.  Codes the analyzer does not register (e.g. RL009,
    which only fires from ``--verify-runs``) are never counted as used.
    """
    out: List[UnusedNoqa] = []
    for path in iter_python_files(paths):
        try:
            source = Path(path).read_text()
        except OSError as exc:
            raise LintError(f"{path}: cannot read: {exc}") from exc
        try:
            module = ModuleInfo.from_source(source, str(path))
        except SyntaxError as exc:
            raise LintError(f"{path}: cannot parse: {exc}") from exc
        if not module.noqa:
            continue
        hit: dict = {}
        for finding in _raw_findings(module):
            for line in (finding.line, *finding.callsites):
                hit.setdefault(line, set()).add(finding.code)
        for line, codes in sorted(module.noqa.items()):
            found = hit.get(line, set())
            if "*" in codes:
                if not found:
                    out.append(UnusedNoqa(str(path), line, "*"))
                continue
            for code in sorted(codes):
                if code not in found:
                    out.append(UnusedNoqa(str(path), line, code))
    return sorted(out, key=lambda u: (u.path, u.line, u.code))


def check_program(
    func: Callable, select: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint one live function object (resolved back to its source file)."""
    target = inspect.unwrap(func)
    try:
        path = inspect.getsourcefile(target)
    except TypeError:
        path = None
    if path is None:
        raise LintError(f"{func!r}: source file not found")
    qualname = target.__qualname__
    return [
        f for f in check_module(path, select=select) if f.program == qualname
    ]
