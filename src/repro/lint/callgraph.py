"""Call-graph resolution and bounded inlining for interprocedural lint.

Two facilities live here:

* :class:`HelperResolver` maps a called name to the ``ast.FunctionDef``
  that defines it — program-nested helpers first, then module-level
  functions, then (best effort, still purely syntactic) functions
  imported from sibling modules of the same project.  The resolver never
  imports anything: cross-module edges are followed by resolving the
  ``from ..congest import leader_election`` statement to a file path and
  parsing that file.

* :func:`expand_program` produces a deep copy of a node program in which
  *statement-level* calls to same-module helpers are inlined (bounded
  depth, cycle-safe), so the purely intraprocedural rules RL001–RL004
  see through calls instead of stopping at function boundaries.  Inlined
  statements keep the helper's original line numbers (findings point
  into the helper, and helper-line ``noqa`` comments keep working) and
  additionally carry an ``_inl_callsites`` attribute — the chain of
  call-site line numbers — so a ``noqa`` at the *call site* suppresses
  findings raised inside the helper too.
"""

from __future__ import annotations

import ast
import copy
import itertools
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from .astutils import ModuleInfo, ProgramInfo, bound_names, iter_own

#: How many nested helper calls the inliner follows.
MAX_INLINE_DEPTH = 3

#: How many re-export hops (``from .primitives import x`` chains in
#: package ``__init__`` files) the cross-module resolver follows.
_MAX_REEXPORT_HOPS = 5

_SCOPE_STMTS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass(frozen=True)
class ResolvedHelper:
    """A called name resolved to its definition site."""

    func: ast.FunctionDef
    module: ModuleInfo
    same_module: bool


class ModuleLoader:
    """Parse-and-cache project modules by path (never imports them)."""

    def __init__(self) -> None:
        self._cache: Dict[str, Optional[ModuleInfo]] = {}

    def load(self, path: Path) -> Optional[ModuleInfo]:
        key = str(path)
        if key not in self._cache:
            try:
                source = Path(path).read_text()
                self._cache[key] = ModuleInfo.from_source(source, key)
            except (OSError, SyntaxError, ValueError):
                self._cache[key] = None
        return self._cache[key]


def _module_file(current: Path, level: int, module: Optional[str]) -> Optional[Path]:
    """Resolve an import statement in ``current`` to a project file path.

    ``level`` and ``module`` come straight from ``ast.ImportFrom``.  For
    absolute imports the source root is found by walking up past
    ``__init__.py`` packages; failing that, the ``sys.path`` roots are
    tried in order, as the interpreter would (files only: nothing is
    imported), so a script outside the package that does
    ``from repro.congest import leader_election`` still resolves.
    """
    try:
        current = Path(current).resolve()
    except OSError:
        return None
    base = current.parent
    if level > 0:
        # ``from . import x`` in pkg/mod.py and in pkg/__init__.py both
        # mean package ``pkg`` — which is ``parent`` in both cases.
        for _ in range(level - 1):
            base = base.parent
        return _source_file(base, module)
    while (base / "__init__.py").exists():
        base = base.parent
    roots = [base] + [Path(entry) for entry in sys.path if isinstance(entry, str)]
    for root in roots:
        found = _source_file(root, module)
        if found is not None:
            return found
    return None


def _source_file(base: Path, module: Optional[str]) -> Optional[Path]:
    """The package ``__init__.py`` or module file ``module`` names under ``base``."""
    parts = module.split(".") if module else []
    target = base.joinpath(*parts)
    try:
        if (target / "__init__.py").is_file():
            return target / "__init__.py"
        candidate = target.with_suffix(".py")
        if candidate.is_file():
            return candidate
    except OSError:  # an unreadable sys.path root
        return None
    return None


def _module_functions(module: ModuleInfo) -> Dict[str, ast.FunctionDef]:
    return {
        stmt.name: stmt
        for stmt in module.tree.body
        if isinstance(stmt, ast.FunctionDef)
    }


def _import_map(module: ModuleInfo) -> Dict[str, Tuple[int, Optional[str], str]]:
    """Name -> (level, source module, original name) for from-imports."""
    out: Dict[str, Tuple[int, Optional[str], str]] = {}
    for stmt in module.tree.body:
        if isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                out[alias.asname or alias.name] = (
                    stmt.level, stmt.module, alias.name
                )
    return out


def scope_functions(func: ast.AST) -> Dict[str, ast.FunctionDef]:
    """Function definitions bound directly in ``func``'s own scope."""
    out: Dict[str, ast.FunctionDef] = {}

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(child, ast.FunctionDef):
                    out.setdefault(child.name, child)
                continue
            if isinstance(child, (ast.Lambda, ast.ClassDef)):
                continue
            walk(child)

    walk(func)
    return out


class HelperResolver:
    """Resolve called names to their defining FunctionDef, project-wide."""

    def __init__(
        self,
        module: ModuleInfo,
        program: Optional[ProgramInfo] = None,
        loader: Optional[ModuleLoader] = None,
    ) -> None:
        self.module = module
        self.loader = loader or ModuleLoader()
        self._scopes: List[Dict[str, ast.FunctionDef]] = []
        if program is not None:
            self._scopes.append(scope_functions(program.node))
            for enclosing in reversed(program.enclosing):
                self._scopes.append(scope_functions(enclosing))
        self._module_funcs = _module_functions(module)
        self._imports = _import_map(module)

    def resolve(self, name: str) -> Optional[ResolvedHelper]:
        for scope in self._scopes:
            if name in scope:
                return ResolvedHelper(scope[name], self.module, True)
        if name in self._module_funcs:
            return ResolvedHelper(self._module_funcs[name], self.module, True)
        if name in self._imports:
            level, src, original = self._imports[name]
            return self._resolve_import(self.module, level, src, original, 0)
        return None

    def _resolve_import(
        self,
        module: ModuleInfo,
        level: int,
        src: Optional[str],
        name: str,
        hops: int,
    ) -> Optional[ResolvedHelper]:
        if hops > _MAX_REEXPORT_HOPS or module.path in ("<string>", "<test>"):
            return None
        path = _module_file(Path(module.path), level, src)
        if path is None:
            return None
        target = self.loader.load(path)
        if target is None:
            return None
        funcs = _module_functions(target)
        if name in funcs:
            return ResolvedHelper(funcs[name], target, False)
        # Re-export: chase ``from .primitives import leader_election``.
        imports = _import_map(target)
        if name in imports:
            nlevel, nsrc, original = imports[name]
            return self._resolve_import(target, nlevel, nsrc, original, hops + 1)
        return None


# ---------------------------------------------------------------------------
# Inlining
# ---------------------------------------------------------------------------

class _Renamer(ast.NodeTransformer):
    """Rename bound names of an inlined helper body."""

    def __init__(self, mapping: Dict[str, str]) -> None:
        self.mapping = mapping

    def visit_Name(self, node: ast.Name) -> ast.AST:
        if node.id in self.mapping:
            node.id = self.mapping[node.id]
        return node

    def visit_FunctionDef(self, node: ast.FunctionDef) -> ast.AST:
        if node.name in self.mapping:
            node.name = self.mapping[node.name]
        self.generic_visit(node)
        return node

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> ast.AST:
        if node.name and node.name in self.mapping:
            node.name = self.mapping[node.name]
        self.generic_visit(node)
        return node


class _ReturnToAssign(ast.NodeTransformer):
    """Turn ``return expr`` into ``<ret> = expr`` (own scope only).

    This over-approximates control flow (code after the return looks
    reachable), which is the safe direction for a linter.
    """

    def __init__(self, retname: str) -> None:
        self.retname = retname

    def visit_FunctionDef(self, node):  # do not descend into nested scopes
        return node

    def visit_AsyncFunctionDef(self, node):
        return node

    def visit_Lambda(self, node):
        return node

    def visit_Return(self, node: ast.Return) -> ast.AST:
        value = node.value if node.value is not None else ast.Constant(None)
        assign = ast.Assign(
            targets=[ast.Name(id=self.retname, ctx=ast.Store())], value=value
        )
        return ast.copy_location(assign, node)


def _match_inline_call(stmt: ast.stmt):
    """Match statements of the shapes the inliner handles.

    Returns ``(call, target_name_node)`` for ``f(...)``,
    ``yield from f(...)``, ``x = f(...)``, and ``x = yield from f(...)``
    statement forms where ``f`` is a plain name; ``None`` otherwise.
    """
    target = None
    value = None
    if isinstance(stmt, ast.Expr):
        value = stmt.value
    elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
        stmt.targets[0], ast.Name
    ):
        target, value = stmt.targets[0], stmt.value
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        target, value = stmt.target, stmt.value
    if isinstance(value, ast.YieldFrom):
        value = value.value
    if not isinstance(value, ast.Call) or not isinstance(value.func, ast.Name):
        return None
    call = value
    if any(isinstance(a, ast.Starred) for a in call.args):
        return None
    if any(kw.arg is None for kw in call.keywords):
        return None
    return call, target


def _inlinable(func: ast.FunctionDef) -> bool:
    if func.decorator_list:
        return False
    args = func.args
    if args.vararg or args.kwarg or args.kwonlyargs or args.posonlyargs:
        return False
    for node in iter_own(func):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            return False
    return True


def _bind_arguments(
    call: ast.Call,
    func: ast.FunctionDef,
    prefix: str,
    assigned_params: Set[str],
) -> Optional[Tuple[List[ast.stmt], Dict[str, str]]]:
    """Match call arguments to parameters.

    Returns (pre-assignments, rename map) or None when the call shape
    cannot be matched statically.
    """
    params = [a.arg for a in func.args.args]
    defaults = func.args.defaults
    default_for: Dict[str, ast.AST] = {}
    for param, default in zip(params[len(params) - len(defaults):], defaults):
        default_for[param] = default
    supplied: Dict[str, ast.AST] = {}
    if len(call.args) > len(params):
        return None
    for param, arg in zip(params, call.args):
        supplied[param] = arg
    for kw in call.keywords:
        if kw.arg not in params or kw.arg in supplied:
            return None
        supplied[kw.arg] = kw.value
    pre: List[ast.stmt] = []
    mapping: Dict[str, str] = {}
    for param in params:
        expr = supplied.get(param, default_for.get(param))
        if expr is None:
            return None
        if isinstance(expr, ast.Name) and param not in assigned_params:
            # Pass-through: references to the parameter become references
            # to the caller's variable (crucially keeps ``ctx`` visible).
            mapping[param] = expr.id
        else:
            temp = f"{prefix}{param}"
            mapping[param] = temp
            assign = ast.Assign(
                targets=[ast.Name(id=temp, ctx=ast.Store())],
                value=copy.deepcopy(expr),
            )
            pre.append(ast.copy_location(assign, call))
    return pre, mapping


def _tag(stmts: List[ast.stmt], callsites: Tuple[int, ...], origin: str) -> None:
    for stmt in stmts:
        for node in ast.walk(stmt):
            if not getattr(node, "_inl_callsites", ()):
                node._inl_callsites = callsites
                node._inl_origin = origin


class _Inliner:
    def __init__(self, module: ModuleInfo, program: ProgramInfo) -> None:
        self.module = module
        self.program = program
        self.counter = itertools.count()
        self.changed = False
        self._scopes: List[Dict[str, ast.FunctionDef]] = [
            scope_functions(program.node)
        ]
        for enclosing in reversed(program.enclosing):
            self._scopes.append(scope_functions(enclosing))
        self._module_funcs = _module_functions(module)

    def _resolve_local(
        self, name: str, block_defs: Dict[str, ast.FunctionDef]
    ) -> Optional[ast.FunctionDef]:
        if name in block_defs:
            return block_defs[name]
        for scope in self._scopes:
            if name in scope:
                return scope[name]
        return self._module_funcs.get(name)

    def expand(self, node: ast.AST, depth: int, stack: Tuple[str, ...],
               chain: Tuple[int, ...]) -> None:
        """Process every statement block of ``node``'s own scope."""
        for field, value in ast.iter_fields(node):
            if (
                isinstance(value, list)
                and value
                and all(isinstance(s, ast.stmt) for s in value)
            ):
                new = self._expand_block(value, depth, stack, chain)
                setattr(node, field, new)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, (ast.ExceptHandler, ast.match_case)):
                        self.expand(item, depth, stack, chain)

    def _expand_block(
        self,
        stmts: List[ast.stmt],
        depth: int,
        stack: Tuple[str, ...],
        chain: Tuple[int, ...],
    ) -> List[ast.stmt]:
        out: List[ast.stmt] = []
        block_defs: Dict[str, ast.FunctionDef] = {}
        for stmt in stmts:
            if isinstance(stmt, ast.FunctionDef):
                block_defs[stmt.name] = stmt
            match = None if depth >= MAX_INLINE_DEPTH else _match_inline_call(stmt)
            helper = None
            if match is not None:
                call, target = match
                name = call.func.id
                if name not in stack and name != self.program.node.name:
                    helper = self._resolve_local(name, block_defs)
                    if helper is not None and (
                        helper is self.program.node
                        or not _inlinable(helper)
                    ):
                        helper = None
            spliced = None
            if helper is not None:
                spliced = self._inline_one(
                    call, target, helper, depth, stack, chain
                )
            if spliced is None:
                if not isinstance(stmt, _SCOPE_STMTS):
                    self.expand(stmt, depth, stack, chain)
                out.append(stmt)
                continue
            out.extend(spliced)
            self.changed = True
        return out

    def _inline_one(
        self,
        call: ast.Call,
        target: Optional[ast.Name],
        helper: ast.FunctionDef,
        depth: int,
        stack: Tuple[str, ...],
        chain: Tuple[int, ...],
    ) -> Optional[List[ast.stmt]]:
        k = next(self.counter)
        prefix = f"_inl{k}_"
        params = {a.arg for a in helper.args.args}
        stores = {
            n.id
            for n in iter_own(helper)
            if isinstance(n, ast.Name) and isinstance(n.ctx, (ast.Store, ast.Del))
        }
        bound = _bind_arguments(call, helper, prefix, params & stores)
        if bound is None:
            return None
        pre, mapping = bound
        for name in bound_names(helper):
            if name not in mapping:
                mapping[name] = f"{prefix}{name}"
        retname = f"{prefix}ret"
        body = [copy.deepcopy(s) for s in helper.body]
        renamer = _Renamer(mapping)
        body = [renamer.visit(s) for s in body]
        rewriter = _ReturnToAssign(retname)
        body = [rewriter.visit(s) for s in body]
        init = ast.copy_location(
            ast.Assign(
                targets=[ast.Name(id=retname, ctx=ast.Store())],
                value=ast.Constant(None),
            ),
            call,
        )
        spliced: List[ast.stmt] = pre + [init] + body
        # Recursively inline within the freshly spliced body.
        new_chain = chain + (call.lineno,)
        new_stack = stack + (helper.name,)
        container = ast.Module(body=spliced, type_ignores=[])
        container.body = self._expand_block(
            spliced, depth + 1, new_stack, new_chain
        )
        spliced = container.body
        if target is not None:
            read_ret = ast.copy_location(
                ast.Assign(
                    targets=[ast.Name(id=target.id, ctx=ast.Store())],
                    value=ast.Name(id=retname, ctx=ast.Load()),
                ),
                call,
            )
            spliced.append(read_ret)
        for stmt in spliced:
            ast.fix_missing_locations(stmt)
        _tag(spliced, new_chain, helper.name)
        return spliced


def expand_program(
    program: ProgramInfo, max_depth: int = MAX_INLINE_DEPTH
) -> Optional[ast.FunctionDef]:
    """A deep copy of ``program.node`` with same-module helpers inlined.

    Returns ``None`` when nothing was inlined (callers should keep the
    original, cheaper ProgramInfo).
    """
    node = copy.deepcopy(program.node)
    inliner = _Inliner(program.module, program)
    # The copied node is the root; resolve against the *copy*'s nested
    # defs so recursive references stay internally consistent.
    inliner._scopes[0] = scope_functions(node)
    inliner.expand(node, 0, (program.node.name,), ())
    if not inliner.changed:
        return None
    ast.fix_missing_locations(node)
    return node
