"""AST plumbing shared by the lint rules.

Everything here is *syntactic*: the analyzer never imports the code it
checks.  A :class:`ModuleInfo` wraps one parsed source file (bindings at
module scope, ``# repro: noqa`` suppressions); a :class:`ProgramInfo`
wraps one discovered node program together with cached derived views
(parent links, statement positions, locals, sends, the set of
order-unreliable names) that the rules in :mod:`repro.lint.rules` consume.
"""

from __future__ import annotations

import ast
import builtins
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\s]+)\])?")

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)

#: Calls whose result does not depend on the iteration order of their
#: argument — wrapping an unordered collection in one of these makes the
#: value deterministic again.
ORDER_CLEANSERS = {
    "sorted", "min", "max", "sum", "len", "set", "frozenset", "any", "all",
    "ordered_inbox",
}

#: Module-level constructors of order-unreliable collections.
UNORDERED_CONSTRUCTORS = {"set", "frozenset"}


def iter_own(root: ast.AST) -> Iterator[ast.AST]:
    """All descendants of ``root`` excluding nested function/class scopes.

    The body of a nested ``def`` runs in its own activation (often not
    during the round at all), so rules analyze each program's own code and
    treat nested helpers as opaque.
    """

    def walk(node: ast.AST) -> Iterator[ast.AST]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                # Decorators and default expressions of a nested def are
                # evaluated in the *enclosing* scope — only the body is
                # opaque.
                for part in _scope_header(child):
                    yield part
                    yield from walk(part)
                continue
            yield child
            yield from walk(child)

    yield from walk(root)


def _scope_header(node: ast.AST) -> Iterator[ast.AST]:
    """Sub-expressions of a scope node evaluated in the enclosing scope."""
    for dec in getattr(node, "decorator_list", []):
        yield dec
    args = getattr(node, "args", None)
    if args is not None:
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            yield default
    for base in getattr(node, "bases", []):
        yield base
    for kw in getattr(node, "keywords", []):
        yield kw.value


def contains_yield(node: ast.AST) -> bool:
    """Does ``node``'s own scope contain a yield / yield from?"""
    if isinstance(node, (ast.Yield, ast.YieldFrom)):
        return True
    return any(
        isinstance(n, (ast.Yield, ast.YieldFrom)) for n in iter_own(node)
    )


def names_loaded(node: ast.AST) -> Set[str]:
    """Names read anywhere in ``node`` (own scope)."""
    out = set()
    nodes = [node] if isinstance(node, ast.Name) else list(iter_own(node))
    for n in nodes:
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
    return out


def is_builtin(name: str) -> bool:
    return hasattr(builtins, name)


def parse_noqa(source: str) -> Dict[int, Set[str]]:
    """Map line number -> suppressed rule codes ('*' = all) from comments."""
    out: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        codes = match.group(1)
        if codes is None:
            out[lineno] = {"*"}
        else:
            out[lineno] = {c.strip().upper() for c in codes.split(",") if c.strip()}
    return out


def _annotation_names(annotation: Optional[ast.AST]) -> Set[str]:
    if annotation is None:
        return set()
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        # String annotations: crude token scan is enough for 'Graph'.
        return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", annotation.value))
    return {
        n.id for n in ast.walk(annotation) if isinstance(n, ast.Name)
    } | {
        n.attr for n in ast.walk(annotation) if isinstance(n, ast.Attribute)
    }


def is_graph_annotation(annotation: Optional[ast.AST]) -> bool:
    """Is this annotation *directly* a Graph (or Optional[Graph])?

    ``Callable[[Graph], bool]`` mentions Graph but annotates a function —
    only a parameter that *is* a Graph violates locality.
    """
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return False
    if isinstance(annotation, ast.Name):
        return annotation.id == "Graph"
    if isinstance(annotation, ast.Attribute):
        return annotation.attr == "Graph"
    if isinstance(annotation, ast.Subscript):
        base = annotation.value
        base_name = (
            base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
        )
        if base_name == "Optional":
            return is_graph_annotation(annotation.slice)
    return False


def classify_binding(
    value: Optional[ast.AST], annotation: Optional[ast.AST] = None
) -> str:
    """Classify a bound value: 'graph', 'mutable', or 'other'."""
    if is_graph_annotation(annotation):
        return "graph"
    if value is None:
        return "other"
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        if value.func.id == "Graph":
            return "graph"
        if value.func.id in {"list", "dict", "set", "defaultdict", "deque"}:
            return "mutable"
    if isinstance(
        value,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return "mutable"
    return "other"


def bound_names(func: ast.AST) -> Set[str]:
    """Every name bound in ``func``'s own scope (params, assignments, ...)."""
    names: Set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            names.add(arg.arg)
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
    for n in iter_own(func):
        if isinstance(n, ast.Name) and isinstance(n.ctx, (ast.Store, ast.Del)):
            names.add(n.id)
        elif isinstance(n, ast.ExceptHandler) and n.name:
            names.add(n.name)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            for alias in n.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(n, ast.Global):
            names.update(n.names)
        elif isinstance(n, ast.Nonlocal):
            names.update(n.names)
        elif isinstance(n, ast.MatchAs) and n.name:
            names.add(n.name)
        elif isinstance(n, ast.MatchStar) and n.name:
            names.add(n.name)
        elif isinstance(n, ast.MatchMapping) and n.rest:
            names.add(n.rest)
    for n in ast.walk(func):
        if (
            isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and n is not func
        ):
            names.add(n.name)
    return names


@dataclass
class ModuleInfo:
    """One parsed source file and its module-scope facts."""

    path: str
    source: str
    tree: ast.Module
    bindings: Dict[str, str] = field(default_factory=dict)  # name -> kind
    noqa: Dict[int, Set[str]] = field(default_factory=dict)
    random_imports: Set[str] = field(default_factory=set)

    @classmethod
    def from_source(cls, source: str, path: str) -> "ModuleInfo":
        tree = ast.parse(source)
        info = cls(path=path, source=source, tree=tree, noqa=parse_noqa(source))
        for stmt in tree.body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    info.bindings[name] = "import"
            elif isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    info.bindings[alias.asname or alias.name] = "import"
                    if stmt.module == "random":
                        info.random_imports.add(alias.asname or alias.name)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.bindings[stmt.name] = "func"
            elif isinstance(stmt, ast.ClassDef):
                info.bindings[stmt.name] = "class"
            elif isinstance(stmt, ast.Assign):
                kind = classify_binding(stmt.value)
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        info.bindings[target.id] = kind
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                info.bindings[stmt.target.id] = classify_binding(
                    stmt.value, stmt.annotation
                )
        return info

    def suppressed(self, line: int, code: str) -> bool:
        codes = self.noqa.get(line)
        return bool(codes) and ("*" in codes or code.upper() in codes)


class ProgramInfo:
    """One node program plus the derived views the rules need."""

    def __init__(
        self,
        module: ModuleInfo,
        node: ast.FunctionDef,
        qualname: str,
        enclosing: List[ast.FunctionDef],
    ):
        self.module = module
        self.node = node
        self.qualname = qualname
        self.enclosing = enclosing  # outermost -> innermost, self excluded

        self.parents: Dict[ast.AST, ast.AST] = {}
        for n in ast.walk(node):
            for child in ast.iter_child_nodes(n):
                self.parents[child] = n

        self.own: List[ast.AST] = list(iter_own(node))
        self.locals: Set[str] = bound_names(node)
        self.ctx_names: Set[str] = self._find_ctx_names()
        self.sends: List[Tuple[ast.Call, str]] = self._find_sends()
        # stmt -> (owner node, statement list, index) for sibling walks.
        self.stmt_loc: Dict[ast.AST, Tuple[ast.AST, list, int]] = {}
        for n in [node] + self.own:
            for fname in ("body", "orelse", "finalbody"):
                stmts = getattr(n, fname, None)
                if isinstance(stmts, list) and stmts and isinstance(
                    stmts[0], ast.stmt
                ):
                    for i, s in enumerate(stmts):
                        self.stmt_loc[s] = (n, stmts, i)
        self.yield_names: Set[str] = self._find_yield_names()
        self.unordered_names: Set[str] = self._find_unordered_names()

    # -- derived views --------------------------------------------------
    def _find_ctx_names(self) -> Set[str]:
        names = set()
        args = self.node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if arg.arg == "ctx" or "NodeContext" in _annotation_names(
                arg.annotation
            ):
                names.add(arg.arg)
        return names

    def _find_sends(self) -> List[Tuple[ast.Call, str]]:
        out = []
        for n in self.own:
            if (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr in {"send", "send_all"}
                and isinstance(n.func.value, ast.Name)
                and n.func.value.id in self.ctx_names
            ):
                out.append((n, n.func.attr))
        return out

    def _find_yield_names(self) -> Set[str]:
        """Names assigned from a bare ``yield`` (i.e. inbox dicts)."""
        names = set()
        for n in self.own:
            if isinstance(n, ast.Assign) and isinstance(n.value, ast.Yield):
                for target in n.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(n, ast.NamedExpr) and isinstance(n.value, ast.Yield):
                if isinstance(n.target, ast.Name):
                    names.add(n.target.id)
        return names

    def _find_unordered_names(self) -> Set[str]:
        """Names bound to order-unreliable collections (sets, inboxes)."""
        names: Set[str] = set(self.yield_names)
        for _ in range(3):  # small fixpoint for chained assignments
            changed = False
            for n in self.own:
                value = None
                target = None
                if isinstance(n, ast.Assign) and len(n.targets) == 1:
                    target, value = n.targets[0], n.value
                elif isinstance(n, ast.AnnAssign) and n.value is not None:
                    target, value = n.target, n.value
                elif isinstance(n, ast.NamedExpr):
                    target, value = n.target, n.value
                if not isinstance(target, ast.Name) or value is None:
                    continue
                if self.is_unordered(value, names) and target.id not in names:
                    names.add(target.id)
                    changed = True
            if not changed:
                break
        return names

    # -- queries used by rules ------------------------------------------
    def is_unordered(
        self, expr: ast.AST, names: Optional[Set[str]] = None
    ) -> bool:
        """Is ``expr`` an order-unreliable collection (set-like or inbox)?"""
        names = self.unordered_names if names is None else names
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Yield):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in names
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in UNORDERED_CONSTRUCTORS:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in {"keys", "values", "items"}
                and self.is_unordered(func.value, names)
            ):
                return True
        return False

    def has_cleansing_ancestor(self, node: ast.AST) -> bool:
        """Is ``node`` wrapped in an order-insensitive call (sorted, ...)?"""
        current = self.parents.get(node)
        while current is not None and current is not self.node:
            if (
                isinstance(current, ast.Call)
                and isinstance(current.func, ast.Name)
                and current.func.id in ORDER_CLEANSERS
            ):
                return True
            current = self.parents.get(current)
        return False

    def enclosing_statement(self, node: ast.AST) -> Optional[ast.AST]:
        current: Optional[ast.AST] = node
        while current is not None and current not in self.stmt_loc:
            current = self.parents.get(current)
        return current

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parents.get(node)
        while current is not None:
            yield current
            if current is self.node:
                return
            current = self.parents.get(current)

    def owning_loop(self, node: ast.AST) -> Optional[ast.AST]:
        """The innermost ``for``/``while`` loop enclosing ``node``."""
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.For, ast.While)):
                return anc
        return None

    def resolve_closure(self, name: str) -> Optional[str]:
        """Classify a name bound in an enclosing function scope.

        Returns 'graph', 'mutable', 'other', or None when the name is not
        bound by any enclosing function.
        """
        for func in reversed(self.enclosing):
            args = func.args
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            ):
                if arg.arg == name:
                    if is_graph_annotation(arg.annotation):
                        return "graph"
                    return "other"
            for n in iter_own(func):
                if isinstance(n, ast.Assign):
                    for target in n.targets:
                        if isinstance(target, ast.Name) and target.id == name:
                            kind = classify_binding(n.value)
                            # Closure-level mutable literals are legitimate
                            # shared "common knowledge" tables; only Graph
                            # objects violate locality outright.
                            return "graph" if kind == "graph" else "other"
                elif isinstance(n, ast.AnnAssign) and isinstance(
                    n.target, ast.Name
                ) and n.target.id == name:
                    kind = classify_binding(n.value, n.annotation)
                    return "graph" if kind == "graph" else "other"
            if name in bound_names(func):
                return "other"
        return None
