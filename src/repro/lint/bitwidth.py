"""Payload bit-width abstract interpretation (RL006 / RL007).

The domain tracks symbolic bit-bounds as linear combinations

    const  +  c1·log n  +  c2·d  +  c3·d·log n  +  c4·B

(``B`` is the per-edge CONGEST budget, itself Θ(log n)) plus a ⊤
element for "not statically boundable".  The interpreter walks a node
program's statements to a small fixpoint, propagating widths through
arithmetic, tuples, containers, ``codec.encode`` calls, comprehensions,
and helper calls (resolved through :mod:`repro.lint.callgraph`, bounded
depth, cycle-safe), and records the width of every ``ctx.send`` /
``ctx.send_all`` payload.

Soundness model (documented in docs/static-analysis.md):

* node and vertex identifiers are ``O(log n)`` bits;
* every *atom* read from ``ctx.input`` is an ``O(log n)``-bit word
  (collections read from the input have ``O(log n)``-bit elements; the
  collections themselves are ⊤-width);
* anything received from the network is budget-bounded — the runtime
  rejects oversized messages, so inbox-derived values cost at most one
  ``B`` unit;
* a value that grows additively across loop iterations gains one
  ``log n`` term (a sum of at most ``n``-ish bounded terms);
* structural growth in a loop (tuple concatenation, nested containers)
  and unresolvable calls go to ⊤.

Widths evaluate to concrete bit counts for a given ``(n, d, B)`` via
:meth:`Width.evaluate`; the RL009 conformance gate compares those
numbers against observed ``max_message_bits`` from run reports.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .astutils import ModuleInfo, ProgramInfo, iter_own
from .callgraph import HelperResolver, ResolvedHelper
from .findings import Finding

_MAX_PASSES = 3
_MAX_SUMMARY_DEPTH = 3


# ---------------------------------------------------------------------------
# The width lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Width:
    """A symbolic bit bound: const + logn·log n + d·d + dlogn·d·log n + msg·B."""

    const: int = 0
    logn: int = 0
    d: int = 0
    dlogn: int = 0
    msg: int = 0
    top: bool = False

    def join(self, other: "Width") -> "Width":
        if self.top or other.top:
            return TOP
        return Width(
            const=max(self.const, other.const),
            logn=max(self.logn, other.logn),
            d=max(self.d, other.d),
            dlogn=max(self.dlogn, other.dlogn),
            msg=max(self.msg, other.msg),
        )

    def plus(self, other: "Width") -> "Width":
        """Structural sum: bits of a value containing both."""
        if self.top or other.top:
            return TOP
        return Width(
            const=self.const + other.const,
            logn=self.logn + other.logn,
            d=self.d + other.d,
            dlogn=self.dlogn + other.dlogn,
            msg=self.msg + other.msg,
        )

    def add_const(self, bits: int) -> "Width":
        if self.top:
            return TOP
        return replace(self, const=self.const + bits)

    @property
    def coefficients(self) -> Tuple[int, int, int, int]:
        return (self.logn, self.d, self.dlogn, self.msg)

    def family(self) -> str:
        """The asymptotic family for *fixed treedepth d* (paper regime)."""
        if self.top:
            return "⊤"
        if self.logn == 0 and self.dlogn == 0 and self.msg == 0:
            return "O(1)"
        if self.dlogn == 0:
            return "O(log n)"
        return "O(d log n)"

    def render(self) -> str:
        if self.top:
            return "⊤"
        parts: List[str] = []
        if self.const or not any(self.coefficients):
            parts.append(str(self.const))
        if self.logn:
            parts.append(f"{self.logn}·log n" if self.logn != 1 else "log n")
        if self.d:
            parts.append(f"{self.d}·d" if self.d != 1 else "d")
        if self.dlogn:
            parts.append(
                f"{self.dlogn}·d·log n" if self.dlogn != 1 else "d·log n"
            )
        if self.msg:
            parts.append(f"{self.msg}·B" if self.msg != 1 else "B")
        return " + ".join(parts)

    def evaluate(self, n: int, d: int, budget: int) -> int:
        """Concrete worst-case bits for an (n, d, budget) instance."""
        if self.top:
            raise ValueError("cannot evaluate ⊤ width")
        logn_unit = 3 + _bitlen(max(2, n))  # tag + sign + magnitude
        d_unit = 3 + max(1, d)
        return (
            self.const
            + self.logn * logn_unit
            + self.d * d_unit
            + self.dlogn * max(1, d) * logn_unit
            + self.msg * budget
        )


TOP = Width(top=True)
ZERO = Width()

#: Families ordered by inclusion (for fixed d).
FAMILY_ORDER = {"O(1)": 0, "O(log n)": 1, "O(d log n)": 2, "⊤": 3}


def _bitlen(value: int) -> int:
    import math

    return max(1, math.ceil(math.log2(max(2, value))))


def int_width(value: int) -> Width:
    return Width(const=2 + 1 + max(1, abs(int(value)).bit_length()))


def parse_budget_family(text: Optional[str]) -> str:
    """Normalize a declared budget string to a family key.

    Accepts ``O(1)``, ``O(log n)``, ``O(d log n)`` (with ``*``/``·``
    separators and arbitrary whitespace).  Unknown strings fall back to
    the CONGEST default ``O(log n)``.
    """
    if not text:
        return "O(log n)"
    squash = (
        text.replace(" ", "").replace("*", "").replace("·", "").lower()
    )
    if squash in ("o(1)", "1"):
        return "O(1)"
    if squash in ("o(logn)", "logn"):
        return "O(log n)"
    if squash in ("o(dlogn)", "dlogn"):
        return "O(d log n)"
    return "O(log n)"


# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------

class AV:
    """A width plus (for containers) the width of an extracted element."""

    __slots__ = ("width", "content", "const_value", "value_le_d",
                 "call_result", "items")

    def __init__(
        self,
        width: Width,
        content: Optional["AV"] = None,
        const_value: Optional[int] = None,
        value_le_d: bool = False,
        call_result: Optional["AV"] = None,
        items: Optional[Tuple["AV", ...]] = None,
    ) -> None:
        self.width = width
        self.content = content
        self.const_value = const_value
        self.value_le_d = value_le_d
        # For names bound to a known-width bound method (``enc =
        # codec.encode``): the abstract value a call through the name
        # returns.
        self.call_result = call_result
        # For tuple literals: the value at each position, so unpacking
        # charges each name its own field rather than the widest one.
        self.items = items

    def elem(self) -> "AV":
        """The abstract value of one extracted element / component.

        For plain (serialized) values a component is at most as wide as
        the whole — receiving a budget-bounded payload and indexing into
        it yields a budget-bounded part.
        """
        if self.content is not None:
            return self.content
        if self.width.top:
            return AV_TOP
        return AV(self.width)

    def join(self, other: "AV") -> "AV":
        content: Optional[AV] = None
        if self.content is not None or other.content is not None:
            content = self.elem().join(other.elem())
        const_value = (
            self.const_value
            if self.const_value is not None
            and self.const_value == other.const_value
            else None
        )
        call_result: Optional[AV] = None
        if self.call_result is not None and other.call_result is not None:
            call_result = self.call_result.join(other.call_result)
        items: Optional[Tuple[AV, ...]] = None
        if (
            self.items is not None
            and other.items is not None
            and len(self.items) == len(other.items)
        ):
            items = tuple(a.join(b) for a, b in zip(self.items, other.items))
        return AV(
            self.width.join(other.width),
            content=content,
            const_value=const_value,
            value_le_d=self.value_le_d and other.value_le_d,
            call_result=call_result,
            items=items,
        )


AV_TOP = AV(TOP)
AV_BOOL = AV(Width(const=3))
AV_NONE = AV(Width(const=3))
AV_STR = AV(Width(const=8))  # codec interns strings: flat tag + 6 bits
AV_LOGN = AV(Width(logn=1))
AV_MSG = AV(Width(msg=1))
#: Length-ish quantities (inbox sizes, list lengths): ≤ poly(n)·4^d.
AV_COUNT = AV(Width(logn=1, d=1, const=4))


def _const_av(value: int) -> AV:
    return AV(int_width(value), const_value=int(value))


#: Attribute reads on a ``ctx`` name.
_CTX_ATTRS = {
    "node": AV_LOGN,
    "n": AV_LOGN,
    "degree": AV_LOGN,
    "budget": AV_LOGN,
    "round_number": AV(Width(logn=1, d=1)),
}

#: Treedepth-like input keys whose *value* is bounded by the promise d.
_DEPTH_KEYS = {"d", "depth", "treedepth"}

#: Zero-argument-insensitive call results by attribute name.
_ATTR_CALL_RESULTS = {
    "encode": AV_LOGN,
    # A decoded automaton state is an interned object whose only
    # serializable form is its O(log n) class id (ClassCodec roundtrip).
    "decode": AV_LOGN,
    "accepts": AV_BOOL,
    "bit_length": AV(Width(logn=1, const=2)),
    # RNG draws (seeded or not — determinism is RL002's department) are
    # machine-word bounded.
    "randrange": AV(Width(const=67)),
    "randint": AV(Width(const=67)),
    "getrandbits": AV(Width(const=67)),
}


def _helper_sends(
    func: ast.FunctionDef, ctx_names: Set[str]
) -> List[Tuple[ast.Call, str]]:
    """``ctx.send``/``ctx.send_all`` call sites in a helper body."""
    out: List[Tuple[ast.Call, str]] = []
    for n in iter_own(func):
        if (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr in ("send", "send_all")
            and isinstance(n.func.value, ast.Name)
            and n.func.value.id in ctx_names
        ):
            out.append((n, n.func.attr))
    return out


def _is_literal(expr: ast.AST) -> bool:
    """True for pure literal subtrees (safe to evaluate with no env)."""
    for n in ast.walk(expr):
        if not isinstance(
            n,
            (
                ast.Constant, ast.Tuple, ast.List, ast.Set, ast.Dict,
                ast.Load, ast.UnaryOp, ast.USub, ast.UAdd,
            ),
        ):
            return False
    return True


class _Summary:
    """Result of abstractly executing one function body."""

    def __init__(self) -> None:
        self.ret = AV(Width())
        self.returned = False

    def merge_return(self, av: AV) -> None:
        self.ret = av if not self.returned else self.ret.join(av)
        self.returned = True


class _Interp:
    """Flow-insensitive-ish abstract interpreter over one function."""

    def __init__(
        self,
        module: ModuleInfo,
        resolver: Optional[HelperResolver],
        depth: int = 0,
        call_stack: Tuple[int, ...] = (),
    ) -> None:
        self.module = module
        self.resolver = resolver
        self.depth = depth
        self.call_stack = call_stack
        self.module_consts = _module_int_consts(module)
        self.sends: List[Tuple[ast.Call, str, AV]] = []
        self._send_nodes: Dict[int, str] = {}
        self._recording = False
        self._ctx_names: Set[str] = set()

    # -- public entry ---------------------------------------------------
    def run_program(self, program: ProgramInfo) -> List[Tuple[ast.Call, str, AV]]:
        self._ctx_names = set(program.ctx_names)
        self._send_nodes = {id(c): kind for c, kind in program.sends}
        env: Dict[str, AV] = {}
        # Closure-level literal constants (factory-pattern programs read
        # common-knowledge tables from the enclosing scope).
        for scope in program.enclosing:
            for stmt in scope.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and _is_literal(stmt.value)
                ):
                    env[stmt.targets[0].id] = self.eval(stmt.value, {})
        for name in _param_names(program.node):
            env[name] = AV_TOP
        for name in self._ctx_names:
            env[name] = AV_TOP
        self._fixpoint(program.node, env)
        return self.sends

    def summarize(self, func: ast.FunctionDef, args: List[AV]) -> AV:
        """Return-value width of a helper called with ``args``."""
        params = _param_names(func)
        env: Dict[str, AV] = {}
        for i, name in enumerate(params):
            env[name] = args[i] if i < len(args) else AV_TOP
        summary = self._fixpoint(func, env)
        return summary.ret if summary.returned else AV_NONE

    # -- fixpoint driver ------------------------------------------------
    def _fixpoint(self, func: ast.FunctionDef, env: Dict[str, AV]) -> _Summary:
        prev: Dict[str, Width] = {}
        summary = _Summary()
        for pass_no in range(_MAX_PASSES + 1):
            final = pass_no == _MAX_PASSES
            if final:
                env = _widen(env, prev)
                self._recording = True
                summary = _Summary()
            before = {k: v.width for k, v in env.items()}
            summary_pass = _Summary()
            self._exec_block(func.body, env, summary_pass)
            summary = summary_pass
            after = {k: v.width for k, v in env.items()}
            if final:
                break
            if pass_no and after == before:
                # Converged early: one recording pass.
                prev = after
                continue
            prev = before
        self._recording = False
        return summary

    # -- statements -----------------------------------------------------
    def _exec_block(
        self, stmts: List[ast.stmt], env: Dict[str, AV], summary: _Summary
    ) -> None:
        for stmt in stmts:
            self._exec(stmt, env, summary)

    def _exec(self, stmt: ast.stmt, env: Dict[str, AV], summary: _Summary) -> None:
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, value, stmt.value, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self.eval(stmt.value, env), stmt.value, env)
        elif isinstance(stmt, ast.AugAssign):
            synthetic = ast.BinOp(
                left=_load_of(stmt.target), op=stmt.op, right=stmt.value
            )
            ast.copy_location(synthetic, stmt)
            ast.fix_missing_locations(synthetic)
            self._assign(stmt.target, self.eval(synthetic, env), None, env)
        elif isinstance(stmt, ast.For):
            iterable = self.eval(stmt.iter, env)
            self._assign(stmt.target, iterable.elem(), None, env)
            self._exec_block(stmt.body, env, summary)
            self._exec_block(stmt.orelse, env, summary)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test, env)
            self._exec_block(stmt.body, env, summary)
            self._exec_block(stmt.orelse, env, summary)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test, env)
            self._exec_block(stmt.body, env, summary)
            self._exec_block(stmt.orelse, env, summary)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, env, summary)
            for handler in stmt.handlers:
                if handler.name:
                    env[handler.name] = AV_TOP
                self._exec_block(handler.body, env, summary)
            self._exec_block(stmt.orelse, env, summary)
            self._exec_block(stmt.finalbody, env, summary)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                ctx_av = self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, ctx_av, None, env)
            self._exec_block(stmt.body, env, summary)
        elif isinstance(stmt, ast.Return):
            av = self.eval(stmt.value, env) if stmt.value is not None else AV_NONE
            summary.merge_return(av)
        elif isinstance(stmt, ast.Expr):
            self._side_effect(stmt.value, env)
        elif isinstance(stmt, ast.FunctionDef):
            env[stmt.name] = AV_TOP
        elif hasattr(ast, "Match") and isinstance(stmt, ast.Match):
            subject = self.eval(stmt.subject, env)
            for case in stmt.cases:
                for name in _pattern_names(case.pattern):
                    env[name] = _weak(env, name, subject.join(subject.elem()))
                self._exec_block(case.body, env, summary)
        # Pass/Break/Continue/Raise/Import/Global/Assert: no width effect.
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test, env)

    def _assign(
        self,
        target: ast.AST,
        value: AV,
        value_expr: Optional[ast.AST],
        env: Dict[str, AV],
    ) -> None:
        if isinstance(target, ast.Name):
            alias = _method_alias_result(value_expr)
            if alias is not None:
                value = AV(
                    value.width, content=value.content,
                    const_value=value.const_value,
                    value_le_d=value.value_le_d, call_result=alias,
                )
            env[target.id] = _weak(env, target.id, value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            elts = list(target.elts)
            if (
                value.items is not None
                and len(value.items) == len(elts)
                and not any(isinstance(t, ast.Starred) for t in elts)
            ):
                exprs = (
                    value_expr.elts if isinstance(value_expr, ast.Tuple)
                    else [None] * len(elts)
                )
                for t, item, e in zip(elts, value.items, exprs):
                    self._assign(t, item, e, env)
            else:
                element = value.elem()
                for t in elts:
                    if isinstance(t, ast.Starred):
                        self._assign(t.value, AV(TOP, content=element), None, env)
                    else:
                        self._assign(t, element, None, env)
        elif isinstance(target, ast.Subscript):
            self._container_update(target.value, value, env)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, value, None, env)
        # Attribute targets: object state, not message width — ignore.

    def _container_update(self, base: ast.AST, value: AV, env: Dict[str, AV]) -> None:
        """Weak-update the element content of ``base`` with ``value``."""
        if isinstance(base, ast.Name):
            old = env.get(base.id, AV_TOP)
            content = old.elem().join(value)
            env[base.id] = AV(
                old.width, content=content, const_value=None,
                value_le_d=old.value_le_d,
            )
        elif isinstance(base, ast.Subscript):
            inner = self.eval(base, env)
            self._container_update(
                base.value, AV(inner.width, content=inner.elem().join(value)), env
            )

    def _side_effect(self, expr: ast.AST, env: Dict[str, AV]) -> None:
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in {
                "append", "add", "insert", "extend", "update", "setdefault",
            }
        ):
            args = [self.eval(a, env) for a in expr.args]
            if args:
                value = args[-1]
                if expr.func.attr in {"extend", "update"}:
                    value = value.elem()
                self._container_update(expr.func.value, value, env)
            return
        self.eval(expr, env)

    # -- expressions ----------------------------------------------------
    def eval(self, expr: ast.AST, env: Dict[str, AV]) -> AV:
        av = self._eval_inner(expr, env)
        if (
            self._recording
            and isinstance(expr, ast.Call)
            and id(expr) in self._send_nodes
        ):
            kind = self._send_nodes[id(expr)]
            payload = None
            if kind == "send" and len(expr.args) >= 2:
                payload = expr.args[1]
            elif kind == "send_all" and expr.args:
                payload = expr.args[0]
            if payload is not None:
                self.sends.append((expr, kind, self._eval_inner(payload, env)))
        return av

    def _eval_inner(self, expr: ast.AST, env: Dict[str, AV]) -> AV:
        if isinstance(expr, ast.Constant):
            return self._const(expr.value)
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return env[expr.id]
            if expr.id in self.module_consts:
                return _const_av(self.module_consts[expr.id])
            if expr.id in ("True", "False"):
                return AV_BOOL
            return AV_TOP
        if isinstance(expr, ast.Attribute):
            return self._eval_attribute(expr, env)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return self._eval_sequence(expr, env)
        if isinstance(expr, ast.Dict):
            parts = [self.eval(v, env) for v in expr.values if v is not None]
            parts += [self.eval(k, env) for k in expr.keys if k is not None]
            content = _join_all(parts)
            if any(k is None for k in expr.keys):
                # ``**mapping`` unpacking: unknown entry count.
                return AV(TOP, content=content)
            # A literal has a fixed entry count: structural sum, like a
            # tuple of (key, value) pairs (RL004 owns the type complaint).
            width = Width(const=4)
            for part in parts:
                width = width.plus(part.width)
            return AV(width, content=content)
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr, env)
        if isinstance(expr, ast.BoolOp):
            return _join_all([self.eval(v, env) for v in expr.values])
        if isinstance(expr, ast.Compare):
            self.eval(expr.left, env)
            for comp in expr.comparators:
                self.eval(comp, env)
            return AV_BOOL
        if isinstance(expr, ast.UnaryOp):
            if isinstance(expr.op, ast.Not):
                self.eval(expr.operand, env)
                return AV_BOOL
            return self.eval(expr.operand, env)
        if isinstance(expr, ast.IfExp):
            self.eval(expr.test, env)
            return self.eval(expr.body, env).join(self.eval(expr.orelse, env))
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.Subscript):
            base = self.eval(expr.value, env)
            if isinstance(expr.slice, ast.Slice):
                return AV(base.width, content=base.elem())
            self.eval(expr.slice, env)
            return base.elem()
        if isinstance(expr, ast.Yield):
            if expr.value is not None:
                self.eval(expr.value, env)
            # The inbox: a dict of budget-bounded payloads per sender.
            return AV(TOP, content=AV_MSG)
        if isinstance(expr, ast.YieldFrom):
            inner = expr.value
            if isinstance(inner, ast.Call):
                resolved = self._resolve_call(inner)
                if resolved is not None:
                    return self._call_summary(resolved, inner, env)
            # Unresolved communication subroutine: its return value is
            # either locally derived or received, hence budget-bounded.
            self.eval(inner, env)
            return AV_MSG
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            comp_env = dict(env)
            self._bind_comprehension(expr.generators, comp_env)
            return AV(TOP, content=self.eval(expr.elt, comp_env))
        if isinstance(expr, ast.DictComp):
            comp_env = dict(env)
            self._bind_comprehension(expr.generators, comp_env)
            content = self.eval(expr.key, comp_env).join(
                self.eval(expr.value, comp_env)
            )
            return AV(TOP, content=content)
        if isinstance(expr, ast.Starred):
            return self.eval(expr.value, env).elem()
        if hasattr(ast, "NamedExpr") and isinstance(expr, ast.NamedExpr):
            value = self.eval(expr.value, env)
            if isinstance(expr.target, ast.Name):
                env[expr.target.id] = _weak(env, expr.target.id, value)
            return value
        if isinstance(expr, ast.JoinedStr):
            for part in ast.iter_child_nodes(expr):
                if isinstance(part, ast.FormattedValue):
                    self.eval(part.value, env)
            return AV_STR
        if isinstance(expr, ast.Lambda):
            return AV_TOP
        return AV_TOP

    def _const(self, value) -> AV:
        if isinstance(value, bool) or value is None:
            return AV_BOOL if isinstance(value, bool) else AV_NONE
        if isinstance(value, int):
            return _const_av(value)
        if isinstance(value, str):
            return AV_STR
        if isinstance(value, float):
            # Type-wrong for CONGEST (RL004's department) but
            # width-bounded: one IEEE double.
            return AV(Width(const=67))
        return AV_TOP  # bytes / complex: RL004's department

    def _eval_attribute(self, expr: ast.Attribute, env: Dict[str, AV]) -> AV:
        if isinstance(expr.value, ast.Name) and expr.value.id in self._ctx_names:
            if expr.attr in _CTX_ATTRS:
                return _CTX_ATTRS[expr.attr]
            if expr.attr == "neighbors":
                return AV(TOP, content=AV_LOGN)
            if expr.attr == "input":
                # Mapping of O(log n)-bit atoms (elements of collection
                # inputs are O(log n) too).
                return AV(TOP, content=AV(Width(logn=1), content=AV_LOGN))
        self.eval(expr.value, env)
        return AV_TOP

    def _eval_sequence(self, expr: ast.AST, env: Dict[str, AV]) -> AV:
        """A tuple/list/set literal; a tuple without ``*`` parts also keeps
        each position's value (see ``AV.items``)."""
        avs = [self.eval(e, env) for e in expr.elts]
        width = Width(const=4)
        for av in avs:
            width = width.plus(av.width)
        positional = isinstance(expr, ast.Tuple) and not any(
            isinstance(e, ast.Starred) for e in expr.elts
        )
        return AV(
            width,
            content=_join_all(avs) if avs else AV(Width()),
            items=tuple(avs) if positional else None,
        )

    def _eval_binop(self, expr: ast.BinOp, env: Dict[str, AV]) -> AV:
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        op = expr.op
        # Exact constant folding keeps mask/shift idioms precise.
        if left.const_value is not None and right.const_value is not None:
            folded = _fold(op, left.const_value, right.const_value)
            if folded is not None:
                return _const_av(folded)
        # Structural concatenation is recognized syntactically (a tuple /
        # list literal on either side).  Plain names are treated as
        # numeric even when they carry element-content: ``w += tbl.get(k)``
        # must join-and-increment, not sum coefficients, or the widener
        # mistakes fixpoint convergence for unbounded structural growth.
        structural = isinstance(
            expr.left, (ast.Tuple, ast.List, ast.Set)
        ) or isinstance(expr.right, (ast.Tuple, ast.List, ast.Set))
        if isinstance(op, (ast.Add, ast.Sub)):
            if structural:
                return AV(
                    left.width.plus(right.width),
                    content=left.elem().join(right.elem()),
                )
            return AV(left.width.join(right.width).add_const(1))
        if isinstance(op, ast.Mult):
            if structural:
                return AV_TOP
            return AV(left.width.plus(right.width))
        if isinstance(op, (ast.FloorDiv, ast.Mod)):
            return AV(left.width.join(right.width))
        if isinstance(op, ast.Div):
            # True division always yields a float (RL004's department);
            # its width is one IEEE double regardless of operand widths.
            return AV(Width(const=67))
        if isinstance(op, (ast.BitOr, ast.BitXor)):
            return AV(left.width.join(right.width).add_const(1))
        if isinstance(op, ast.BitAnd):
            # x & mask is no wider than either operand.
            if right.const_value is not None:
                return AV(int_width(right.const_value))
            if left.const_value is not None:
                return AV(int_width(left.const_value))
            return AV(left.width.join(right.width))
        if isinstance(op, ast.RShift):
            return AV(left.width)
        if isinstance(op, ast.LShift):
            if right.const_value is not None:
                return AV(left.width.add_const(max(0, right.const_value)))
            if right.value_le_d:
                return AV(left.width.plus(Width(d=1)))
            return AV_TOP
        if isinstance(op, ast.Pow):
            # c ** e has ~e·log c bits: boundable only when the exponent's
            # *value* is promise-bounded by the treedepth d.
            if (
                isinstance(expr.left, ast.Constant)
                and isinstance(expr.left.value, int)
                and right.value_le_d
            ):
                factor = max(1, abs(expr.left.value).bit_length())
                return AV(Width(d=factor, const=4))
            return AV_TOP
        return AV_TOP  # Div and friends: floats are RL004's department

    def _bind_comprehension(self, generators, env: Dict[str, AV]) -> None:
        for gen in generators:
            iterable = self.eval(gen.iter, env)
            self._assign(gen.target, iterable.elem(), None, env)
            for cond in gen.ifs:
                self.eval(cond, env)

    # -- calls ----------------------------------------------------------
    def _resolve_call(self, call: ast.Call) -> Optional[ResolvedHelper]:
        if self.resolver is None or not isinstance(call.func, ast.Name):
            return None
        return self.resolver.resolve(call.func.id)

    def _call_summary(
        self, resolved: ResolvedHelper, call: ast.Call, env: Dict[str, AV]
    ) -> AV:
        if self.depth >= _MAX_SUMMARY_DEPTH or id(resolved.func) in self.call_stack:
            return AV_TOP
        args = [self.eval(a, env) for a in call.args]
        if any(isinstance(a, ast.Starred) for a in call.args):
            return AV_TOP
        sub = _Interp(
            resolved.module,
            HelperResolver(
                resolved.module,
                loader=self.resolver.loader if self.resolver else None,
            ),
            depth=self.depth + 1,
            call_stack=self.call_stack + (id(resolved.func),),
        )
        # Helper parameters named/annotated ctx keep their meaning.
        sub._ctx_names = {
            a.arg
            for a in resolved.func.args.args
            if a.arg == "ctx"
        }
        sub._send_nodes = {
            id(c): kind
            for c, kind in _helper_sends(resolved.func, sub._ctx_names)
        }
        try:
            result = sub.summarize(resolved.func, args)
        except RecursionError:
            return AV_TOP
        if self._recording and sub.sends:
            # Sends inside a summarized (non-inlined) helper count against
            # the *caller's* budget; attribute them to the call site so
            # findings stay in the caller's file.
            for _, kind, av in sub.sends:
                self.sends.append((call, kind, av))
        return result

    def _eval_call(self, call: ast.Call, env: Dict[str, AV]) -> AV:
        for kw in call.keywords:
            self.eval(kw.value, env)
        func = call.func
        if isinstance(func, ast.Name):
            return self._eval_name_call(func.id, call, env)
        if isinstance(func, ast.Attribute):
            return self._eval_attr_call(func, call, env)
        for arg in call.args:
            self.eval(arg, env)
        return AV_TOP

    def _eval_name_call(
        self, name: str, call: ast.Call, env: Dict[str, AV]
    ) -> AV:
        args = [self.eval(a, env) for a in call.args]
        bound = env.get(name)
        if bound is not None and bound.call_result is not None:
            # A bound-method alias (``enc = codec.encode``): calling the
            # name yields the method's known result width.
            return bound.call_result
        if name in env:
            # A local binding shadows the builtin / helper meaning; a
            # nested function is still resolvable through the resolver.
            resolved = self._resolve_call(call)
            if resolved is not None:
                return self._call_summary(resolved, call, env)
            return AV_TOP
        if name in ("int", "abs"):
            if args:
                av = args[0]
                if self._is_depth_key_read(call.args[0]):
                    return AV(Width(d=1, const=3), value_le_d=True)
                return AV(av.width, const_value=av.const_value,
                          value_le_d=av.value_le_d)
            return _const_av(0)
        if name == "bool":
            return AV_BOOL
        if name in ("id", "hash"):
            # Process-dependent (RL002's department) but width-bounded:
            # one machine word.
            return AV(Width(const=67))
        if name == "str" or name == "repr" or name == "format":
            return AV_STR
        if name == "len":
            return AV_COUNT
        if name in ("min", "max"):
            if len(args) == 1:
                return args[0].elem()
            return _join_all(args)
        if name == "sum":
            base = args[0].elem() if args else AV(Width())
            return AV(base.width.plus(Width(logn=1)))
        if name in ("sorted", "list", "reversed", "iter"):
            src = args[0] if args else AV(Width())
            return AV(TOP, content=src.elem())
        if name in ("tuple", "frozenset", "set"):
            src = args[0] if args else AV(Width(const=4))
            width = TOP if src.width.top else src.width.add_const(2)
            return AV(width, content=src.elem())
        if name == "range":
            bound = _join_all(args) if args else AV(Width())
            return AV(TOP, content=AV(bound.width, value_le_d=bound.value_le_d))
        if name == "enumerate":
            src = args[0] if args else AV(Width())
            return AV(TOP, content=AV_COUNT.join(src.elem()))
        if name == "zip":
            return AV(TOP, content=_join_all([a.elem() for a in args]))
        if name == "divmod":
            return AV(
                _join_all(args).width.add_const(4),
                content=_join_all(args),
            )
        if name == "next":
            return args[0].elem() if args else AV_TOP
        if name == "ordered_inbox":
            # (sender, payload) pairs, each component budget-bounded.
            pair = AV(Width(msg=1, logn=1, const=4), content=AV_MSG)
            return AV(TOP, content=pair)
        if name == "canonical_edge":
            return AV(Width(logn=2, const=6), content=AV_LOGN)
        if name in ("default_budget", "payload_bits"):
            return AV_LOGN
        if name == "dict":
            src = args[0] if args else AV(Width())
            return AV(TOP, content=src.elem().elem())
        resolved = self._resolve_call(call)
        if resolved is not None:
            return self._call_summary(resolved, call, env)
        return AV_TOP

    def _is_depth_key_read(self, expr: ast.AST) -> bool:
        """Is this ``ctx.input["d"]``-like (value promise-bounded by d)?"""
        if (
            isinstance(expr, ast.Subscript)
            and isinstance(expr.value, ast.Attribute)
            and expr.value.attr == "input"
            and isinstance(expr.value.value, ast.Name)
            and expr.value.value.id in self._ctx_names
            and isinstance(expr.slice, ast.Constant)
            and isinstance(expr.slice.value, str)
            and expr.slice.value.lower() in _DEPTH_KEYS
        ):
            return True
        return False

    def _eval_attr_call(
        self, func: ast.Attribute, call: ast.Call, env: Dict[str, AV]
    ) -> AV:
        attr = func.attr
        base = self.eval(func.value, env)
        args = [self.eval(a, env) for a in call.args]
        if isinstance(func.value, ast.Name) and func.value.id in self._ctx_names:
            if attr in ("send", "send_all"):
                return AV_NONE
        if (
            isinstance(func.value, ast.Name)
            and func.value.id in ("random", "time")
        ):
            # Nondeterministic (RL002/RL008's department) but bounded:
            # floats and machine-word ints.
            return AV(Width(const=67))
        if attr in _ATTR_CALL_RESULTS:
            return _ATTR_CALL_RESULTS[attr]
        if attr == "get":
            default = args[1] if len(args) > 1 else AV_NONE
            return base.elem().join(default)
        if attr in ("pop", "popitem"):
            return base.elem()
        if attr in ("keys", "values"):
            return AV(TOP, content=base.elem())
        if attr == "items":
            pair = AV(
                base.elem().width.plus(base.elem().width).add_const(4),
                content=base.elem(),
            )
            return AV(TOP, content=pair)
        if attr == "items_from":
            # ItemCollector.items_from(child): received payload items.
            return AV(TOP, content=AV_MSG)
        if attr == "copy":
            return base
        if attr in ("index", "count"):
            return AV_COUNT
        if attr == "join":
            return AV_STR
        if attr in ("split", "splitlines"):
            return AV(TOP, content=AV_STR)
        if attr in (
            "append", "add", "insert", "extend", "update", "discard",
            "remove", "clear", "sort", "reverse", "absorb",
        ):
            return AV_NONE
        return AV_TOP


def _load_of(target: ast.AST) -> ast.AST:
    clone = ast.copy_location(
        ast.parse(ast.unparse(target), mode="eval").body, target
    )
    return clone


def _method_alias_result(expr: Optional[ast.AST]) -> Optional[AV]:
    """The call-result AV when ``expr`` is a known-width bound method.

    Recognizes ``obj.encode`` (uncalled) and conditional picks between
    such methods (``ids.encode if tab is not None else codec.encode``),
    so sends through the aliased name stay statically boundable.
    """
    if isinstance(expr, ast.IfExp):
        body = _method_alias_result(expr.body)
        orelse = _method_alias_result(expr.orelse)
        if body is not None and orelse is not None:
            return body.join(orelse)
        return None
    if isinstance(expr, ast.Attribute) and expr.attr in _ATTR_CALL_RESULTS:
        return _ATTR_CALL_RESULTS[expr.attr]
    return None


def _weak(env: Dict[str, AV], name: str, value: AV) -> AV:
    old = env.get(name)
    return value if old is None else old.join(value)


def _join_all(avs: List[AV]) -> AV:
    out: Optional[AV] = None
    for av in avs:
        out = av if out is None else out.join(av)
    return out if out is not None else AV(Width())


def _param_names(func: ast.FunctionDef) -> List[str]:
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def _pattern_names(pattern: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(pattern):
        if isinstance(node, ast.MatchAs) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.MatchStar) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.MatchMapping) and node.rest:
            names.add(node.rest)
    return names


def _module_int_consts(module: ModuleInfo) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for stmt in module.tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, int)
            and not isinstance(stmt.value.value, bool)
        ):
            out[stmt.targets[0].id] = stmt.value.value
    return out


def _fold(op: ast.operator, a: int, b: int) -> Optional[int]:
    try:
        if isinstance(op, ast.Add):
            return a + b
        if isinstance(op, ast.Sub):
            return a - b
        if isinstance(op, ast.Mult):
            return a * b
        if isinstance(op, ast.FloorDiv):
            return a // b if b else None
        if isinstance(op, ast.Mod):
            return a % b if b else None
        if isinstance(op, ast.Pow):
            return a ** b if 0 <= b <= 64 and abs(a) <= 2 ** 16 else None
        if isinstance(op, ast.LShift):
            return a << b if 0 <= b <= 256 else None
        if isinstance(op, ast.RShift):
            return a >> b if b >= 0 else None
        if isinstance(op, ast.BitAnd):
            return a & b
        if isinstance(op, ast.BitOr):
            return a | b
        if isinstance(op, ast.BitXor):
            return a ^ b
    except (OverflowError, ValueError):
        return None
    return None


def _widen(env: Dict[str, AV], prev: Dict[str, Width]) -> Dict[str, AV]:
    """Stabilize names still growing after the fixpoint passes.

    Additive (const-only) growth means a value accumulated across loop
    iterations: a sum of at most n-ish bounded terms adds one log n
    term.  Coefficient growth is structural (nested containers, tuple
    concatenation) and goes to ⊤.
    """
    out: Dict[str, AV] = {}
    for name, av in env.items():
        before = prev.get(name)
        width = av.width
        if before is not None and not width.top and width != before:
            if width.coefficients == before.coefficients:
                width = Width(
                    const=before.const,
                    logn=width.logn + 1,
                    d=width.d,
                    dlogn=width.dlogn,
                    msg=width.msg,
                )
            else:
                width = TOP
        out[name] = AV(
            width,
            content=av.content,
            const_value=av.const_value if width == av.width else None,
            value_le_d=av.value_le_d,
            # A bound-method alias never changes what its calls return,
            # however wide the binding itself is widened.
            call_result=av.call_result,
            items=av.items if width == av.width else None,
        )
    return out


# ---------------------------------------------------------------------------
# Program-level entry points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SendBound:
    """The inferred width of one send site."""

    line: int
    col: int
    kind: str
    width: Width


@dataclass(frozen=True)
class ProgramBound:
    """The certified payload bound for one node program."""

    qualname: str
    declared: str  # family string, e.g. "O(log n)"
    width: Width  # join over all send sites (ZERO when the program
    # never sends)
    sends: Tuple[SendBound, ...]
    rounds_expr: Optional[str]

    @property
    def certified(self) -> bool:
        return not self.width.top and (
            FAMILY_ORDER[self.width.family()] <= FAMILY_ORDER[self.declared]
        )


def declared_budget(program: ProgramInfo) -> Tuple[str, Optional[str]]:
    """(bits family, rounds expression) declared on ``@node_program``."""
    bits: Optional[str] = None
    rounds: Optional[str] = None
    for dec in program.node.decorator_list:
        if not isinstance(dec, ast.Call):
            continue
        target = dec.func
        name = (
            target.id
            if isinstance(target, ast.Name)
            else getattr(target, "attr", None)
        )
        if name != "node_program":
            continue
        for kw in dec.keywords:
            if kw.arg == "bits" and isinstance(kw.value, ast.Constant):
                bits = str(kw.value.value)
            elif kw.arg == "rounds" and isinstance(kw.value, ast.Constant):
                if kw.value.value is not None:
                    rounds = str(kw.value.value)
    return parse_budget_family(bits), rounds


def is_declared_program(program: ProgramInfo) -> bool:
    """Does the program carry the ``@node_program`` declaration?"""
    for dec in program.node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = (
            target.id
            if isinstance(target, ast.Name)
            else getattr(target, "attr", None)
        )
        if name == "node_program":
            return True
    return False


def certify_program(
    program: ProgramInfo, resolver: Optional[HelperResolver] = None
) -> ProgramBound:
    """Infer the payload width bound for one (already expanded) program."""
    if resolver is None:
        resolver = HelperResolver(program.module, program)
    declared, rounds_expr = declared_budget(program)
    interp = _Interp(program.module, resolver)
    sends = interp.run_program(program)
    bounds = tuple(
        SendBound(
            line=call.lineno, col=call.col_offset, kind=kind, width=av.width
        )
        for call, kind, av in sends
    )
    width = ZERO
    for bound in bounds:
        width = width.join(bound.width)
    return ProgramBound(
        qualname=program.qualname,
        declared=declared,
        width=width,
        sends=bounds,
        rounds_expr=rounds_expr,
    )


def check_bit_budget(program: ProgramInfo) -> Iterator[Finding]:
    """RL006: every send payload fits the declared budget family."""
    if not is_declared_program(program):
        return
    bound = certify_program(program)
    declared_rank = FAMILY_ORDER[bound.declared]
    for send in bound.sends:
        family = send.width.family()
        if FAMILY_ORDER[family] <= declared_rank:
            continue
        if send.width.top:
            message = (
                f"ctx.{send.kind}() payload width is not statically "
                f"boundable (⊤): the declared CONGEST budget is "
                f"{bound.declared}; bound the value or declare a wider "
                "budget on @node_program(bits=...)"
            )
        else:
            message = (
                f"ctx.{send.kind}() payload needs {send.width.render()} "
                f"bits ({family}), exceeding the declared {bound.declared} "
                "CONGEST budget"
            )
        yield Finding(
            code="RL006",
            message=message,
            path=program.module.path,
            line=send.line,
            col=send.col,
            program=program.qualname,
        )


def check_round_bound(program: ProgramInfo) -> Iterator[Finding]:
    """RL007: message-emitting ``while True`` loops need an exit."""
    for loop in program.own:
        if not isinstance(loop, ast.While):
            continue
        if not _constant_true(loop.test):
            continue
        loop_sends = [
            (c, k)
            for c, k in program.sends
            if loop in list(program.ancestors(c))
        ]
        if not loop_sends:
            continue
        if _has_exit(program, loop):
            continue
        call, kind = loop_sends[0]
        yield Finding(
            code="RL007",
            message=(
                f"ctx.{kind}() inside 'while True' with no break/return/"
                "raise: the number of message-emitting rounds has no "
                "static bound tied to d or log n"
            ),
            path=program.module.path,
            line=loop.lineno,
            col=loop.col_offset,
            program=program.qualname,
        )


def _constant_true(test: ast.AST) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value) is True


def _has_exit(program: ProgramInfo, loop: ast.While) -> bool:
    for node in iter_own(loop):
        if isinstance(node, (ast.Return, ast.Raise)):
            return True
        if isinstance(node, ast.Break):
            owner = program.owning_loop(node)
            if owner is loop:
                return True
    return False
