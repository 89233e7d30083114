"""The CONGEST-conformance rules (RL001-RL004 and RL006-RL008).

Each rule is a function from a :class:`~repro.lint.astutils.ProgramInfo`
to an iterator of :class:`~repro.lint.findings.Finding`.  Rules are
registered in :data:`RULES` with a code, a short name, and a summary;
``repro lint --list-rules`` prints the table.  RL006-RL008 delegate to
the abstract interpreter (:mod:`repro.lint.bitwidth`) and the taint
analysis (:mod:`repro.lint.taint`).

RL001-RL004 are deliberately *syntactic and high-precision*: they flag
patterns that are wrong under the CONGEST model's ground rules (locality,
order-free delivery, one message per neighbor per round, the Payload
algebra) rather than attempting whole-program dataflow.  Anything a rule
cannot decide it stays silent on — the adversarial ``inbox_order="shuffle"``
simulator mode is the dynamic backstop.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from .astutils import (
    ProgramInfo,
    contains_yield,
    is_builtin,
    iter_own,
    names_loaded,
)
from .findings import Finding

CheckFn = Callable[[ProgramInfo], Iterator[Finding]]


@dataclass(frozen=True)
class Rule:
    code: str
    name: str
    summary: str
    check: CheckFn


RULES: Dict[str, Rule] = {}


def rule(code: str, name: str, summary: str):
    def register(check: CheckFn) -> CheckFn:
        RULES[code] = Rule(code=code, name=name, summary=summary, check=check)
        return check

    return register


def _finding(program: ProgramInfo, code: str, node: ast.AST, message: str) -> Finding:
    # Nodes spliced in by the call-graph expander carry the chain of
    # call-site lines and the helper name they came from.
    callsites = tuple(getattr(node, "_inl_callsites", ()) or ())
    origin = getattr(node, "_inl_origin", None)
    if origin:
        message = f"{message} (in inlined helper '{origin}')"
    return Finding(
        code=code,
        message=message,
        path=program.module.path,
        line=getattr(node, "lineno", program.node.lineno),
        col=getattr(node, "col_offset", 0),
        program=program.qualname,
        callsites=callsites,
    )


# ---------------------------------------------------------------------------
# RL001 — locality
# ---------------------------------------------------------------------------

@rule(
    "RL001",
    "locality",
    "node code must see the network only through ctx: no closure/global "
    "Graph objects, no module-level mutable state, no simulator internals",
)
def check_locality(program: ProgramInfo) -> Iterator[Finding]:
    module = program.module
    reported: Set[Tuple[str, int]] = set()

    def report(node: ast.AST, message: str, key: str):
        loc = (key, getattr(node, "lineno", 0))
        if loc not in reported:
            reported.add(loc)
            yield _finding(program, "RL001", node, message)

    # Graph-annotated parameters of the program itself.
    args = program.node.args
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        from .astutils import is_graph_annotation
        if is_graph_annotation(arg.annotation):
            yield from report(
                arg,
                f"parameter '{arg.arg}' is a Graph: a node program may only "
                "receive the network through ctx (neighbors, inputs)",
                f"param:{arg.arg}",
            )

    for n in program.own:
        # global/nonlocal rebinding escapes the node's local state.
        if isinstance(n, ast.Global):
            for name in n.names:
                yield from report(
                    n,
                    f"'global {name}': node programs must not rebind "
                    "module-level state (nodes would share memory)",
                    f"global:{name}",
                )
            continue
        # ctx._simulation and friends: reaching into the simulator grants
        # instant global knowledge.
        if (
            isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name)
            and n.value.id in program.ctx_names
            and n.attr.startswith("_")
        ):
            yield from report(
                n,
                f"access to ctx.{n.attr}: private simulator internals give "
                "a node global knowledge it cannot have in CONGEST",
                f"priv:{n.attr}",
            )
            continue
        if not (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)):
            continue
        name = n.id
        if name in program.locals or name in program.ctx_names:
            continue
        closure_kind = program.resolve_closure(name)
        if closure_kind == "graph":
            yield from report(
                n,
                f"'{name}' is a Graph captured from an enclosing scope: "
                "node code must not see the whole network (use ctx)",
                f"closure:{name}",
            )
            continue
        if closure_kind is not None:
            continue  # benign closure constant (automaton, codec, ...)
        kind = module.bindings.get(name)
        if kind == "graph":
            yield from report(
                n,
                f"'{name}' is a module-level Graph: node code must not "
                "see the whole network (use ctx)",
                f"module:{name}",
            )
        elif kind == "mutable":
            yield from report(
                n,
                f"'{name}' is module-level mutable state: nodes reading or "
                "writing it share memory outside the message model",
                f"module:{name}",
            )
        elif kind is None and not is_builtin(name):
            # Unknown free name (e.g. star import) — stay silent.
            continue


# ---------------------------------------------------------------------------
# RL002 — determinism
# ---------------------------------------------------------------------------

def _random_call(program: ProgramInfo, n: ast.AST) -> Optional[str]:
    if not isinstance(n, ast.Call):
        return None
    func = n.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "random"
        and func.attr != "Random"  # random.Random(seed) is the remedy
        and "random" not in program.locals
        and program.module.bindings.get("random") == "import"
    ):
        return f"random.{func.attr}"
    if (
        isinstance(func, ast.Name)
        and func.id in program.module.random_imports
        and func.id != "Random"
        and func.id not in program.locals
    ):
        return func.id
    return None


def _materializes_order(program: ProgramInfo, n: ast.AST) -> Optional[str]:
    """Describe how ``n`` turns an unordered collection into a sequence."""
    if isinstance(n, (ast.ListComp, ast.GeneratorExp)):
        if n.generators and program.is_unordered(n.generators[0].iter):
            return "comprehension over an unordered collection"
        return None
    if not isinstance(n, ast.Call):
        return None
    func = n.func
    if isinstance(func, ast.Name) and func.id in {"list", "tuple"} and n.args:
        if program.is_unordered(n.args[0]):
            return f"{func.id}() of an unordered collection"
    if (
        isinstance(func, ast.Name)
        and func.id == "next"
        and n.args
        and isinstance(n.args[0], ast.Call)
        and isinstance(n.args[0].func, ast.Name)
        and n.args[0].func.id == "iter"
        and n.args[0].args
        and program.is_unordered(n.args[0].args[0])
    ):
        return "next(iter()) of an unordered collection"
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "pop"
        and isinstance(func.value, ast.Name)
        and func.value.id in program.unordered_names
        and not n.args
    ):
        return ".pop() from an unordered collection"
    return None


def _loop_target_names(loop: ast.For) -> Set[str]:
    return {
        n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name)
    }


def _sink_subtrees(program: ProgramInfo) -> List[Tuple[ast.AST, str]]:
    """(subtree, description) pairs whose value leaves the node."""
    sinks: List[Tuple[ast.AST, str]] = []
    for call, kind in program.sends:
        payload = None
        if kind == "send" and len(call.args) >= 2:
            payload = call.args[1]
        elif kind == "send_all" and call.args:
            payload = call.args[0]
        if payload is not None:
            sinks.append((payload, "a message payload"))
    for n in program.own:
        if isinstance(n, ast.Return) and n.value is not None:
            sinks.append((n.value, "the node's output"))
    return sinks


@rule(
    "RL002",
    "determinism",
    "payloads, outputs, and control flow must not depend on set/dict "
    "iteration order, unseeded random, or id()/hash() values",
)
def check_determinism(program: ProgramInfo) -> Iterator[Finding]:
    # (a) unseeded module-level random; (b) id()/hash() identities.
    for n in program.own:
        described = _random_call(program, n)
        if described is not None:
            yield _finding(
                program,
                "RL002",
                n,
                f"{described}(): unseeded global randomness makes runs "
                "irreproducible; use a random.Random seeded from ctx.input",
            )
        if (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)
            and n.func.id in {"id", "hash"}
            and n.func.id not in program.locals
        ):
            yield _finding(
                program,
                "RL002",
                n,
                f"{n.func.id}() is process-dependent: its value must not "
                "flow into payloads or branches (use node ids / sorted keys)",
            )

    # (c) order materialization reaching a payload or the node output.
    tainted: Set[str] = set()
    for n in program.own:
        target = None
        if isinstance(n, ast.Assign) and len(n.targets) == 1:
            target = n.targets[0]
        elif isinstance(n, ast.AnnAssign):
            target = n.target
        if (
            target is not None
            and isinstance(target, ast.Name)
            and n.value is not None
        ):
            how = _materializes_order(program, n.value)
            if how is not None and not program.has_cleansing_ancestor(n.value):
                tainted.add(target.id)
    for sink, where in _sink_subtrees(program):
        nodes = [sink] + (
            [] if isinstance(sink, (ast.Name, ast.Constant)) else list(
                iter_own(sink)
            )
        )
        for n in nodes:
            how = _materializes_order(program, n)
            if how is not None and not program.has_cleansing_ancestor(n):
                yield _finding(
                    program,
                    "RL002",
                    n,
                    f"{how} flows into {where}: iteration order of sets and "
                    "inboxes is adversarial; wrap it in sorted()",
                )
            if (
                isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)
                and n.id in tainted
                and not program.has_cleansing_ancestor(n)
            ):
                yield _finding(
                    program,
                    "RL002",
                    n,
                    f"'{n.id}' was built from an unordered collection and "
                    f"flows into {where}: sort it first (its order is "
                    "adversarial)",
                )

    # (d) order-sensitive consumption inside loops over unordered iterables.
    for loop in program.own:
        if not isinstance(loop, ast.For):
            continue
        iter_expr = loop.iter
        if not program.is_unordered(iter_expr):
            continue
        loop_names = _loop_target_names(loop)
        body_nodes = list(iter_own(loop))
        for n in body_nodes:
            if isinstance(n, ast.Break) and program.owning_loop(n) is loop:
                yield _finding(
                    program,
                    "RL002",
                    n,
                    "break inside iteration over an unordered collection: "
                    "which element is 'first' depends on delivery order "
                    "(iterate ordered_inbox()/sorted() instead)",
                )
            if (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr in {"append", "extend", "insert"}
                and not (names_loaded(n.func.value) & loop_names)
            ):
                yield _finding(
                    program,
                    "RL002",
                    n,
                    "appending to a shared sequence while iterating an "
                    "unordered collection: the sequence order (and every "
                    "message built from it) depends on delivery order",
                )
            if isinstance(n, ast.Return) and n.value is not None and not (
                isinstance(n.value, ast.Constant)
            ):
                yield _finding(
                    program,
                    "RL002",
                    n,
                    "returning a non-constant from inside iteration over an "
                    "unordered collection: the output depends on delivery "
                    "order",
                )
            if isinstance(n, ast.Assign) and len(n.targets) == 1 and isinstance(
                n.targets[0], ast.Name
            ):
                name = n.targets[0].id
                if isinstance(n.value, ast.Constant):
                    continue  # same value whichever iteration assigns it
                if name in names_loaded(n.value):
                    continue  # fold: x = f(x, item) is order-insensitive
                if _guard_mentions(program, n, loop, name):
                    continue  # fold via guard: if item < x: x = item
                if not _read_outside(program, loop, name):
                    continue  # loop-local temporary
                yield _finding(
                    program,
                    "RL002",
                    n,
                    f"'{name}' keeps the last matching element of an "
                    "unordered iteration and escapes the loop: the result "
                    "depends on delivery order",
                )


def _guard_mentions(
    program: ProgramInfo, assign: ast.AST, loop: ast.AST, name: str
) -> bool:
    """Does an if-test between ``assign`` and ``loop`` read ``name``?"""
    for anc in program.ancestors(assign):
        if anc is loop:
            return False
        if isinstance(anc, ast.If) and name in names_loaded(anc.test):
            return True
    return False


def _read_outside(program: ProgramInfo, loop: ast.AST, name: str) -> bool:
    inside = {
        n
        for n in iter_own(loop)
        if isinstance(n, ast.Name) and n.id == name
    }
    for n in program.own:
        if (
            isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)
            and n.id == name
            and n not in inside
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# RL003 — round structure
# ---------------------------------------------------------------------------

def _seq_terminates(stmts: List[ast.stmt]) -> bool:
    for s in stmts:
        if isinstance(s, (ast.Return, ast.Raise)):
            return True
        if isinstance(s, ast.If) and s.orelse:
            if _seq_terminates(s.body) and _seq_terminates(s.orelse):
                return True
    return False


def _block_may_yield(stmts: List[ast.stmt], start: int) -> Optional[bool]:
    """Can a yield run in ``stmts[start:]``?  None = fell off the end."""
    for s in stmts[start:]:
        if contains_yield(s):
            return True
        if isinstance(s, (ast.Return, ast.Raise)):
            return False
        if isinstance(s, ast.If) and s.orelse:
            if _seq_terminates(s.body) and _seq_terminates(s.orelse):
                return False
    return None


def _send_reaches_yield(program: ProgramInfo, call: ast.Call) -> bool:
    # A loop enclosing the send that also yields can deliver on the next
    # iteration.
    for anc in program.ancestors(call):
        if isinstance(anc, (ast.For, ast.While)) and contains_yield(anc):
            return True
    stmt = program.enclosing_statement(call)
    while stmt is not None:
        owner, stmts, idx = program.stmt_loc[stmt]
        verdict = _block_may_yield(stmts, idx + 1)
        if verdict is not None:
            return verdict
        current = owner
        while current is not program.node and current not in program.stmt_loc:
            current = program.parents.get(current, program.node)
        stmt = None if current is program.node else current
    return False


def _direct_send(stmt: ast.stmt, program: ProgramInfo):
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        for call, kind in program.sends:
            if call is stmt.value:
                return call, kind
    return None


@rule(
    "RL003",
    "round-structure",
    "every queued message needs a reachable yield to be delivered; at most "
    "one send per neighbor per round; loops that send must also yield",
)
def check_round_structure(program: ProgramInfo) -> Iterator[Finding]:
    # (a) sends from which no yield is reachable: the queued message can
    # only be delivered if some *other* node still yields — usually a bug,
    # suppress with noqa for deliberate terminal floods.
    for call, kind in program.sends:
        if not _send_reaches_yield(program, call):
            yield _finding(
                program,
                "RL003",
                call,
                f"ctx.{kind}() with no reachable yield afterwards: if all "
                "nodes halt this round the message is never delivered "
                "(yield once more, or suppress for a deliberate terminal "
                "flood)",
            )

    # (b) two sends to one neighbor in the same round segment.
    seen_lists = set()
    for stmt, (owner, stmts, idx) in program.stmt_loc.items():
        key = id(stmts)
        if key in seen_lists:
            continue
        seen_lists.add(key)
        pending: Dict[str, ast.Call] = {}
        for s in stmts:
            direct = _direct_send(s, program)
            if direct is not None:
                call, kind = direct
                tkey = (
                    "<all>" if kind == "send_all" else ast.dump(call.args[0])
                    if call.args else "<?>"
                )
                clash = tkey in pending or (
                    pending and ("<all>" in pending or tkey == "<all>")
                )
                if clash:
                    yield _finding(
                        program,
                        "RL003",
                        call,
                        "second send to the same neighbor in one round: "
                        "CONGEST allows one message per neighbor per round "
                        "(the runtime would raise); yield between them",
                    )
                pending[tkey] = call
            elif contains_yield(s) or any(
                c in set(ast.walk(s)) for c, _ in program.sends
            ):
                # A yield ends the round; nested sends/yields in compound
                # statements make the segment ambiguous — reset either way.
                pending.clear()

    # (c) message-producing loops with no yield.
    for loop in program.own:
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        if contains_yield(loop):
            continue
        loop_sends = [
            (c, k)
            for c, k in program.sends
            if loop in list(program.ancestors(c))
        ]
        for call, kind in loop_sends:
            # Distinct per-iteration targets (e.g. ``for child in children:
            # ctx.send(child, ...)``) are the broadcast idiom — fine.
            target_names: Set[str] = set()
            for anc in program.ancestors(call):
                if isinstance(anc, ast.For):
                    target_names |= _loop_target_names(anc)
                if anc is loop:
                    break
            if kind == "send" and call.args and (
                names_loaded(call.args[0]) & target_names
            ):
                continue
            yield _finding(
                program,
                "RL003",
                call,
                f"ctx.{kind}() inside a loop that never yields: repeated "
                "iterations send to the same neighbor within one round",
            )


# ---------------------------------------------------------------------------
# RL004 — payload typing
# ---------------------------------------------------------------------------

_BAD_LITERALS = {
    ast.List: ("list", "use a tuple"),
    ast.ListComp: ("list", "use tuple(sorted(...))"),
    ast.Dict: ("dict", "use a tuple of (key, value) pairs"),
    ast.DictComp: ("dict", "use a tuple of (key, value) pairs"),
    ast.Set: ("set", "use a frozenset"),
    ast.SetComp: ("set", "use a frozenset"),
}

_BAD_CALLS = {
    "list": ("list", "use a tuple"),
    "dict": ("dict", "use a tuple of (key, value) pairs"),
    "set": ("set", "use a frozenset"),
    "float": ("float", "scale to an integer"),
    "bytearray": ("bytearray", "encode as a tuple of ints"),
    "bytes": ("bytes", "encode as a tuple of ints"),
}


def _literal_kind(expr: ast.AST) -> Optional[Tuple[str, str]]:
    for node_type, described in _BAD_LITERALS.items():
        if isinstance(expr, node_type):
            return described
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if expr.func.id in _BAD_CALLS:
            return _BAD_CALLS[expr.func.id]
    if isinstance(expr, ast.Constant):
        if isinstance(expr.value, float):
            return ("float", "scale to an integer")
        if isinstance(expr.value, (bytes, bytearray)):
            return ("bytes", "encode as a tuple of ints")
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Div):
        return ("float (true division)", "use // or scale to an integer")
    return None


def _local_literal_types(program: ProgramInfo) -> Dict[str, Tuple[str, str]]:
    """Names whose every assignment is a definitely-bad payload type."""
    kinds: Dict[str, Optional[Tuple[str, str]]] = {}
    for n in program.own:
        target = None
        if isinstance(n, ast.Assign) and len(n.targets) == 1:
            target = n.targets[0]
        elif isinstance(n, ast.AnnAssign):
            target = n.target
        else:
            continue
        if not isinstance(target, ast.Name) or n.value is None:
            continue
        kind = _literal_kind(n.value)
        if target.id in kinds and kinds[target.id] != kind:
            kinds[target.id] = None  # ambiguous: stay silent
        else:
            kinds[target.id] = kind
    return {name: kind for name, kind in kinds.items() if kind is not None}


@rule(
    "RL004",
    "payload-typing",
    "payloads must stay inside the Payload algebra (int/bool/None/str and "
    "nested tuples/frozensets); lists, dicts, sets, and floats are flagged "
    "before the runtime serializer sees them",
)
def check_payload_typing(program: ProgramInfo) -> Iterator[Finding]:
    name_kinds = _local_literal_types(program)

    def walk(expr: ast.AST, path: str) -> Iterator[Finding]:
        kind = _literal_kind(expr)
        if kind is not None:
            type_name, hint = kind
            yield _finding(
                program,
                "RL004",
                expr,
                f"{path}: {type_name} can never be CONGEST-serialized "
                f"({hint})",
            )
            return
        if isinstance(expr, ast.Name) and expr.id in name_kinds:
            type_name, hint = name_kinds[expr.id]
            yield _finding(
                program,
                "RL004",
                expr,
                f"{path}: '{expr.id}' is a {type_name} and can never be "
                f"CONGEST-serialized ({hint})",
            )
            return
        if isinstance(expr, ast.Tuple):
            for i, element in enumerate(expr.elts):
                yield from walk(element, f"{path}[{i}]")

    for call, kind in program.sends:
        payload = None
        if kind == "send" and len(call.args) >= 2:
            payload = call.args[1]
        elif kind == "send_all" and call.args:
            payload = call.args[0]
        if payload is not None:
            yield from walk(payload, "payload")


# ---------------------------------------------------------------------------
# RL006/RL007 — bit budget and round bound (abstract interpretation)
# ---------------------------------------------------------------------------

@rule(
    "RL006",
    "bit-budget",
    "every ctx.send payload of a @node_program must have a statically "
    "certified bit-width within the declared CONGEST budget family "
    "(O(1) ⊆ O(log n) ⊆ O(d log n)); ⊤ (unbounded) is rejected",
)
def check_bit_budget(program: ProgramInfo) -> Iterator[Finding]:
    from .bitwidth import check_bit_budget as _check

    yield from _check(program)


@rule(
    "RL007",
    "round-bound",
    "message-emitting 'while True' loops must have a reachable "
    "break/return/raise: otherwise the number of communication rounds "
    "has no static bound tied to d or log n",
)
def check_round_bound(program: ProgramInfo) -> Iterator[Finding]:
    from .bitwidth import check_round_bound as _check

    yield from _check(program)


# ---------------------------------------------------------------------------
# RL008 — nondeterminism taint (dataflow)
# ---------------------------------------------------------------------------

@rule(
    "RL008",
    "nondeterminism-taint",
    "values derived from set/dict iteration order, unseeded randomness, "
    "id()/hash(), or wall-clock reads must not reach payloads or outputs "
    "— tracked through assignment chains and inlined helper calls",
)
def check_nondeterminism_taint(program: ProgramInfo) -> Iterator[Finding]:
    from .taint import check_taint as _check

    yield from _check(program)
