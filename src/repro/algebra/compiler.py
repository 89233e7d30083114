"""Compile MSO formulas into tree automata (Theorem 4.2, constructive).

The compilation is by structural induction, exactly the Borie-Parker-Tovey
recipe instantiated on the treedepth algebra:

* atoms           → hand-written scan / pending automata (one item scan
  covers =, ∈, inclusion, intersection, non-emptiness, labels and covers),
* ∧ / ∨           → product automata,
* ¬               → complement (sound: every automaton is deterministic),
* ∃X (set sort)   → projection + lazy subset construction,
* ∃x (element)    → projection of (body ∧ "the guessed set is a singleton"),
* ∀ (either sort) → ¬∃¬.

The resulting automaton's interned states are the homomorphism classes 𝒞;
its transitions are the update functions ⊙_f; ``accepts`` marks the
accepting classes.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..errors import FormulaError
from ..mso import syntax as sx
from .automata import (
    CliqueAutomaton,
    ComplementAutomaton,
    ConstAutomaton,
    ContainsPatternAutomaton,
    EdgeWitnessAutomaton,
    EndpointsInAutomaton,
    IncCountsAutomaton,
    IncParityAutomaton,
    ItemScanAutomaton,
    ProductAutomaton,
    ProjectionAutomaton,
    SingletonAutomaton,
    TreeAutomaton,
)


def compile_formula(
    formula: sx.Formula, scope: Sequence[sx.Var] = ()
) -> TreeAutomaton:
    """Compile ``formula`` (free variables exactly ``scope``) to an automaton.

    ``scope`` fixes the order of the free variables: membership bits on
    Base symbols are indexed by position in this tuple.
    """
    from ..mso.transform import simplify

    scope = tuple(scope)
    sx.validate(formula, allowed_free=scope)
    return _compile(simplify(formula), scope)


def compile_with_singletons(
    formula: sx.Formula, scope: Sequence[sx.Var]
) -> TreeAutomaton:
    """Like :func:`compile_formula`, but element-sorted free variables are
    constrained to be singletons.

    This is the automaton for counting runs (Section 6): free vertex/edge
    variables must range over single items, not sets.
    """
    scope = tuple(scope)
    base = compile_formula(formula, scope)
    singletons = [
        SingletonAutomaton(scope, i)
        for i, var in enumerate(scope)
        if not var.sort.is_set
    ]
    if not singletons:
        return base
    return ProductAutomaton(scope, [base] + singletons, conjunctive=True)


def _index(scope: Tuple[sx.Var, ...], var: sx.Var) -> int:
    try:
        return scope.index(var)
    except ValueError:
        raise FormulaError(f"variable {var} escaped its scope") from None


def _scan(
    scope: Tuple[sx.Var, ...],
    inside: Sequence[sx.Var] = (),
    outside: Sequence[sx.Var] = (),
    **options,
) -> ItemScanAutomaton:
    """The item scan over the given variables (see :class:`ItemScanAutomaton`)."""
    return ItemScanAutomaton(
        scope,
        inside=[_index(scope, v) for v in inside],
        outside=[_index(scope, v) for v in outside],
        **options,
    )


def _compile(f: sx.Formula, scope: Tuple[sx.Var, ...]) -> TreeAutomaton:
    if isinstance(f, sx.Truth):
        return ConstAutomaton(scope, f.value)
    if isinstance(f, sx.Adj):
        return EdgeWitnessAutomaton(
            scope, x=_index(scope, f.x), y=_index(scope, f.y)
        )
    if isinstance(f, sx.Inc):
        return EdgeWitnessAutomaton(
            scope, x=_index(scope, f.x), y=None, edge_filter=_index(scope, f.e)
        )
    if isinstance(f, sx.EdgeCross):
        return EdgeWitnessAutomaton(
            scope,
            x=_index(scope, f.x),
            y=_index(scope, f.y) if f.y is not None else None,
            edge_filter=_index(scope, f.e),
        )
    # Element variables are singleton sets: x = y and x ∈ S are
    # intersections; the ∀ atoms scan for a counterexample.
    if isinstance(f, sx.Eq):
        return _scan(scope, inside=(f.x, f.y))
    if isinstance(f, sx.In):
        return _scan(scope, inside=(f.x, f.s))
    if isinstance(f, sx.SetsIntersect):
        return _scan(scope, inside=(f.a, f.b))
    if isinstance(f, sx.NonEmpty):
        return _scan(scope, inside=(f.a,))
    if isinstance(f, sx.Subset):
        return _scan(scope, inside=(f.a,), outside=f.bs, universal=True)
    if isinstance(f, sx.AllVerticesIn):
        return _scan(scope, kind="v", outside=f.bs, universal=True)
    if isinstance(f, sx.AllEdgesIn):
        return _scan(scope, kind="e", outside=f.bs, universal=True)
    if isinstance(f, sx.HasLabel):
        return _scan(scope, inside=(f.a,), label=f.label)
    if isinstance(f, sx.AllHaveLabel):
        return _scan(
            scope, inside=(f.a,), label=f.label, labelled=False, universal=True
        )
    if isinstance(f, sx.ContainsPattern):
        return ContainsPatternAutomaton(scope, f.num_vertices, f.edges, f.induced)
    if isinstance(f, sx.GraphDegrees):
        return IncCountsAutomaton(
            scope, e=None, allowed=f.allowed, within=None, cap=f.cap
        )
    if isinstance(f, sx.IncCounts):
        return IncCountsAutomaton(
            scope,
            e=_index(scope, f.e),
            allowed=f.allowed,
            within=_index(scope, f.within) if f.within is not None else None,
            cap=f.cap,
        )
    if isinstance(f, sx.IncParity):
        return IncParityAutomaton(
            scope,
            e=_index(scope, f.e),
            even=f.even,
            within=_index(scope, f.within) if f.within is not None else None,
        )
    if isinstance(f, sx.IsClique):
        return CliqueAutomaton(scope, _index(scope, f.x))
    if isinstance(f, sx.EndpointsIn):
        return EndpointsInAutomaton(scope, _index(scope, f.e), _index(scope, f.x))
    if isinstance(f, sx.Not):
        return ComplementAutomaton(scope, _compile(f.inner, scope))
    if isinstance(f, sx.And):
        return ProductAutomaton(
            scope, [_compile(p, scope) for p in f.parts], conjunctive=True
        )
    if isinstance(f, sx.Or):
        return ProductAutomaton(
            scope, [_compile(p, scope) for p in f.parts], conjunctive=False
        )
    if isinstance(f, sx.Exists):
        return _compile_exists(f.var, f.body, scope)
    if isinstance(f, sx.Forall):
        # ∀v φ  ≡  ¬∃v ¬φ.
        rewritten = sx.Not(sx.Exists(f.var, sx.Not(f.body)))
        return _compile(rewritten, scope)
    raise FormulaError(f"unknown formula node {f!r}")


def _compile_exists(
    var: sx.Var, body: sx.Formula, scope: Tuple[sx.Var, ...]
) -> TreeAutomaton:
    inner_scope = scope + (var,)
    inner = _compile(body, inner_scope)
    if not var.sort.is_set:
        # Element quantification: the guessed set must contain exactly one
        # item of the right kind.
        singleton = SingletonAutomaton(inner_scope, len(scope))
        inner = ProductAutomaton(inner_scope, [inner, singleton], conjunctive=True)
    return ProjectionAutomaton(inner, var)
