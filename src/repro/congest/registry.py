"""Registry of node programs, for discovery by tooling.

Decorating a node program (or the inner ``program`` closure returned by a
program *factory*) with :func:`node_program` records it under its qualified
name.  The runtime does not require registration — any generator function
works as a :data:`~repro.congest.runtime.NodeProgram` — but registered
programs are discoverable by ``repro lint`` (:func:`repro.lint.check_registered`)
and by anything else that wants to enumerate the protocols a process knows
about.

Registration is idempotent per qualified name: re-invoking a factory
re-registers the same qualname rather than growing the table, so factories
may decorate their closures freely.  The registry refers to programs
weakly: a factory's closure captures its run's automaton and codec, and
must not keep them alive after the run.  A module-level program lives as
long as its module; a closure is listed while something still runs it.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Iterator, Optional, Tuple

_REGISTRY: Dict[str, weakref.ref[Callable]] = {}


def node_program(
    func: Optional[Callable] = None,
    *,
    name: Optional[str] = None,
    bits: str = "O(log n)",
    rounds: Optional[str] = None,
) -> Callable:
    """Register ``func`` as a CONGEST node program (usable as a decorator).

    The program is stored under ``name`` or its ``module:qualname``.  The
    function itself is returned unchanged, with a ``__repro_node_program__``
    marker attribute so tooling can recognize it without importing this
    module.

    ``bits`` declares the program's per-message CONGEST budget family —
    one of ``"O(1)"``, ``"O(log n)"`` (the default, the paper's regime),
    or ``"O(d log n)"``.  ``rounds``, when given, is an arithmetic
    expression over ``n`` and ``d`` (e.g. ``"20 + 6*2**d + 2*n"``)
    bounding the number of communication rounds.  Both declarations are
    certified statically by ``repro lint`` (RL006) and checked against
    observed run metrics by ``repro lint --verify-runs`` (RL009).
    """

    def register(target: Callable) -> Callable:
        key = name or f"{target.__module__}:{target.__qualname__}"
        target.__repro_node_program__ = True
        target.__repro_bits__ = bits
        target.__repro_rounds__ = rounds
        _REGISTRY[key] = weakref.ref(target)
        return target

    if func is not None:
        return register(func)
    return register


def registered_programs() -> Dict[str, Callable]:
    """A snapshot of the registry: qualified name -> live program function."""
    live = ((key, ref()) for key, ref in _REGISTRY.items())
    return {key: func for key, func in live if func is not None}


def iter_registered() -> Iterator[Tuple[str, Callable]]:
    """Iterate live (name, program) pairs in deterministic (sorted) order."""
    yield from sorted(registered_programs().items())
