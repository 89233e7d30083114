"""repro.lint — CONGEST-conformance static analysis for node programs.

Rules
-----
RL001  locality         node code sees the network only through ``ctx``
RL002  determinism      no set/dict-order, unseeded-random, or id()/hash()
                        dependence in payloads, outputs, or control flow
RL003  round-structure  sends need a reachable yield; one send per neighbor
                        per round; message-producing loops must yield
RL004  payload-typing   payloads stay inside the Payload algebra
RL006  bit-budget       every send payload has a statically certified
                        bit-width within the declared CONGEST budget
                        family (abstract interpretation over the
                        call-graph-expanded program)
RL007  round-bound      message-emitting ``while True`` loops need a
                        reachable exit
RL008  nondeterminism-  dataflow taint: order/random/clock-derived values
       taint            must not reach payloads or outputs, even through
                        assignment chains and helper calls
RL009  static-vs-       observed run metrics must not exceed the static
       observed         bounds (``repro lint --verify-runs DIR`` only —
                        not in :data:`RULES`, it needs run artifacts)

The gap after RL004 is a retired rule; codes are never reused, so each
code keeps its meaning in old suppressions and SARIF logs.

Since v2 the analyzer is *interprocedural*: project-local helper calls
are inlined (bounded depth, cycle-safe) before rules run, so a violation
inside a helper is reported with the chain of call-site lines.  Suppress
a finding with ``# repro: noqa[RL003]`` on the offending line — or on
the call-site line for findings inside inlined helpers (bare
``# repro: noqa`` suppresses every rule).  ``repro lint
--show-unused-noqa`` reports suppressions that no longer match anything.
The adversarial ``Simulation(..., inbox_order="shuffle", seed=...)`` mode
is the dynamic cross-check for RL002/RL008, and ``--verify-runs`` is the
dynamic cross-check for RL006/RL007.
"""

from .analyzer import (
    LintError,
    UnusedNoqa,
    check_module,
    check_paths,
    check_program,
    check_source,
    discover_programs,
    find_unused_noqa,
    is_node_program,
    iter_python_files,
)
from .bitwidth import ProgramBound, SendBound, Width, certify_program
from .conformance import VerifyResult, verify_runs
from .findings import Finding, to_sarif
from .rules import RULES, Rule

__all__ = [
    "Finding",
    "LintError",
    "ProgramBound",
    "RULES",
    "Rule",
    "SendBound",
    "UnusedNoqa",
    "VerifyResult",
    "Width",
    "certify_program",
    "check_module",
    "check_paths",
    "check_program",
    "check_source",
    "discover_programs",
    "find_unused_noqa",
    "is_node_program",
    "iter_python_files",
    "to_sarif",
    "verify_runs",
]
