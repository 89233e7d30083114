"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(ReproError):
    """Invalid graph construction or query (unknown vertex, loop, ...)."""


class DecompositionError(ReproError):
    """An elimination forest or tree decomposition is invalid."""


class TreedepthExceededError(ReproError):
    """The input graph has treedepth larger than the promised bound.

    Distributed protocols report this instead of silently mis-deciding,
    mirroring the paper's "reports td(G) > d" outcome (Theorem 6.1).
    """

    def __init__(self, bound: int, message: str = ""):
        self.bound = bound
        super().__init__(message or f"graph has treedepth > {bound}")


class FormulaError(ReproError):
    """Malformed MSO formula (unbound variable, sort mismatch, parse error)."""


class CongestError(ReproError):
    """CONGEST model violation or simulator misuse."""


class PayloadTypeError(CongestError):
    """A message payload contains a value outside the Payload algebra.

    ``path`` names the offending sub-value (e.g. ``payload[2][0]``) so the
    error points at the exact culprit inside a nested container.
    """

    def __init__(self, path: str, type_name: str, hint: str = ""):
        self.path = path
        self.type_name = type_name
        message = f"{path}: {type_name} is not CONGEST-serializable"
        if hint:
            message += f" ({hint})"
        super().__init__(message)


class MessageTooLargeError(CongestError):
    """A single-round message exceeded the per-edge bit budget."""

    def __init__(self, bits: int, budget: int):
        self.bits = bits
        self.budget = budget
        super().__init__(f"message of {bits} bits exceeds CONGEST budget of {budget} bits")


class ProtocolError(CongestError):
    """A distributed protocol reached an inconsistent state."""


class FaultToleranceExceeded(CongestError):
    """Injected faults exceeded what the protocol can provably tolerate.

    Raised instead of returning a possibly-wrong answer: a neighbor went
    silent past the retransmission window, a crash left the surviving
    nodes with an inconsistent result, or lost messages made an
    unprotected run's td(G) > d rejection unreliable.  ``node`` and
    ``round`` (when known) locate the first detection point.
    """

    def __init__(self, message: str, node=None, round: int = 0):
        self.node = node
        self.round = round
        super().__init__(message)


class CertificationError(ReproError):
    """Raised by the certification prover on unsatisfiable instances."""
