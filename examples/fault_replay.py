"""Fault replay: break a distributed run deterministically, then fix it.

Three acts on the same network and formula:

1. a faultless baseline of the full decision pipeline,
2. the same run under 15% message loss — unprotected, it fails closed
   rather than trust a rejection that lost messages may have caused, and
   the *same plan JSON* reproduces the same faults every time,
3. the run hardened with the redundancy-lockstep synchronizer, which
   pays retransmissions to recover the baseline verdict.

Run:  python examples/fault_replay.py
"""

from repro.api import Session
from repro.errors import FaultToleranceExceeded
from repro.faults import FaultPlan, RetryPolicy
from repro.graph import generators
from repro.mso import formulas


def attempt(phi, network, plan=None, retry=None):
    """One pipeline run, folded to a printable verdict string."""
    try:
        outcome = Session(network, d=3, faults=plan, retry=retry).decide(phi)
    except FaultToleranceExceeded:
        return "failed closed (FaultToleranceExceeded)", None
    if outcome.treedepth_exceeded:
        return "no verdict (reported td > d)", outcome
    return f"accepted={outcome.verdict}", outcome


def main() -> None:
    network = generators.random_bounded_treedepth(16, depth=3, seed=11)
    phi = formulas.h_free(generators.triangle())

    # Act 1 — the faultless baseline.
    verdict, baseline = attempt(phi, network)
    print(f"baseline:  {verdict} in {baseline.rounds} rounds")

    # Act 2 — 15% of all messages are destroyed, deterministically: the
    # plan serializes to JSON, and replaying the same JSON re-injects the
    # exact same faults (same seed -> same RNG draws).  Without retries a
    # lost message can make Algorithm 2 reject, so the run fails closed
    # instead of reporting td > d.
    plan = FaultPlan(seed=4, drop_rate=0.15)
    replayed = FaultPlan.from_json(plan.to_json())
    assert replayed == plan
    print(f"plan:      {plan.describe()} (JSON round-trips)")
    verdict, _ = attempt(phi, network, plan=replayed)
    print(f"unprotected under loss: {verdict}")
    again, _ = attempt(phi, network, plan=replayed)
    print(f"replay is deterministic: {again == verdict}")

    # Act 3 — the redundancy-lockstep synchronizer: each logical round
    # sends 5 redundant copies, so an edge loses a round only with
    # probability 0.15^5.  The verdict matches the baseline or the run
    # fails closed; it is never silently wrong.
    verdict, hardened = attempt(
        phi, network, plan=replayed, retry=RetryPolicy(attempts=5)
    )
    print(f"with retries: {verdict}")
    if hardened is not None:
        print(f"  agrees with baseline: {hardened.verdict == baseline.verdict}")
        print(f"  cost: {hardened.rounds} physical rounds "
              f"(baseline {baseline.rounds})")


if __name__ == "__main__":
    main()
