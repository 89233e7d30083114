"""Distributed certification of MSO properties on bounded treedepth.

The Bousquet–Feuilloley–Pierron scheme (PODC 2022) that this paper
"significantly enhances": a centralized prover assigns each node an
O_d(log n)-bit certificate; a 1-round verifier checks it.  Our certificate
for node v is::

    (parent id, depth, bag = root path ids, class id of v's subtree)

Verification (each node sees its own and all neighbors' certificates):

* structural: the parent is a neighbor one level up; the bag extends the
  parent's bag by v; every incident edge joins an ancestor/descendant pair
  (the shallower endpoint appears in the deeper endpoint's bag);
* semantic: v recomputes its subtree's homomorphism class from its
  children's certified classes and its own Base symbol, and compares;
  the root additionally checks the class is accepting.

Completeness: honest certificates from a valid elimination forest are
accepted everywhere.  Soundness: if G ⊭ φ, any certificate assignment is
rejected by some node — the structural checks force the bags to describe a
genuine elimination forest, and then the class recomputation forces the
root's class to be the true one, which is rejecting.  This needs G
connected, so that the forest is one tree: a root only sees its own
component's class, and each of two components can be connected while G
is not.  ``prove`` and ``verify`` refuse a disconnected network, as the
decision pipeline does.  (Both directions are
exercised by the test-suite's corruption fuzzing.)

Complexity contrast with Theorem 6.1 (benchmark E8): verification is a
single round but needs certificates of Θ(td(G) · log n) bits, while the
decision protocol needs O(2^{2d}) rounds but only O(log |𝒞|)-bit messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Tuple

from ..algebra import TreeAutomaton
from ..algebra.engine import subtree_states
from ..congest import (
    Inbox,
    NodeContext,
    payload_bits,
    require_connected,
    run_protocol,
)
from ..errors import CertificationError, ReproError
from ..graph import Graph, Vertex
from ..treedepth import EliminationForest, dfs_elimination_forest
from ..distributed.model_checking import ClassCodec, local_base_symbol


Certificate = Tuple[Any, int, Tuple[Vertex, ...], int]  # parent, depth, bag, class


@dataclass
class CertifiedInstance:
    """Prover output: per-node certificates plus size accounting."""

    certificates: Dict[Vertex, Certificate]
    max_certificate_bits: int
    codec: ClassCodec


def prove(
    graph: Graph,
    automaton: TreeAutomaton,
    forest: Optional[EliminationForest] = None,
) -> CertifiedInstance:
    """The centralized prover (complete knowledge of G, closed formula).

    Raises :class:`CertificationError` if G does not satisfy the property —
    a prover cannot certify a false statement.
    """
    if automaton.scope:
        raise CertificationError("certification works on closed formulas")
    require_connected(graph)
    if forest is None:
        forest = dfs_elimination_forest(graph)
    forest.validate_for(graph)
    if not forest.is_subforest_of(graph):
        # The 1-round verifier reads children's certificates from physical
        # neighbors, so tree edges must be graph edges (the DFS forest
        # always qualifies; depth <= 2^td by Lemma 2.5).
        raise CertificationError("prover forest must be a subforest of the graph")
    codec = ClassCodec(automaton)
    state_after = subtree_states(automaton, graph, forest)
    # A connected graph's elimination forest is one tree.
    (root,) = forest.roots()
    if not automaton.accepts(state_after[root]):
        raise CertificationError("instance does not satisfy the property")
    certificates = {}
    max_bits = 0
    for v in forest.vertices():
        parent = forest.parent(v)
        cert: Certificate = (
            parent if parent is not None else v,  # roots point to themselves
            forest.depth_of(v),
            tuple(forest.root_path(v)),
            codec.encode(state_after[v]),
        )
        certificates[v] = cert
        max_bits = max(max_bits, payload_bits(cert))
    return CertifiedInstance(
        certificates=certificates, max_certificate_bits=max_bits, codec=codec
    )


def verifier_program(automaton: TreeAutomaton, codec: ClassCodec):
    """The 1-round verifier: exchange certificates, check locally."""

    def program(ctx: NodeContext) -> Generator[None, Inbox, bool]:
        cert: Certificate = ctx.input["certificate"]
        parent, depth, bag, class_id = cert
        ctx.send_all(("cert", cert))
        inbox = yield

        # -- structural checks -----------------------------------------
        if len(bag) != depth or not bag or bag[-1] != ctx.node:
            return False
        if len(set(bag)) != depth:
            return False
        if depth == 1:
            if parent != ctx.node:
                return False
        else:
            if parent not in ctx.neighbors or bag[-2] != parent:
                return False
        neighbor_certs: Dict[Vertex, Certificate] = {}
        for sender, payload in inbox.items():
            if isinstance(payload, tuple) and payload and payload[0] == "cert":
                neighbor_certs[sender] = payload[1]
        if set(neighbor_certs) != set(ctx.neighbors):
            return False
        if not (0 <= class_id < codec.num_classes):
            return False
        if any(
            not (0 <= c[3] < codec.num_classes) for c in neighbor_certs.values()
        ):
            return False
        if depth > 1:
            p_parent, p_depth, p_bag, _ = neighbor_certs[parent]
            if p_depth != depth - 1 or p_bag != bag[:-1]:
                return False
        for u, (_, u_depth, u_bag, _) in neighbor_certs.items():
            if u_depth == depth:
                return False  # adjacent siblings: ancestry violated
            if u_depth < depth and u not in bag:
                return False
            if u_depth > depth and ctx.node not in u_bag:
                return False

        # -- semantic check: recompute the subtree class ------------------
        positions = tuple(
            pos for pos, ancestor in enumerate(bag[:-1], start=1)
            if ancestor in ctx.neighbors
        )
        symbol = local_base_symbol(
            {**ctx.input, "depth": depth, "anc_edge_positions": positions}
        )
        children = sorted(
            u
            for u, (u_parent, u_depth, _, _) in neighbor_certs.items()
            if u_parent == ctx.node and u_depth == depth + 1
        )
        try:
            state = automaton.close(
                depth,
                automaton.leaf(symbol),
                [codec.decode(neighbor_certs[child][3]) for child in children],
            )
        except ReproError:
            # Forged certificates can make the recomputation structurally
            # impossible (e.g. a child class from the wrong boundary size);
            # that is a rejection, not a crash.
            return False
        if codec.encode(state) != class_id:
            return False
        if depth == 1 and not automaton.accepts(state):
            return False
        return True

    return program


@dataclass
class VerificationResult:
    """Outcome of one verification round."""

    accepted: bool  # all nodes accepted
    rejecting_nodes: Tuple[Vertex, ...]
    rounds: int
    max_certificate_bits: int
    total_messages: int = 0


def verify(
    graph: Graph,
    automaton: TreeAutomaton,
    instance: CertifiedInstance,
) -> VerificationResult:
    """Run the 1-round verifier on the given certificate assignment.

    The message budget for the verification round equals the certificate
    size (the proof-labeling-scheme convention: the verifier exchanges
    certificates with its neighbors, and certificate size *is* the
    complexity measure).
    """
    require_connected(graph)
    inputs: Dict[Vertex, Dict[str, Any]] = {}
    for v in graph.vertices():
        edge_labels = {}
        cert = instance.certificates[v]
        bag = cert[2]
        for pos, ancestor in enumerate(bag[:-1], start=1):
            if graph.has_edge(ancestor, v):
                edge_labels[pos] = tuple(sorted(graph.edge_labels(ancestor, v)))
        inputs[v] = {
            "certificate": cert,
            "labels": tuple(sorted(graph.vertex_labels(v))),
            "edge_labels": edge_labels,
        }
    budget = max(
        64,
        max(payload_bits(("cert", c)) for c in instance.certificates.values()),
    )
    result = run_protocol(
        graph,
        verifier_program(automaton, instance.codec),
        inputs=inputs,
        budget=budget,
        max_rounds=10,
    )
    rejecting = tuple(sorted(v for v, ok in result.outputs.items() if not ok))
    return VerificationResult(
        accepted=not rejecting,
        rejecting_nodes=rejecting,
        rounds=result.rounds,
        max_certificate_bits=instance.max_certificate_bits,
        total_messages=result.metrics.total_messages,
    )
