"""RL006 fixture: a program outside the package calls a project helper
through an absolute import; the helper's sends count against it."""

from repro.congest import NodeContext, leader_election, node_program


@node_program
def leader_program(ctx: NodeContext):
    leader, _ = yield from leader_election(ctx, True, 3)
    return leader
