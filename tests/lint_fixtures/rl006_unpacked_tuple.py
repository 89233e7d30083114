"""RL006 fixture: a program builds its (class id, weight) pairs first and
unpacks them in the send loop.  It must certify the width of sending each
pair straight from the inbox; a tuple's fields are charged apart."""

from repro.congest import NodeContext, node_program


@node_program
def table_program(ctx: NodeContext):
    codec = ctx.input["codec"]
    parent = ctx.input["parent"]
    inbox = yield
    entries = [(codec.encode(s), w) for s, w in inbox.items()]
    for cid, w in entries:
        ctx.send(parent, ("opt", (cid, w)))
        yield
