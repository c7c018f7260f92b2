"""Every reachable state at small bounds, up to relabelling.

A breadth-first search from the empty state fires every event the
guards allow and keys each state by the label-erased shapes of its
composites, decoded from the hats rows and the parent rows.  The number
of classes is the number of forests of planar trees with at most
max_oprd nodes of arity 1..max_args, counted here independently from
the generating function of the trees.
"""

from collections import deque
from math import comb

import pytest

from operadix import ComposeSeq, Config, NewOperad, apply_event, check_invariants, empty_state, roots
from operadix.tree_oracle import MirrorForest


def shape(state, root):
    """root's composite as a label-erased tree: a leaf is (), a node the tuple of its children.

    A member's children are its open slots and the members whose parent
    it is, ordered by their least leaf.
    """
    parents = state.members.get(root, {})
    kids = {m: [] for m in (root, *parents)}
    for p, owner in state.hats[root].items():
        kids[owner].append((p, ()))
    for m, parent in parents.items():
        kids[parent].append(m)

    def build(m):
        """(least leaf, shape) of the subtree below m."""
        parts = sorted(kid if isinstance(kid, tuple) else build(kid) for kid in kids[m])
        return parts[0][0], tuple(s for _, s in parts)

    return build(root)[1]


def class_key(state):
    return tuple(sorted(shape(state, root) for root in state.hats))


def successors(state):
    """Every event the guards allow on state, a fresh id for each creation."""
    cfg = state.config
    if len(state.arity_op) < cfg.max_oprd:
        for arity in range(1, cfg.max_args + 1):
            yield NewOperad(f"op{len(state.arity_op)}", arity)
    for op1 in roots(state):
        for op2 in roots(state):
            if op2 != op1:
                for ii in state.hats[op1]:
                    yield ComposeSeq(op1, ii, op2)


def reachable_classes(config):
    """Class key -> (a state of the class, the events that reach it), breadth first."""
    start = empty_state(config)
    classes = {class_key(start): (start, ())}
    queue = deque(classes.values())
    while queue:
        state, path = queue.popleft()
        for event in successors(state):
            after = apply_event(state, event)
            key = class_key(after)
            if key not in classes:
                classes[key] = (after, path + (event,))
                queue.append(classes[key])
    return classes


def planar_forests(max_nodes, max_args):
    """Forests of planar trees with at most max_nodes nodes, each of arity 1..max_args.

    T(x) = x * sum over a in 1..max_args of (1 + T(x))^a counts the
    trees by nodes; a forest is a multiset of trees.
    """
    def times(f, g):
        return [sum(f[i] * g[n - i] for i in range(n + 1)) for n in range(max_nodes + 1)]

    trees = [0] * (max_nodes + 1)
    for n in range(1, max_nodes + 1):
        one_plus_t = [1] + trees[1:]
        power, total = [1] + [0] * max_nodes, [0] * (max_nodes + 1)
        for _ in range(max_args):
            power = times(power, one_plus_t)
            total = [a + b for a, b in zip(total, power)]
        trees[n] = total[n - 1]

    forests = [1] + [0] * max_nodes
    for n in range(1, max_nodes + 1):
        # (1 - x^n)^-trees[n]: k trees of n nodes, chosen with repetition
        grown = [0] * (max_nodes + 1)
        for k in range(max_nodes // n + 1):
            for i in range(max_nodes + 1 - n * k):
                grown[i + n * k] += comb(trees[n] + k - 1, k) * forests[i]
        forests = grown
    return sum(forests)


@pytest.mark.parametrize("max_oprd, count", [(3, 236), (4, 2285)])
def test_every_reachable_class_is_well_formed_and_mirrored(max_oprd, count):
    config = Config(max_args=3, max_oprd=max_oprd, max_fol=3 * max_oprd)
    classes = reachable_classes(config)
    assert len(classes) == count == planar_forests(max_oprd, 3)
    for state, path in classes.values():
        assert check_invariants(state) == []
        forest = MirrorForest()
        for event in path:
            if isinstance(event, NewOperad):
                forest.new(event.op_id, event.arity)
            else:
                forest.graft(event.op1, event.pos, event.op2)
        assert forest.agrees_with(state)
