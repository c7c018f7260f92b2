"""Input generators and reference results that share no code with operadix.

Programs are generated here as plain tuples, so the expected parse tree,
the expected final state of a replayed trace and the expected table of an
evaluated expression are all derived from the generator's own data, never
from the package under test.

A program tree is either a leaf ``(name, arity)`` or a node
``(left, pos, right, arity)``, where ``pos`` is the slot of ``left`` that
takes ``right`` and ``arity`` is the number of open slots of the node.
"""

from __future__ import annotations

import itertools


def random_tree(rng, atoms: list[tuple[str, int]]):
    """A random bracketing of the atoms, in order, with valid slots."""
    if len(atoms) == 1:
        return atoms[0]
    cut = rng.randint(1, len(atoms) - 1)
    left = random_tree(rng, atoms[:cut])
    right = random_tree(rng, atoms[cut:])
    pos = rng.randint(1, arity(left))
    return (left, pos, right, arity(left) + arity(right) - 1)


def arity(tree) -> int:
    return tree[1] if len(tree) == 2 else tree[3]


def leftmost(tree) -> str:
    """The atom that roots the composite the tree builds."""
    while len(tree) == 4:
        tree = tree[0]
    return tree[0]


def source_text(rng, decls: list[tuple[str, int]], tree) -> str:
    """A program in a randomly chosen mix of the accepted surface forms."""
    parts = [f"{name}:{n};" for name, n in decls]
    if rng.random() < 0.5:
        parts.insert(0, "# generated program\n")
    head = "".join(rng.choice((" ", "\n", "  ")) + p for p in parts)
    return head + "\n" + _expr_text(rng, tree) + "\n"


def _expr_text(rng, tree) -> str:
    if len(tree) == 2:
        return tree[0]
    left, pos, right, _ = tree
    op = rng.choice((f"o_{pos}", f"@{pos}", f"@ {pos}", f"o_ {pos}"))
    left_text = _expr_text(rng, left)
    if len(left) == 4 and rng.random() < 0.5:
        left_text = f"({left_text})"
    right_text = _expr_text(rng, right)
    if len(right) == 4:
        right_text = f"({right_text})"
    return f"{left_text} {op} {right_text}"


def table_of(tree, tables: dict[str, tuple[int, ...]], carrier: int) -> tuple[int, ...]:
    """The function a tree denotes, evaluated point by point.

    Each argument tuple is pushed through the tree directly; no
    intermediate composite table is ever built.
    """
    return tuple(
        _value_at(tree, args, tables, carrier)
        for args in itertools.product(range(carrier), repeat=arity(tree))
    )


def _value_at(tree, args: tuple[int, ...], tables, carrier: int) -> int:
    if len(tree) == 2:
        index = 0
        for a in args:
            index = index * carrier + a
        return tables[tree[0]][index]
    left, pos, right, _ = tree
    m = arity(right)
    inner = _value_at(right, args[pos - 1 : pos - 1 + m], tables, carrier)
    return _value_at(left, args[: pos - 1] + (inner,) + args[pos - 1 + m :], tables, carrier)


def composites_after(trace) -> tuple[dict[str, int], dict[str, int]]:
    """Leaf count per root and arity per operad after a trace.

    Trace entries are read by attribute only: ``op_id``/``arity`` for a
    creation, ``op1``/``op2`` for a graft, neither for a reset.  Grafting
    an m-leaf composite into one leaf of an n-leaf composite leaves
    n + m - 1 leaves.
    """
    leaves: dict[str, int] = {}
    arities: dict[str, int] = {}
    for event in trace:
        if hasattr(event, "op_id"):
            leaves[event.op_id] = arities[event.op_id] = event.arity
        elif hasattr(event, "op1"):
            leaves[event.op1] += leaves.pop(event.op2) - 1
        else:
            leaves.clear()
            arities.clear()
    return leaves, arities


def state_problems(state, leaves: dict[str, int], arities: dict[str, int]) -> list[str]:
    """Where a machine state disagrees with the expected composites."""
    problems = []
    found_roots = {op for op in state.my_operads if op not in state.g_hook_op}
    if found_roots != set(leaves):
        problems.append(f"roots {sorted(found_roots)} != expected {sorted(leaves)}")
    expected = {(p, root) for root, n in leaves.items() for p in range(1, n + 1)}
    if set(state.foliage) != expected:
        problems.append("foliage differs from 1..leaves per root")
    if dict(state.arity_op) != arities:
        problems.append("arities differ from the created operads")
    return problems
