"""Independent oracle: composites as rooted ordered trees.

Here a composite really is a tree.  Internal nodes carry operad
labels, leaves are anonymous slots, and slot numbers are derived by
left-to-right traversal on demand, never stored.  Grafting is plain
subtree substitution, with no relabelling bookkeeping at all.  The
flat machine's relations are then recomputed from the tree shape, so
agreement between the two is meaningful evidence: they share no code
and no state representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import BoundsError, OperadError, OperadId, Position
from .flat_machine import FlatState, component_of, foliage_of, hat_map_of, hook_map_of


class DuplicateLabels(OperadError):
    """Grafting would put the same operad label in a tree twice."""


@dataclass(frozen=True)
class Leaf:
    """An open slot; all leaves are interchangeable."""


LEAF = Leaf()


@dataclass(frozen=True)
class TreeOperad:
    label: OperadId
    children: tuple  # Leaf or TreeOperad, left to right

    def __post_init__(self) -> None:
        if not self.children:
            raise BoundsError(f"node {self.label!r} needs at least one child")
        for child in self.children:
            if not isinstance(child, (Leaf, TreeOperad)):
                raise BoundsError(f"bad child {child!r} under {self.label!r}")

    @cached_property
    def _walked(self) -> tuple[FlatView, dict[OperadId, int]]:
        """_walk of this tree, done once: the tree is immutable.

        Shared by every comparison against this tree and every graft
        of it; callers must not mutate it.
        """
        return _walk(self)


def elementary(label: OperadId, arity: int) -> TreeOperad:
    if arity < 1:
        raise BoundsError(f"arity must be positive, got {arity}")
    return TreeOperad(label, (LEAF,) * arity)


def graft(tree1: TreeOperad, ii: Position, tree2: TreeOperad) -> TreeOperad:
    """Replace the ii-th leaf of tree1 (counting from 1) with tree2."""
    # the cached walks: a tree's leaves are its foliage, its labels the in_map keys
    view1, view2 = tree1._walked[0], tree2._walked[0]
    total = len(view1.foliage)
    if not 1 <= ii <= total:
        raise BoundsError(f"leaf {ii} does not exist, tree has {total} leaves")
    shared = view1.in_map.keys() & view2.in_map.keys()
    if shared:
        raise DuplicateLabels(f"labels on both sides: {', '.join(sorted(shared))}")

    seen = 0

    def rebuild(node: TreeOperad) -> TreeOperad:
        nonlocal seen
        kids = []
        for child in node.children:
            if isinstance(child, TreeOperad):
                kids.append(rebuild(child))
            else:
                seen += 1
                kids.append(tree2 if seen == ii else child)
        return TreeOperad(node.label, tuple(kids))

    return rebuild(tree1)


def format_tree(tree: TreeOperad) -> str:
    """Parenthesized form with leaves shown as traversal numbers."""
    counter = 0

    def walk(node: TreeOperad) -> str:
        nonlocal counter
        parts = []
        for child in node.children:
            if isinstance(child, TreeOperad):
                parts.append(walk(child))
            else:
                counter += 1
                parts.append(str(counter))
        return f"{node.label}({','.join(parts)})"

    return walk(tree)


@dataclass(frozen=True)
class FlatView:
    """The flat relations of one composite, recomputed from a tree."""

    foliage: tuple[Position, ...]
    in_map: dict[OperadId, frozenset[Position]]
    hat_map: dict[Position, OperadId]
    hook_map: dict[OperadId, OperadId]


def _walk(tree: TreeOperad) -> tuple[FlatView, dict[OperadId, int]]:
    """One pre-order walk: the flat view of tree and the arity of each node."""
    in_map: dict[OperadId, set[int]] = {}
    hat_map: dict[int, OperadId] = {}
    hook_map: dict[OperadId, OperadId] = {}
    arities: dict[OperadId, int] = {}
    counter = 0

    def walk(node: TreeOperad) -> None:
        nonlocal counter
        arities[node.label] = len(node.children)
        inputs = in_map.setdefault(node.label, set())
        for child in node.children:
            if isinstance(child, TreeOperad):
                hook_map[child.label] = node.label
                walk(child)
            else:
                counter += 1
                inputs.add(counter)
                hat_map[counter] = node.label

    walk(tree)
    view = FlatView(
        foliage=tuple(range(1, counter + 1)),
        in_map={k: frozenset(v) for k, v in in_map.items()},
        hat_map=hat_map,
        hook_map=hook_map,
    )
    return view, arities


def derive_flat_view(tree: TreeOperad) -> FlatView:
    return _walk(tree)[0]


def compare_with_flat(state: FlatState, root: OperadId, tree: TreeOperad) -> list[str]:
    """Mismatches between a machine composite and its mirror tree.

    Empty result means the flat relations restricted to root's
    component agree exactly with the relations recomputed from the
    tree.  The component is read from root's members row, so comparing
    members also checks that every grafted member is listed under the
    root.  A member with no in_op or arity_op entry shows up as an in
    or arity mismatch.

    Cost: O(state) per call on a FlatState, for its views: in_op is
    read once and hook_op by each root query; the rest is
    O(component).  The tree is walked once in its lifetime (the walk
    is cached on it), the machine side is read from root's hats and
    members rows, and each member costs one lookup in in_op and
    arity_op.  To check a whole state against its mirrors, use
    MirrorForest.agrees_with; this comparison runs only to explain a
    mismatch, root by root.
    """
    problems: list[str] = []
    view, arities = tree._walked

    if tree.label != root:
        problems.append(f"root: machine says {root!r}, tree says {tree.label!r}")
        return problems

    fol = foliage_of(state, root)
    if fol != view.foliage:
        problems.append(f"foliage: machine {fol} != tree {view.foliage}")

    members = sorted(component_of(state, root))
    if members != sorted(view.in_map):
        problems.append(f"members: machine {members} != tree {sorted(view.in_map)}")
        return problems

    in_op = state.in_op
    flat_in = {oo: in_op[oo] for oo in members if oo in in_op}
    if flat_in != view.in_map:
        problems.append(f"in: machine {flat_in} != tree {view.in_map}")

    flat_hat = hat_map_of(state, root)
    if flat_hat != view.hat_map:
        problems.append(f"hat: machine {flat_hat} != tree {view.hat_map}")

    flat_hook = hook_map_of(state, root)
    if flat_hook != view.hook_map:
        problems.append(f"hook: machine {flat_hook} != tree {view.hook_map}")

    for member in members:
        arity = state.arity_op.get(member)
        if arities[member] != arity:
            problems.append(f"arity: machine says {member!r} has {arity}, tree says {arities[member]}")

    return problems


class MirrorForest:
    """The mirror trees of a run and the flat relations they describe together.

    trees maps each root to its tree, keyed by the tree's own label.
    The other attributes are the union of the trees' cached flat views,
    in the machine's vocabulary, one per stored relation of a FlatState:
    arity_op on every node, hats with each tree's cached hat_map as its
    root's row, and members with each tree's cached hook_map as its
    root's row, for each tree that has a grafted node; the rows are
    shared and read-only.
    Labels never repeat across the trees, so the union is disjoint and
    each tree's view is its slice.

    Cost: new and graft are O(component).  Grafting keeps every label,
    so graft drops only op2's rows and writes the grafted tree's
    entries over the old ones.  agrees_with is one == per relation.
    """

    def __init__(self) -> None:
        self.trees: dict[OperadId, TreeOperad] = {}
        self.arity_op: dict[OperadId, int] = {}
        self.hats: dict[OperadId, dict[Position, OperadId]] = {}
        self.members: dict[OperadId, dict[OperadId, OperadId]] = {}

    def new(self, label: OperadId, arity: int) -> None:
        """Add the elementary tree of label as a new root."""
        if label in self.arity_op:
            raise DuplicateLabels(f"label already in the forest: {label}")
        self._add(elementary(label, arity))

    def graft(self, op1: OperadId, ii: Position, op2: OperadId) -> None:
        """Replace the trees of roots op1 and op2 by op2's grafted into leaf ii of op1's."""
        # grafted first: a graft that raises leaves the forest unchanged
        grafted = graft(self.trees[op1], ii, self.trees[op2])
        del self.trees[op2], self.hats[op2]
        self.members.pop(op2, None)
        self._add(grafted)

    def _add(self, tree: TreeOperad) -> None:
        view, arities = tree._walked
        root = tree.label
        self.trees[root] = tree
        self.arity_op.update(arities)
        self.hats[root] = view.hat_map
        if view.hook_map:
            self.members[root] = view.hook_map

    def agrees_with(self, state: FlatState) -> bool:
        """Whether each of the three stored relations of state equals the forest's.

        When they do, compare_with_flat finds nothing on any root: each
        root's slice of the state is its tree's view, the trees are keyed
        by their labels, the in_op view, read off arity_op and the hats,
        is each tree's in_map, and the hook_op view, read off the members
        rows, is each tree's hook_map.  It is stricter than those
        comparisons, since an entry under no tree's root also makes it false.
        """
        return state.arity_op == self.arity_op and state.hats == self.hats and state.members == self.members
