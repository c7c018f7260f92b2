"""Grafting machine over a flat relational state.

A composite operad is not stored as a tree.  The state keeps flat
relations indexed by operad identifiers and 1-based positions, and the
two events (create, compose) rewrite those relations wholesale.  The
open slots of a composite always carry the contiguous labels 1..n where
n is its arity; grafting renumbers every affected label.  That
relabelling rule is written once, in ComposeWitness.moved(): compose
applies it to the slot map (slot -> owning member), which the input
sets are read off, and the decoration layer applies it to the symbols
on the slots.

Vocabulary, with ``op2`` grafted into slot ``ii`` of the composite
rooted at ``op1``.  Three relations are stored:

  arity_op     arity at creation time; composition never changes it
  hats         root -> its row: each open slot of its composite -> the member owning it
  members      root -> its row: each member grafted below it -> the member it was
               directly grafted into, its parent

and six are read-only views of them:

  my_operads   every operad created so far, grafted or not: arity_op's keys
  in_op        per operad, the slot labels it owns: the hats rows inverted
  foliage      the open (position, root) slots of each composite: the rows' keys
  out_op       output positions, always {1}; its domain is the roots
  hook_op      member -> its parent: the members rows merged
  g_hook_op    member -> the root of its composite: the members rows inverted

Events are pure: they validate guards against the old state and return
a fresh state.  A rejected event raises GuardFailed carrying the
guard's label and leaves the old state untouched.

The stored relations are the only truth, and a state caches nothing.
Grafting acts on one composite at a time, so the hats and the members
are stored a row per root, which compose, the checks and the per-root
queries read; the roots are the keys of hats.  The rows are shared
between states, so never mutate a state in place: build a new one,
with dataclasses.replace.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Set
from dataclasses import dataclass
from functools import cached_property
from typing import TypeVar

from .core import (
    BoundsError,
    Config,
    GuardFailed,
    OperadId,
    Position,
    _arities_ok,
    is_operad_id,
)

V = TypeVar("V")
W = TypeVar("W")


@dataclass(frozen=True)
class NewOperad:
    """Create an elementary operad with the given arity."""

    op_id: OperadId
    arity: int
    outs: int = 1


@dataclass(frozen=True)
class ComposeSeq:
    """Graft the root op2 into slot pos of the composite rooted at op1."""

    op1: OperadId
    pos: Position
    op2: OperadId


Event = NewOperad | ComposeSeq


def _rows(pairs: Iterable[tuple[V, OperadId]], values: Mapping[V, W] = {}) -> dict[OperadId, dict[V, W | None]]:
    """Group (item, root) pairs by root into rows {item: values.get(item)}; a row is made once, not per item as setdefault."""
    rows: dict[OperadId, dict[V, W | None]] = {}
    for item, root in pairs:
        row = rows.get(root)
        if row is None:
            rows[root] = {item: values.get(item)}
        else:
            row[item] = values.get(item)
    return rows


@dataclass(frozen=True)
class FlatState:
    """A machine state: three stored relations and six read-only views.

    The views are built from the relations, in_op and out_op in
    arity_op's order, so SP1, invr10 and the key half of inv30 hold by
    construction, SP2's set halves hold whenever invr20 and its root
    half do, and inv60 holds whenever invr40 does.  Only a root with a
    grafted member has a members row.
    """

    config: Config
    arity_op: dict[OperadId, int]
    hats: dict[OperadId, dict[Position, OperadId]]
    members: dict[OperadId, dict[OperadId, OperadId]]

    @property
    def my_operads(self) -> Set[OperadId]:
        return self.arity_op.keys()

    @property
    def in_op(self) -> dict[OperadId, frozenset[Position]]:
        """Built from the hats rows on every read; an owner that is not an operad is skipped."""
        owned: dict[OperadId, list[Position]] = {op: [] for op in self.arity_op}
        for row in self.hats.values():
            for p, m in row.items():
                slots = owned.get(m)
                if slots is not None:
                    slots.append(p)
        return {op: frozenset(slots) for op, slots in owned.items()}

    @property
    def foliage(self) -> Set[tuple[Position, OperadId]]:
        """Built from the rows on every read, so the hot paths count slots by the rows' lengths."""
        return frozenset((p, root) for root, row in self.hats.items() for p in row)

    @property
    def out_op(self) -> dict[OperadId, frozenset[Position]]:
        grafted = self.g_hook_op
        return dict.fromkeys([op for op in self.arity_op if op not in grafted], frozenset({1}))

    @property
    def hook_op(self) -> dict[OperadId, OperadId]:
        """Built from the rows on every read, for dumps, the checks and the root queries; events read the rows."""
        return {m: parent for row in self.members.values() for m, parent in row.items()}

    @property
    def g_hook_op(self) -> dict[OperadId, OperadId]:
        """Built from the rows on every read, like hook_op."""
        return {m: root for root, row in self.members.items() for m in row}

    @property
    def _foliage_rows(self) -> dict[OperadId, dict[Position, OperadId]]:
        """Root -> a row keyed by its foliage positions: the hats themselves."""
        return self.hats


@dataclass(frozen=True)
class Sections:
    """The eight sections of a dump as read, before any check.

    Unlike a FlatState, a record may disagree with itself: its
    my_operads, in_op, foliage, out_op and g_hook_op are read from their
    own sections, so check_invariants can label a dump as it is.  Its hats
    are read into rows, one per root, in line order; its members rows
    are built from g_hook_op, each member's parent from hook_op.  check,
    export and the loaders read dumps into it; dump_state and
    state_to_json take it too.
    """

    config: Config
    my_operads: frozenset[OperadId]
    arity_op: dict[OperadId, int]
    foliage: frozenset[tuple[Position, OperadId]]
    out_op: dict[OperadId, frozenset[Position]]
    in_op: dict[OperadId, frozenset[Position]]
    hats: dict[OperadId, dict[Position, OperadId]]
    hook_op: dict[OperadId, OperadId]
    g_hook_op: dict[OperadId, OperadId]

    @cached_property
    def _foliage_rows(self) -> dict[OperadId, dict[Position, None]]:
        """The foliage section in rows, whose keys() inv40, SP1 and foliage_of read as a FlatState's hats."""
        return _rows(self.foliage)

    @cached_property
    def members(self) -> dict[OperadId, dict[OperadId, OperadId | None]]:
        """The ghook section in rows, root -> {member: its hook entry}, which invr40 and component_of read as a FlatState's."""
        return _rows(self.g_hook_op.items(), self.hook_op)

    def to_state(self) -> FlatState:
        """The FlatState of a record that check_invariants passes.

        By inv30, invr10, SP2, inv60, SP1 and invr40 the sections it
        drops are its views of the rest, and the ghook and hook sections
        go in as the rows the check built.
        """
        return FlatState(self.config, self.arity_op, self.hats, self.members)


def empty_state(config: Config | None = None) -> FlatState:
    return FlatState(config or Config(), arity_op={}, hats={}, members={})


def new_operad(state: FlatState, op_id: OperadId, arity: int, outs: int = 1) -> FlatState:
    """Add an elementary operad with slots 1..arity, all open.

    The arity must pass the arity rule of Config (g4) and outs must be
    the int 1 (g6): every operad gets the single output {1}.  The
    precondition is compose's, check_invariants(state) == []; then the
    foliage, at most the arity sum, stays within max_oprd * max_args,
    which Config keeps at or below max_fol, so no guard counts it.
    """
    cfg = state.config
    if not is_operad_id(op_id):
        raise GuardFailed("id-token", f"operad id must be letters, digits or underscores, got {op_id!r}")
    if len(state.arity_op) >= cfg.max_oprd:
        raise GuardFailed("g1", f"operad count is at the max_oprd bound {cfg.max_oprd}")
    if op_id in state.arity_op:
        raise GuardFailed("g3", f"operad {op_id!r} already exists")
    if not _arities_ok((arity,), cfg):
        raise GuardFailed("g4", f"arity must be in 1..{cfg.max_args}, got {arity}")
    if type(outs) is not int or outs != 1:
        raise GuardFailed("g6", f"output count must be 1, got {outs}")
    positions = range(1, arity + 1)
    return FlatState(
        config=cfg,
        arity_op={**state.arity_op, op_id: arity},
        hats={**state.hats, op_id: dict.fromkeys(positions, op_id)},
        members=state.members,
    )


@dataclass(frozen=True)
class ComposeWitness:
    """What one grafting step did, for the law checks and for transport.

    The relabelling rule is written here only, in moved().  With shift =
    cardfol2 - 1, a slot p of op1's side stays p when p < ii,
    disappears when p == ii and becomes p + shift when p > ii; a slot p
    of op2's side becomes p + ii - 1.
    """

    op1: OperadId
    op2: OperadId
    ii: Position
    cardfol1: int
    cardfol2: int

    def moved(self, outer: dict[Position, V], grafted: dict[Position, V]) -> dict[Position, V]:
        """The relabelling rule on slot maps.

        outer is a slot map of op1's side, grafted one of op2's side.
        Slots of outer below ii keep their labels, ii disappears, and
        those above ii shift up by cardfol2 - 1; slots of grafted land
        on ii..ii+cardfol2-1.  The result lists outer's low slots, then
        grafted's, then outer's high slots, each in the order given.
        """
        ii = self.ii
        lifted = {p + ii - 1: v for p, v in grafted.items()}
        if not outer:
            return lifted
        shift = self.cardfol2 - 1
        relabelled = {p: v for p, v in outer.items() if p < ii}
        relabelled.update(lifted)
        relabelled.update({p + shift: v for p, v in outer.items() if p > ii})
        return relabelled


def compose_seq_with_witness(
    state: FlatState, op1: OperadId, ii: Position, op2: OperadId
) -> tuple[FlatState, ComposeWitness]:
    """Graft op2 into slot ii of op1's composite; also return the witness.

    Precondition: check_invariants(state) == [], which every state built
    by events or returned by a loader meets; a state built with
    dataclasses.replace is the caller's to check.  op1's new row holds
    the relabelled slot map, witness.moved(hat1, hat2).

    Cost: the Python work is O(component): the guards and op1's new
    hats and members rows, each built from the rows of op1 and op2.
    Building the new state also copies the outer dicts of hats and
    members, one entry per root, in C.
    """
    if op1 == op2:
        raise GuardFailed("op-distinct", f"cannot compose {op1!r} with itself")
    if op1 not in state.arity_op:
        raise GuardFailed("rg20", f"unknown operad {op1!r}")
    if op2 not in state.arity_op:
        raise GuardFailed("rg22", f"unknown operad {op2!r}")
    # by the precondition the roots are the keys of hats
    if op1 not in state.hats:
        raise GuardFailed("rg26", f"{op1!r} is grafted inside a composite and cannot be a target")
    if op2 not in state.hats:
        raise GuardFailed("rg24", f"{op2!r} is grafted inside a composite and cannot be grafted again")

    members = state.members
    # the rows are shared between states, read-only
    hat1 = state.hats[op1]
    hat2 = state.hats[op2]
    if type(ii) is not int or ii not in hat1:
        raise GuardFailed("rg72", f"position {ii} is not an open slot of the composite rooted at {op1!r}")
    hat_op_ii = hat1[ii]
    cardfol1 = len(hat1)
    cardfol2 = len(hat2)
    witness = ComposeWitness(op1, op2, ii, cardfol1, cardfol2)

    new_hats = {**state.hats, op1: witness.moved(hat1, hat2)}
    del new_hats[op2]
    # op2 hangs from the member owning slot ii; op2's own row keeps its parents
    new_members = {**members, op1: {**members.get(op1, {}), op2: hat_op_ii, **members.get(op2, {})}}
    new_members.pop(op2, None)

    new_state = FlatState(config=state.config, arity_op=state.arity_op, hats=new_hats, members=new_members)
    return new_state, witness


def compose_seq(state: FlatState, op1: OperadId, ii: Position, op2: OperadId) -> FlatState:
    new_state, _ = compose_seq_with_witness(state, op1, ii, op2)
    return new_state


def apply_event(state: FlatState, event: Event) -> FlatState:
    if isinstance(event, NewOperad):
        return new_operad(state, event.op_id, event.arity, event.outs)
    if isinstance(event, ComposeSeq):
        return compose_seq(state, event.op1, event.pos, event.op2)
    raise BoundsError(f"unknown event {event!r}")


def roots(state: FlatState) -> tuple[OperadId, ...]:
    """Operads not grafted anywhere, sorted; each roots one composite and keys one hats row."""
    return tuple(sorted(state.hats))


def _require_root(state: FlatState, root: OperadId) -> None:
    if root not in state.my_operads:
        raise BoundsError(f"unknown operad {root!r}")
    if root in state.hook_op:
        raise BoundsError(f"{root!r} is grafted inside a composite, not a root")


def component_of(state: FlatState, root: OperadId) -> frozenset[OperadId]:
    """The root together with every member grafted below it."""
    _require_root(state, root)
    return frozenset([root, *state.members.get(root, ())])


def foliage_of(state: FlatState, root: OperadId) -> tuple[Position, ...]:
    _require_root(state, root)
    return tuple(sorted(state._foliage_rows.get(root, ())))


def hat_map_of(state: FlatState, root: OperadId) -> dict[Position, OperadId]:
    """The hats of root's composite, in row order; a copy the caller may keep."""
    _require_root(state, root)
    return dict(state.hats.get(root, {}))


def in_map_of(state: FlatState, root: OperadId) -> dict[OperadId, frozenset[Position]]:
    in_op = state.in_op
    return {oo: in_op[oo] for oo in sorted(component_of(state, root))}


def hook_map_of(state: FlatState, root: OperadId) -> dict[OperadId, OperadId]:
    hook_op = state.hook_op
    return {oo: hook_op[oo] for oo in sorted(component_of(state, root)) if oo in hook_op}


def _within_bounds(state: FlatState | Sections) -> tuple[bool, bool, bool]:
    """The bound halves of inv10 (max_oprd, id rule), inv30 (arity rule) and inv40 (max_fol)."""
    cfg = state.config
    return (
        len(state.my_operads) <= cfg.max_oprd and all(map(is_operad_id, state.my_operads)),
        _arities_ok(state.arity_op.values(), cfg),
        sum(map(len, state._foliage_rows.values())) <= cfg.max_fol,
    )


def _reaches_root(root: OperadId, row: Mapping[OperadId, OperadId | None]) -> bool:
    """Whether each member's parent chain, followed within root's members row, ends at root: no cycle, no way out."""
    reached = {root}
    for m in row:
        chain = set()
        while m not in reached:
            if m not in row or m in chain:
                return False
            chain.add(m)
            m = row[m]
        reached |= chain
    return True


def check_invariants(state: FlatState | Sections) -> list[str]:
    """Labels of the violated invariants, in canonical order.

    This defines a well-formed state: load_state and load_decorated
    reject a dump's Sections record with any label, and compose assumes
    there is none.  It labels a raw record as it is, by attribute name;
    on a FlatState, whose in_op and out_op are views, SP1, invr10 and
    inv30's key half hold by construction, SP2's set halves hold
    whenever invr20 and its root half do, and inv60 holds whenever
    invr40 does.  Typing invariants (inv*, invr*) bound the relations
    as the creation guards do and type them by my_operads: every arity
    follows Config's arity rule, each root's foliage positions are
    exactly 1..n for its n > 0 slots, arity_op and in_op are keyed by
    exactly the operads, out_op is {1} on exactly the roots, hook_op and
    g_hook_op share their keys, the members rows are not empty, list
    each member once and key no member, and each member's parent chain,
    followed within its row, reaches the row's root.  Each structural
    one holds for the whole state at once:

      SP1  every open slot has one hat: root by root, the row's keys are the foliage
      SP2  each input set is exactly the slots its member owns: each hat
           lies in its owner's set under its owner's root, and the sets
           hold as many slots as there are hats
      SP3  each arity is the open inputs plus the direct children

    Not exact: a non-planar state passes, such as f:3 o_2 g:2 with
    in f = {1,3}, in g = {2,4} and the hats to match.  Cost: O(state),
    in Python passes over the ids, the hats (twice on a FlatState,
    once more for the in_op view), the operads and the members rows
    (on a FlatState, once more for each view built from them).
    A state that a MirrorForest agrees with meets every rule here but
    the bounds, so the simulator calls this only to name a failure.
    """
    ids_ok, arities_ok, fol_ok = _within_bounds(state)
    bad: list[str] = []
    ops = state.my_operads
    in_op = state.in_op
    arity_op = state.arity_op
    hats = state.hats
    fol_rows = state._foliage_rows
    members = state.members
    hook_op = state.hook_op
    g_hook_op = state.g_hook_op

    if not ids_ok:
        bad.append("inv10")
    if not (arity_op.keys() == ops and arities_ok):
        bad.append("inv30")
    if not (
        fol_ok
        and ops >= fol_rows.keys()
        and all(row and row.keys() == set(range(1, len(row) + 1)) for row in fol_rows.values())
    ):
        bad.append("inv40")
    if state.out_op != dict.fromkeys(ops - g_hook_op.keys(), frozenset({1})):
        bad.append("inv60")
    if in_op.keys() != ops:
        bad.append("invr10")
    if not (ops >= hats.keys() and all(ops >= set(row.values()) for row in hats.values())):
        bad.append("invr20")
    if not (
        ops >= g_hook_op.keys()
        and ops >= members.keys()
        and all(members.values())
        # g_hook_op keeps one root per member, so a member listed in two rows makes the counts differ
        and sum(map(len, members.values())) == len(g_hook_op)
        and hook_op.keys() == g_hook_op.keys()
        and members.keys().isdisjoint(g_hook_op)
        and all(_reaches_root(root, row) for root, row in members.items())
    ):
        bad.append("invr40")

    if hats.keys() != fol_rows.keys() or any(row.keys() != fol_rows[root].keys() for root, row in hats.items()):
        bad.append("SP1")
    if sum(map(len, in_op.values())) != sum(map(len, hats.values())) or not all(
        p in in_op.get(m, ()) and g_hook_op.get(m, m) == root for root, row in hats.items() for p, m in row.items()
    ):
        bad.append("SP2")
    children = dict.fromkeys(ops, 0)
    for parent in hook_op.values():
        children[parent] = children.get(parent, 0) + 1
    if any(arity_op.get(op) != len(in_op.get(op, ())) + children[op] for op in ops):
        bad.append("SP3")

    return bad


def composition_law_violations(state: FlatState, witness: ComposeWitness) -> list[str]:
    """Cheap structural laws checked right after one grafting step.

    law-size  the new composite has cardfol1 + cardfol2 - 1 slots,
              contiguously labelled from 1

    The arity sum of the composite needs no law of its own: SP1-SP3
    and invr40 of check_invariants imply it.
    """
    fol = sorted(state.hats.get(witness.op1, ()))
    return [] if fol == list(range(1, witness.cardfol1 + witness.cardfol2)) else ["law-size"]
