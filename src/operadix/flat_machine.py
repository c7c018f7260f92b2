"""Grafting machine over a flat relational state.

A composite operad is not stored as a tree.  The state keeps flat
relations indexed by operad identifiers and 1-based positions, and the
two events (create, compose) rewrite those relations wholesale.  The
open slots of a composite always carry the contiguous labels 1..n where
n is its arity; grafting renumbers every affected label.  That
relabelling rule is written once, in ComposeWitness.moved: compose
applies it to hats and input sets, and the decoration layer to the
symbols on the slots.

Vocabulary, with ``op2`` grafted into slot ``ii`` of the composite
rooted at ``op1``:

  my_operads   every operad created so far, grafted or not
  arity_op     arity at creation time; composition never changes it
  foliage      (position, root) pairs: the open slots of each composite
  out_op       output positions, always {1}; its domain is the roots
  in_op        per member, the slot labels that belong to that member
  g_hat_op     (position, root) -> the member owning that slot
  hook_op      member -> the member it was directly grafted into
  g_hook_op    member -> the root of its composite

Events are pure: they validate guards against the old state and return
a fresh state.  A rejected event raises GuardFailed carrying the
guard's label and leaves the old state untouched.

The relations are the only stored truth.  Readers that need the entries
of one root (compose, the checks, the per-root queries) share a private
per-root index: foliage positions, hats and grafted members bucketed by
root.  It is derived from the relations in one pass each, on first use,
and cached on the state.  A state must therefore never be mutated in
place: build a new one, with dataclasses.replace if need be, and its
index is derived afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, TypeVar

from .core import (
    BoundsError,
    Config,
    GuardFailed,
    OperadId,
    OverflowFoliage,
    Position,
    is_operad_id,
)

V = TypeVar("V")


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


class _RootIndex(NamedTuple):
    """The relations bucketed by root; readers must not mutate it."""

    foliage: dict[OperadId, set[Position]]  # root -> its foliage positions
    hats: dict[OperadId, dict[Position, OperadId]]  # key root -> {position: owner}
    members: dict[OperadId, list[OperadId]]  # root -> members grafted below it


@dataclass(frozen=True)
class FlatState:
    config: Config
    my_operads: frozenset[OperadId]
    arity_op: dict[OperadId, int]
    foliage: frozenset[tuple[Position, OperadId]]
    out_op: dict[OperadId, frozenset[Position]]
    in_op: dict[OperadId, frozenset[Position]]
    g_hat_op: dict[tuple[Position, OperadId], OperadId]
    hook_op: dict[OperadId, OperadId]
    g_hook_op: dict[OperadId, OperadId]

    @cached_property
    def _index(self) -> _RootIndex:
        """Per-root buckets of foliage, g_hat_op (in its order) and g_hook_op.

        A cached property, not a field: equality, repr, dumps and
        replace() see only the relations.  Buckets are made on the first
        entry of each root, not per entry as setdefault would.
        """
        foliage: dict[OperadId, set[Position]] = {}
        for p, oo in self.foliage:
            bucket = foliage.get(oo)
            if bucket is None:
                foliage[oo] = {p}
            else:
                bucket.add(p)
        hats: dict[OperadId, dict[Position, OperadId]] = {}
        for (p, oo), member in self.g_hat_op.items():
            row = hats.get(oo)
            if row is None:
                hats[oo] = {p: member}
            else:
                row[p] = member
        members: dict[OperadId, list[OperadId]] = {}
        for oo, root in self.g_hook_op.items():
            below = members.get(root)
            if below is None:
                members[root] = [oo]
            else:
                below.append(oo)
        return _RootIndex(foliage, hats, members)


def empty_state(config: Config | None = None) -> FlatState:
    return FlatState(
        config=config or Config(),
        my_operads=frozenset(),
        arity_op={},
        foliage=frozenset(),
        out_op={},
        in_op={},
        g_hat_op={},
        hook_op={},
        g_hook_op={},
    )


def new_operad(state: FlatState, op_id: OperadId, arity: int, outs: int = 1) -> FlatState:
    """Add an elementary operad with slots 1..arity, all open.

    The outs argument is bounds-checked against max_out, which Config
    pins to 1: every operad gets the single output {1}.
    """
    cfg = state.config
    if not is_operad_id(op_id):
        raise GuardFailed("id-token", f"operad id must be letters, digits or underscores, got {op_id!r}")
    if len(state.my_operads) >= cfg.max_oprd:
        raise GuardFailed("g1", f"operad count is at the max_oprd bound {cfg.max_oprd}")
    if op_id in state.my_operads:
        raise GuardFailed("g3", f"operad {op_id!r} already exists")
    if not 1 <= arity <= cfg.max_args:
        raise GuardFailed("g4", f"arity must be in 1..{cfg.max_args}, got {arity}")
    if not 1 <= outs <= cfg.max_out:
        raise GuardFailed("g6", f"output count must be in 1..{cfg.max_out}, got {outs}")
    if len(state.foliage) + arity > cfg.max_fol:
        raise GuardFailed(
            "g28",
            f"foliage would grow to {len(state.foliage) + arity}, past max_fol = {cfg.max_fol}",
        )
    positions = range(1, arity + 1)
    return replace(
        state,
        my_operads=state.my_operads | {op_id},
        arity_op={**state.arity_op, op_id: arity},
        foliage=state.foliage | {(p, op_id) for p in positions},
        out_op={**state.out_op, op_id: frozenset({1})},
        in_op={**state.in_op, op_id: frozenset(positions)},
        g_hat_op={**state.g_hat_op, **{(p, op_id): op_id for p in positions}},
    )


@dataclass(frozen=True)
class ComposeWitness:
    """What one grafting step did, for the law checks and for transport."""

    op1: OperadId
    op2: OperadId
    ii: Position
    cardfol1: int
    cardfol2: int
    hooked_in_op1: frozenset[OperadId]
    hooked_in_op2: frozenset[OperadId]

    def moved(self, outer: dict[Position, V], grafted: dict[Position, V]) -> dict[Position, V]:
        """The relabelling rule, and the only place it is written.

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
    """Graft op2 into slot ii of op1's composite; also return the witness."""
    if op1 == op2:
        raise GuardFailed("op-distinct", f"cannot compose {op1!r} with itself")
    if op1 not in state.in_op:
        raise GuardFailed("rg20", f"unknown operad {op1!r}")
    if op2 not in state.in_op:
        raise GuardFailed("rg22", f"unknown operad {op2!r}")
    if op1 in state.g_hook_op:
        raise GuardFailed("rg26", f"{op1!r} is grafted inside a composite and cannot be a target")
    if op2 in state.g_hook_op:
        raise GuardFailed("rg24", f"{op2!r} is grafted inside a composite and cannot be grafted again")

    index = state._index
    hooked1 = frozenset([op1, *index.members.get(op1, ())])
    hooked2 = frozenset([op2, *index.members.get(op2, ())])
    foliage1 = index.foliage.get(op1, set())
    foliage2 = index.foliage.get(op2, set())
    hat1 = {p: member for p, member in index.hats.get(op1, {}).items() if p in foliage1}
    hat2 = {p: member for p, member in index.hats.get(op2, {}).items() if p in foliage2}
    if ii not in hat1:
        raise GuardFailed("rg72", f"position {ii} is not an open slot of the composite rooted at {op1!r}")
    hat_op_ii = hat1[ii]
    if hat_op_ii not in hooked1:
        raise GuardFailed("rg62", f"slot owner {hat_op_ii!r} is outside the composite rooted at {op1!r}")
    if hat_op_ii not in state.in_op:
        raise GuardFailed("rg64", f"slot owner {hat_op_ii!r} has no input map")
    if not state.in_op[hat_op_ii]:
        raise GuardFailed("rg70", f"slot owner {hat_op_ii!r} has no open inputs")

    cardfol1 = len(foliage1)
    cardfol2 = len(foliage2)
    if cardfol1 + cardfol2 - 1 > state.config.max_fol:
        raise OverflowFoliage(
            f"composite would need {cardfol1 + cardfol2 - 1} positions, max_fol is {state.config.max_fol}"
        )
    witness = ComposeWitness(op1, op2, ii, cardfol1, cardfol2, hooked1, hooked2)

    # op1's side is built as low | high and op2's side by iteration: equal
    # frozensets built another way can print in another order in oracle messages.
    in_op = dict(state.in_op)
    for oo in hooked1:
        slots = witness.moved(dict.fromkeys(state.in_op[oo]), {})
        in_op[oo] = frozenset(p for p in slots if p < ii) | frozenset(p for p in slots if p >= ii)
    for oo in hooked2:
        in_op[oo] = frozenset(iter(witness.moved({}, dict.fromkeys(state.in_op[oo]))))

    # Hat entries owned by op1 or op2, and every entry keyed to op2's
    # former root role, are purged before the rebuilt component is merged
    # back in under op1's key.
    new_g_hat = {
        key: m for key, m in state.g_hat_op.items() if m not in (op1, op2) and key[1] != op2
    }
    new_g_hat.update({(p, op1): m for p, m in witness.moved(hat1, hat2).items()})
    out_op = dict(state.out_op)
    out_op.pop(op2, None)

    new_state = FlatState(
        config=state.config,
        my_operads=state.my_operads,
        arity_op=state.arity_op,
        foliage=state.foliage.difference(
            [(p, op1) for p in foliage1], [(p, op2) for p in foliage2]
        ).union([(p, op1) for p in range(1, cardfol1 + cardfol2)]),
        out_op=out_op,
        in_op=in_op,
        g_hat_op=new_g_hat,
        hook_op={**state.hook_op, op2: hat_op_ii},
        g_hook_op={**state.g_hook_op, **dict.fromkeys(hooked2, op1)},
    )
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
    """Operads not grafted anywhere, sorted; each roots one composite."""
    return tuple(sorted(state.my_operads - set(state.g_hook_op)))


def _require_root(state: FlatState, root: OperadId) -> None:
    if root not in state.my_operads:
        raise BoundsError(f"unknown operad {root!r}")
    if root in state.g_hook_op:
        raise BoundsError(f"{root!r} is grafted inside a composite, not a root")


def component_of(state: FlatState, root: OperadId) -> frozenset[OperadId]:
    """The root together with every member grafted below it."""
    _require_root(state, root)
    return frozenset([root, *state._index.members.get(root, ())])


def foliage_of(state: FlatState, root: OperadId) -> tuple[Position, ...]:
    _require_root(state, root)
    return tuple(sorted(state._index.foliage.get(root, ())))


def hat_map_of(state: FlatState, root: OperadId) -> dict[Position, OperadId]:
    """The hats keyed to root, in g_hat_op order; a copy the caller may keep."""
    _require_root(state, root)
    return dict(state._index.hats.get(root, {}))


def in_map_of(state: FlatState, root: OperadId) -> dict[OperadId, frozenset[Position]]:
    return {oo: state.in_op[oo] for oo in sorted(component_of(state, root))}


def hook_map_of(state: FlatState, root: OperadId) -> dict[OperadId, OperadId]:
    members = component_of(state, root)
    return {oo: state.hook_op[oo] for oo in sorted(members) if oo in state.hook_op}


def check_invariants(state: FlatState) -> list[str]:
    """Labels of the violated invariants, in canonical order.

    Typing invariants (inv*, invr*) bound every relation by the config
    and by my_operads.  The structural ones tie the relations together:

      SP1  per root, slots with a hat plus the root's own inputs cover
           the whole foliage of that root
      SP2  per root, the foliage is exactly the union of the input sets
           of the root and of every member grafted below it
      SP3  a member with children has one input lost per direct child:
           card(in_op) = arity - number of direct children

    Cost: O(state).  The per-root index of the state (one pass each
    over foliage, g_hat_op and g_hook_op, shared with compose and the
    per-root queries) supplies every per-root bucket; every other test
    is set algebra or one pass over a relation.
    """
    cfg = state.config
    bad: list[str] = []
    ops = state.my_operads
    index = state._index

    def in_range(ps, top: int) -> bool:
        return not ps or (min(ps) >= 1 and max(ps) <= top)

    def positions_in_range(pairs, top: int) -> bool:
        # (position, root) pairs order by position first
        return not pairs or (min(pairs)[0] >= 1 and max(pairs)[0] <= top)

    if not all(map(is_operad_id, ops)):
        bad.append("inv10")
    if not (ops.issuperset(state.arity_op) and in_range(state.arity_op.values(), cfg.max_fol)):
        bad.append("inv30")
    if not (ops.issuperset(index.foliage) and positions_in_range(state.foliage, cfg.max_fol)):
        bad.append("inv40")
    if not (
        ops.issuperset(state.out_op)
        and in_range(frozenset().union(*state.out_op.values()), cfg.max_args)
    ):
        bad.append("inv60")
    if not (
        ops.issuperset(state.in_op)
        and in_range(frozenset().union(*state.in_op.values()), cfg.max_fol)
    ):
        bad.append("invr10")
    if not (
        ops.issuperset(index.hats)
        and ops.issuperset(state.g_hat_op.values())
        and positions_in_range(state.g_hat_op.keys(), cfg.max_fol)
    ):
        bad.append("invr20")
    if not (ops.issuperset(state.hook_op) and ops.issuperset(state.hook_op.values())):
        bad.append("invr30")
    if not state.out_op.keys().isdisjoint(state.hook_op):
        bad.append("invr34")
    if not (ops.issuperset(state.g_hook_op) and ops.issuperset(index.members)):
        bad.append("invr40")
    if not all(
        len(ins) <= state.arity_op[op]
        for op, ins in state.in_op.items()
        if op in state.arity_op and op in ops
    ):
        bad.append("invr50")

    # SP1 and SP2 look only at roots with grafted members that are
    # operads, own foliage and have an input set
    roots_checked = [
        op
        for op in index.members
        if op in ops and op in index.foliage and op in state.in_op
    ]

    hat_values = set(state.g_hat_op.values())
    for op in roots_checked:
        if (
            op in hat_values
            and op not in state.g_hook_op
            and index.hats.get(op, {}).keys() | state.in_op[op] != index.foliage[op]
        ):
            bad.append("SP1")
            break

    for op in roots_checked:
        covered = set(state.in_op[op])
        for oo in index.members[op]:
            ins = state.in_op.get(oo)
            if ins is not None and in_range(ins, cfg.max_fol):
                covered |= ins
        if covered != index.foliage[op]:
            bad.append("SP2")
            break

    hook_children: dict[OperadId, int] = {}
    for parent in state.hook_op.values():
        hook_children[parent] = hook_children.get(parent, 0) + 1
    for op, children in hook_children.items():
        if op in ops and op in state.in_op and op in state.arity_op:
            if len(state.in_op[op]) != state.arity_op[op] - children:
                bad.append("SP3")
                break

    return bad


def composition_law_violations(state: FlatState, witness: ComposeWitness) -> list[str]:
    """Cheap structural laws checked right after one grafting step.

    law-size       the new composite has cardfol1 + cardfol2 - 1 slots,
                   contiguously labelled from 1
    law-arity-sum  member arities minus internal grafts equals the slot
                   count of the composite
    """
    labels: list[str] = []
    index = state._index
    fol = sorted(index.foliage.get(witness.op1, ()))
    if fol != list(range(1, witness.cardfol1 + witness.cardfol2)):
        labels.append("law-size")
    members = {witness.op1, *index.members.get(witness.op1, ())}
    arity_sum = sum(state.arity_op[m] for m in members)
    if arity_sum - (len(members) - 1) != len(fol):
        labels.append("law-arity-sum")
    return labels
