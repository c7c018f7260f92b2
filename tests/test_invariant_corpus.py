"""check_invariants on a corpus of mutated states, plus properties over event traces.

The corpus is built from states that seeded simulator runs reach at the
default bounds.  Each case applies one seeded mutation to one section
of such a state's raw record, the Sections its dump reads into, so a
view's section can disagree with the relation it views.  The checker
must flag exactly the mutations that change the record.  The generator
iterates no unordered container, so the cases are the same on every
run.

The same traces and mutations also check the per-root queries, which
read the state's hats and members rows, against scan-based reference
definitions kept here, and the mirror forest, which must agree with
exactly the states the events reach.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import fields, replace

from hypothesis import given, settings, strategies as st

from operadix import (
    BoundsError,
    ComposeSeq,
    GuardFailed,
    NewOperad,
    SimConfig,
    TraceReset,
    apply_event,
    check_invariants,
    compare_with_flat,
    component_of,
    compose_seq,
    derive_flat_view,
    dump_state,
    empty_state,
    foliage_of,
    hat_map_of,
    hook_map_of,
    in_map_of,
    load_state,
    new_operad,
    run,
)
from operadix.serialize import _read_state
from operadix.tree_oracle import MirrorForest

SEEDS = range(6)
STEPS = 80
MUTATIONS_PER_STATE = 8

RELATIONS = (
    "my_operads",
    "arity_op",
    "foliage",
    "out_op",
    "in_op",
    "hats",
    "hook_op",
    "g_hook_op",
)
# the sections a FlatState stores, each with the field that stores it:
# the members rows hold the ghook section's roots and the hook section's parents
STORED = {"arity_op": "arity_op", "hats": "hats", "hook_op": "members", "g_hook_op": "members"}


def sections(state):
    """The raw record that state's dump reads into, as check and export read it."""
    return _read_state(dump_state(state), state.config)


def advance(forest, event):
    """Fire event on the mirror forest."""
    if isinstance(event, NewOperad):
        forest.new(event.op_id, event.arity)
    else:
        forest.graft(event.op1, event.pos, event.op2)


def reachable_pairs():
    """Every third state along the traces of seeded default-bound runs, with its forest.

    The forest changes in place as the trace goes on: use it before
    taking the next pair.
    """
    for seed in SEEDS:
        state, forest = empty_state(), MirrorForest()
        for step, event in enumerate(run(SimConfig(seed=seed, max_steps=STEPS)).trace):
            if isinstance(event, TraceReset):
                state, forest = empty_state(), MirrorForest()
            else:
                state = apply_event(state, event)
                advance(forest, event)
            if step % 3 == 0 and state.my_operads:
                yield state, forest


def flat_hats(hats):
    """The rows of hats as one (position, root) -> owner map, the hat section's form."""
    return {(p, root): m for root, row in hats.items() for p, m in row.items()}


def with_relation(record, name, rel):
    """record with the relation name set to rel; flat hats are regrouped into rows."""
    if name == "hats":
        rows = {}
        for (p, root), m in rel.items():
            rows.setdefault(root, {})[p] = m
        rel = rows
    return replace(record, **{name: rel})


def mutate(record, rng: random.Random):
    """One seeded edit of one section of record, and a description that starts with its name.

    The hat section is edited in its flat form, so the draws do not
    depend on how the record groups it.
    """
    cfg = record.config
    pool = sorted(record.my_operads) + ["zz"]
    name = rng.choice(RELATIONS)
    rel = flat_hats(record.hats) if name == "hats" else getattr(record, name)

    def pos() -> int:
        return rng.randint(0, cfg.max_fol + 1)

    if name in ("my_operads", "foliage"):
        items = sorted(rel)
        if items and rng.random() < 0.5:
            item = rng.choice(items)
            return replace(record, **{name: rel - {item}}), f"{name} drop {item!r}"
        if name == "my_operads":
            item = rng.choice(["zz", "bad id"])
        else:
            item = (pos(), rng.choice(pool))
        return replace(record, **{name: rel | {item}}), f"{name} add {item!r}"

    keys = sorted(rel)
    if keys and rng.random() < 0.4:
        key = rng.choice(keys)
        return with_relation(record, name, {k: v for k, v in rel.items() if k != key}), f"{name} drop {key!r}"

    if name == "hats":
        key = rng.choice(keys) if keys and rng.random() < 0.5 else (pos(), rng.choice(pool))
        value = rng.choice(pool)
    elif name in ("hook_op", "g_hook_op"):
        key, value = rng.choice(pool), rng.choice(pool)
    elif name == "arity_op":
        key, value = rng.choice(pool), rng.randint(0, cfg.max_fol + 1)
    elif name == "out_op":
        key, value = rng.choice(pool), frozenset({rng.randint(1, cfg.max_args + 1)})
    else:  # in_op: toggle one position of an existing set, or set a fresh one
        key = rng.choice(pool)
        old = rel.get(key, frozenset())
        if old and rng.random() < 0.5:
            value = old - {rng.choice(sorted(old))}
        else:
            value = old | {pos()}
    shown = sorted(value) if isinstance(value, frozenset) else value
    return with_relation(record, name, {**rel, key: value}), f"{name} set {key!r} {shown!r}"


def corpus_mutations():
    """(state, its forest, its record, mutated record, description) for every corpus case."""
    rng = random.Random(20251216)
    for state, forest in reachable_pairs():
        record = sections(state)
        for _ in range(MUTATIONS_PER_STATE):
            yield (state, forest, record, *mutate(record, rng))


def test_every_corpus_mutation_is_flagged():
    cases = unchanged = 0
    for _, _, record, bad, description in corpus_mutations():
        cases += 1
        unchanged += bad == record
        assert (check_invariants(bad) == []) == (bad == record), description
    assert (cases, unchanged) == (1296, 34)


def test_forest_agrees_with_exactly_the_reachable_states():
    # a FlatState stores three relations, the hook and ghook sections as
    # members rows, so a hook edit off the ghook keys reaches no field;
    # the four other views have no edit of their own
    agreed = Counter()
    for state, forest, _, bad, description in corpus_mutations():
        assert forest.agrees_with(state)
        name = description.split()[0]
        if name in STORED:
            field = STORED[name]
            edited = replace(state, **{field: getattr(bad, field)})
            assert forest.agrees_with(edited) == (edited == state), description
            agreed[forest.agrees_with(edited)] += 1
    assert agreed == {False: 557, True: 97}


def test_corpus_exercises_every_label():
    counts = Counter()
    for _, _, _, bad, _ in corpus_mutations():
        counts.update(check_invariants(bad))
    assert counts == {
        "SP1": 271, "SP2": 413, "SP3": 501, "inv10": 52, "inv30": 318,
        "inv40": 173, "inv60": 376, "invr10": 242, "invr20": 100, "invr40": 358,
    }


def test_compose_keeps_the_precondition():
    # on a well-formed state, compose fails one of its six guards or returns
    # a well-formed state, for every pair of operads (and an unknown one)
    # and every position from 0 to one past the largest; each guard fires
    outcomes = Counter()
    for state, _ in reachable_pairs():
        pool = sorted(state.my_operads) + ["zz"]
        for ii in range(max(p for p, _ in state.foliage) + 2):
            for op1 in pool:
                for op2 in pool:
                    try:
                        after = compose_seq(state, op1, ii, op2)
                    except GuardFailed as err:
                        outcomes[err.label] += 1
                    else:
                        outcomes["fired"] += 1
                        assert check_invariants(after) == [], (op1, ii, op2)
    assert outcomes == {
        "op-distinct": 12600, "rg20": 10768, "rg22": 10768, "rg24": 13403, "rg26": 39587, "rg72": 4207,
        "fired": 3895,
    }


def test_new_operad_keeps_the_precondition():
    # on a well-formed state, creation fails g1 or returns a well-formed state
    # for every arity the rule allows, so no foliage guard is needed
    outcomes = Counter()
    for state, _ in reachable_pairs():
        for arity in range(1, state.config.max_args + 1):
            try:
                after = new_operad(state, "zz", arity)
            except GuardFailed as err:
                outcomes[err.label] += 1
            else:
                outcomes["fired"] += 1
                assert check_invariants(after) == [], arity
    assert outcomes == {"g1": 222, "fired": 750}


event_plans = st.lists(
    st.tuples(st.booleans(), st.integers(1, 6), st.integers(0, 7), st.integers(0, 7), st.integers(0, 47)),
    max_size=30,
)


def plan_states(plan):
    """The state and the mirror forest after each event of plan that fires.

    The forest changes in place: use it before taking the next pair.
    """
    state = empty_state()
    forest = MirrorForest()
    mirrors = forest.trees
    for serial, (create, arity, a, b, slot) in enumerate(plan):
        roots = sorted(mirrors)
        if create or len(roots) < 2:
            event = NewOperad(f"op{serial}", arity)
        else:
            op1 = roots[a % len(roots)]
            others = [r for r in roots if r != op1]
            event = ComposeSeq(op1, 1 + slot % len(derive_flat_view(mirrors[op1]).foliage), others[b % len(others)])
        try:
            state = apply_event(state, event)
        except GuardFailed:
            continue
        advance(forest, event)
        yield state, forest


@settings(max_examples=60, deadline=None)
@given(plan=event_plans)
def test_event_traces_stay_clean(plan):
    for state, forest in plan_states(plan):
        assert check_invariants(state) == []
        for root in sorted(forest.trees):
            assert compare_with_flat(state, root, forest.trees[root]) == []
        assert forest.agrees_with(state)


@settings(max_examples=60, deadline=None)
@given(plan=event_plans)
def test_load_state_hands_over_the_checked_index(plan):
    # load_state builds the state from the record it checked: the members
    # rows are the ones the check read, and nothing else rides along
    for state, _ in plan_states(plan):
        record = sections(state)
        assert check_invariants(record) == []
        rebuilt = record.to_state()
        assert rebuilt.members is record.members
        loaded = load_state(dump_state(state), state.config)
        assert loaded == state == rebuilt
        # a FlatState's == sees only what it stores; the dump also shows the views it dropped
        assert dump_state(rebuilt) == dump_state(record)
        assert vars(loaded).keys() == vars(state).keys() == {f.name for f in fields(state)}


# Scan-based reference definitions of the per-root queries: each reads
# whole relations and shares no code with the rows' lookups or the members map.


def ref_require_root(state, root):
    if root not in state.my_operads or root in state.hook_op:
        raise BoundsError(f"{root!r} is not a root")


def ref_component_of(state, root):
    ref_require_root(state, root)
    return frozenset({root} | {oo for oo, rr in state.g_hook_op.items() if rr == root})


def ref_foliage_of(state, root):
    ref_require_root(state, root)
    return tuple(sorted(p for p, oo in state.foliage if oo == root))


def ref_hat_map_of(state, root):
    ref_require_root(state, root)
    return {p: m for (p, oo), m in flat_hats(state.hats).items() if oo == root}


def ref_in_map_of(state, root):
    return {oo: state.in_op[oo] for oo in sorted(ref_component_of(state, root))}


def ref_hook_map_of(state, root):
    members = ref_component_of(state, root)
    return {oo: state.hook_op[oo] for oo in sorted(members) if oo in state.hook_op}


QUERY_PAIRS = (
    (component_of, ref_component_of),
    (foliage_of, ref_foliage_of),
    (hat_map_of, ref_hat_map_of),
    (in_map_of, ref_in_map_of),
    (hook_map_of, ref_hook_map_of),
)


def outcome(query, state, root):
    """The query's result, or the type of the error it raised."""
    try:
        result = query(state, root)
    except (BoundsError, KeyError) as exc:
        return type(exc)
    # dict equality ignores order, and hat_map_of promises row order
    return list(result.items()) if isinstance(result, dict) else result


def assert_queries_match_scans(state):
    for root in sorted(state.my_operads | {"zz"}):
        for query, reference in QUERY_PAIRS:
            assert outcome(query, state, root) == outcome(reference, state, root), (query, root)


@settings(max_examples=60, deadline=None)
@given(plan=event_plans)
def test_root_queries_match_scans_along_traces(plan):
    for state, _ in plan_states(plan):
        assert_queries_match_scans(state)


def test_root_queries_match_scans_on_corpus_mutations():
    # the queries read a record's rows, members map and sections by the same names as a state's
    for _, _, _, bad, _ in corpus_mutations():
        assert_queries_match_scans(bad)
