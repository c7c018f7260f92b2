"""Create/compose events, their guards, relabelling, and the invariant checker."""

from dataclasses import fields, replace

import pytest
from hypothesis import given, strategies as st

from operadix import (
    BoundsError,
    ComposeSeq,
    Config,
    GuardFailed,
    NewOperad,
    StateFormatError,
    apply_event,
    check_invariants,
    component_of,
    compose_seq,
    compose_seq_with_witness,
    compose_seq_x,
    composition_law_violations,
    dump_decorated,
    dump_state,
    empty_decorated,
    empty_state,
    foliage_of,
    hat_map_of,
    hook_map_of,
    in_map_of,
    load_decorated,
    load_state,
    new_operad,
    new_operad_x,
    parse_trace,
    replay,
    roots,
)
from operadix.flat_machine import FlatState, _rows
from operadix.serialize import _read_state


def build(*events):
    state = empty_state()
    for ev in events:
        state = apply_event(state, ev)
    return state


def sections(state):
    """The raw record that state's dump reads into, as check and export read it."""
    return _read_state(dump_state(state), state.config)


@pytest.fixture
def quadratic_pair():
    """f of arity 4 with a binary g grafted into slot 2."""
    return build(NewOperad("f", 4), NewOperad("g", 2), ComposeSeq("f", 2, "g"))


@pytest.fixture
def nested_triple():
    """f:4 with g:3 at slot 2, then h:3 at slot 4 (which g owns)."""
    return build(
        NewOperad("f", 4),
        NewOperad("g", 3),
        NewOperad("h", 3),
        ComposeSeq("f", 2, "g"),
        ComposeSeq("f", 4, "h"),
    )


def test_new_operad_shape():
    s = new_operad(empty_state(), "f", 4)
    assert s.my_operads == {"f"}
    assert s.arity_op == {"f": 4}
    assert s.foliage == {(p, "f") for p in (1, 2, 3, 4)}
    assert s.out_op == {"f": frozenset({1})}
    assert s.in_op == {"f": frozenset({1, 2, 3, 4})}
    assert s.hats == {"f": {1: "f", 2: "f", 3: "f", 4: "f"}}
    assert s.hook_op == {} and s.g_hook_op == {}


def test_views_are_not_fields():
    # my_operads, in_op, foliage, out_op, hook_op and g_hook_op are views of the stored relations
    s = new_operad(empty_state(), "f", 2)
    for view in ("my_operads", "in_op", "foliage", "out_op", "hook_op", "g_hook_op"):
        with pytest.raises(TypeError):
            replace(s, **{view: getattr(s, view)})
    assert s.my_operads == s.arity_op.keys() and s.foliage == {(1, "f"), (2, "f")}


def test_new_operad_output_always_one():
    # g6 takes only the int 1 as the output count
    s = new_operad(empty_state(), "f", 4, outs=1)
    assert s.out_op["f"] == frozenset({1})


def guard_label(fn, *args):
    with pytest.raises(GuardFailed) as err:
        fn(*args)
    return err.value.label


def test_new_operad_guards():
    s = new_operad(empty_state(), "f", 4)
    assert guard_label(new_operad, s, "no spaces", 1) == "id-token"
    assert guard_label(new_operad, s, "f", 2) == "g3"
    assert guard_label(new_operad, s, "g", 0) == "g4"
    assert guard_label(new_operad, s, "g", 7) == "g4"  # arity is capped at max_args
    assert guard_label(new_operad, s, "g", 49) == "g4"
    assert guard_label(new_operad, s, "g", 2, 0) == "g6"
    assert guard_label(new_operad, s, "g", 2, 2) == "g6"  # every operad has the one output 1
    assert guard_label(new_operad, s, "g", 2, 7) == "g6"


@pytest.mark.parametrize(
    "event,label",
    [
        (NewOperad("h", True), "g4"),
        (NewOperad("h", 2.0), "g4"),
        (NewOperad("h", 2, True), "g6"),
        (NewOperad("h", 2, 1.0), "g6"),
        (ComposeSeq("f", 2.0, "g"), "rg72"),
        (ComposeSeq("f", True, "g"), "rg72"),
    ],
)
def test_guards_take_only_int_arities_and_positions(event, label):
    # 2.0 and True compare equal to 2 and 1, so only the type keeps them
    # out of the state, where their dump would not load back
    s = build(NewOperad("f", 3), NewOperad("g", 2))
    with pytest.raises(GuardFailed) as err:
        apply_event(s, event)
    assert err.value.label == label


def test_new_operad_count_bound():
    s = empty_state()
    for k in range(8):
        s = new_operad(s, f"op{k}", 1)
    assert guard_label(new_operad, s, "op8", 1) == "g1"


def test_compose_binary_into_quaternary(quadratic_pair):
    s = quadratic_pair
    assert foliage_of(s, "f") == (1, 2, 3, 4, 5)
    assert in_map_of(s, "f") == {"f": frozenset({1, 4, 5}), "g": frozenset({2, 3})}
    assert hat_map_of(s, "f") == {1: "f", 2: "g", 3: "g", 4: "f", 5: "f"}
    assert hook_map_of(s, "f") == {"g": "f"}
    assert s.g_hook_op == {"g": "f"}
    assert set(s.out_op) == {"f"}
    assert s.arity_op == {"f": 4, "g": 2}  # creation arities persist


def test_compose_ternary_into_quaternary():
    s = build(NewOperad("f", 4), NewOperad("g", 3), ComposeSeq("f", 2, "g"))
    assert foliage_of(s, "f") == (1, 2, 3, 4, 5, 6)
    assert in_map_of(s, "f") == {"f": frozenset({1, 5, 6}), "g": frozenset({2, 3, 4})}
    assert hat_map_of(s, "f") == {1: "f", 2: "g", 3: "g", 4: "g", 5: "f", 6: "f"}


def test_nested_compose(nested_triple):
    s = nested_triple
    assert foliage_of(s, "f") == (1, 2, 3, 4, 5, 6, 7, 8)
    assert in_map_of(s, "f") == {
        "f": frozenset({1, 7, 8}),
        "g": frozenset({2, 3}),
        "h": frozenset({4, 5, 6}),
    }
    assert hat_map_of(s, "f") == {
        1: "f", 2: "g", 3: "g", 4: "h", 5: "h", 6: "h", 7: "f", 8: "f",
    }
    assert hook_map_of(s, "f") == {"g": "f", "h": "g"}
    assert s.g_hook_op == {"g": "f", "h": "f"}
    assert check_invariants(s) == []


def test_deep_graft_below_two_levels(nested_triple):
    # slot 5 is owned by h, itself grafted into g: the new operad hooks
    # onto h and every label above 5 shifts by one
    s = compose_seq(new_operad(nested_triple, "k", 2), "f", 5, "k")
    assert foliage_of(s, "f") == tuple(range(1, 10))
    assert in_map_of(s, "f") == {
        "f": frozenset({1, 8, 9}),
        "g": frozenset({2, 3}),
        "h": frozenset({4, 7}),
        "k": frozenset({5, 6}),
    }
    assert hat_map_of(s, "f") == {
        1: "f", 2: "g", 3: "g", 4: "h", 5: "k", 6: "k", 7: "h", 8: "f", 9: "f",
    }
    assert hook_map_of(s, "f") == {"g": "f", "h": "g", "k": "h"}
    assert s.g_hook_op == {"g": "f", "h": "f", "k": "f"}
    assert check_invariants(s) == []


def test_compose_witness_relabelling(quadratic_pair):
    s = build(NewOperad("f", 4), NewOperad("g", 2))
    _, w = compose_seq_with_witness(s, "f", 2, "g")
    assert (w.op1, w.op2, w.ii) == ("f", "g", 2)
    assert (w.cardfol1, w.cardfol2) == (4, 2)
    # hats: op1's low slots, then op2's, then op1's high slots; slot 2 is consumed
    hats = w.moved({1: "f", 2: "f", 3: "f", 4: "f"}, {1: "g", 2: "g"})
    assert list(hats.items()) == [(1, "f"), (2, "g"), (3, "g"), (4, "f"), (5, "f")]
    # input sets, one side at a time
    assert w.moved(dict.fromkeys((1, 2, 3, 4)), {}).keys() == {1, 4, 5}
    assert w.moved({}, dict.fromkeys((1, 2))).keys() == {2, 3}
    # positions outside the foliage move by the same arithmetic
    assert w.moved({0: "x", 9: "y"}, {5: "z"}) == {0: "x", 6: "z", 10: "y"}


def test_compose_law_checks(quadratic_pair):
    s = build(NewOperad("f", 4), NewOperad("g", 2))
    s2, w = compose_seq_with_witness(s, "f", 2, "g")
    assert composition_law_violations(s2, w) == []
    broken = replace(s2, hats={"f": {p: m for p, m in s2.hats["f"].items() if p != 5}})
    assert composition_law_violations(broken, w) == ["law-size"]


def test_compose_guards(quadratic_pair):
    s = new_operad(quadratic_pair, "h", 1)
    assert guard_label(compose_seq, s, "f", 1, "f") == "op-distinct"
    assert guard_label(compose_seq, s, "zz", 1, "h") == "rg20"
    assert guard_label(compose_seq, s, "f", 1, "zz") == "rg22"
    assert guard_label(compose_seq, s, "g", 2, "h") == "rg26"  # g is grafted
    assert guard_label(compose_seq, s, "h", 1, "g") == "rg24"  # g cannot move again
    assert guard_label(compose_seq, s, "f", 0, "h") == "rg72"
    assert guard_label(compose_seq, s, "f", 9, "h") == "rg72"


def with_hat(state, p, root, owner):
    """state with the slot p of root's row given to owner, in place in the row."""
    return replace(state, hats={**state.hats, root: {**state.hats.get(root, {}), p: owner}})


def ill_formed_states():
    """States no event sequence builds, each with its check_invariants labels."""
    s = build(NewOperad("f", 4), NewOperad("g", 2), ComposeSeq("f", 2, "g"), NewOperad("h", 1))
    t = build(NewOperad("f", 4), NewOperad("g", 2), ComposeSeq("f", 2, "g"), NewOperad("h", 2), NewOperad("k", 1))
    two = build(NewOperad("f", 2), NewOperad("g", 2))
    # two roots this big cannot arise through events (the creation budget
    # blocks the second), so they are stitched together
    wide = Config(max_args=41, max_oprd=1, max_fol=48)
    s1 = new_operad(empty_state(wide), "f", 41)
    s2 = new_operad(empty_state(wide), "g", 9)
    merged = replace(s1, arity_op={**s1.arity_op, **s2.arity_op}, hats={**s1.hats, **s2.hats})
    return {
        # a slot owner outside its composite, on slot ii, below it, or in op2's composite;
        # the input sets follow the hats, so both owners' counts are off too
        "foreign": (with_hat(s, 2, "f", "h"), ["SP2", "SP3"]),
        "foreign_low": (with_hat(s, 4, "f", "h"), ["SP2", "SP3"]),
        "foreign_grafted": (with_hat(t, 2, "h", "k"), ["SP2", "SP3"]),
        # input sets that drift from intact hats: only a dump's record can hold them
        "no_inputs": (
            replace(sections(s), in_op={k: v for k, v in s.in_op.items() if k != "g"}),
            ["invr10", "SP2", "SP3"],
        ),
        "drained": (replace(sections(s), in_op={**s.in_op, "g": frozenset()}), ["SP2", "SP3"]),
        # a member with no in_op entry, under either root
        "orphan": (replace(two, members={"g": {"zz": None}}), ["invr40"]),
        "orphan_under_f": (replace(two, members={"f": {"zz": None}}), ["invr40"]),
        # 50 slots past max_fol = 48, and two operads past max_oprd = 1
        "merged": (merged, ["inv10", "inv40"]),
    }


@pytest.mark.parametrize("name", ill_formed_states())
def test_ill_formed_states_fail_at_the_loaders(name):
    # compose assumes a well-formed state; the loaders are where one is checked
    state, labels = ill_formed_states()[name]
    assert check_invariants(state) == labels
    with pytest.raises(StateFormatError, match=f"^state violates {', '.join(labels)}$"):
        load_state(dump_state(state), state.config)


def test_compose_carries_a_foreign_owner_to_the_check():
    # compose builds no input sets, so k's slot under h moves into f's row
    # with the rest, and the check names the state instead of compose raising
    state, _ = ill_formed_states()["foreign_grafted"]
    composed = compose_seq(state, "f", 1, "h")
    assert composed.hats["f"] == {2: "k", 3: "g", 1: "h", 4: "g", 5: "f", 6: "f"}
    assert check_invariants(composed) == ["SP2", "SP3"]


def test_rejected_event_leaves_state_unchanged(quadratic_pair):
    s = quadratic_pair
    before = replace(s)
    with pytest.raises(GuardFailed):
        compose_seq(s, "f", 99, "g")
    with pytest.raises(GuardFailed):
        new_operad(s, "f", 2)
    assert s == before


def test_apply_event_dispatch():
    s = apply_event(empty_state(), NewOperad("f", 2))
    s = apply_event(s, NewOperad("g", 1))
    s = apply_event(s, ComposeSeq("f", 1, "g"))
    assert foliage_of(s, "f") == (1, 2)
    with pytest.raises(BoundsError):
        apply_event(s, "not an event")


def test_roots_and_component(nested_triple):
    s = new_operad(nested_triple, "k", 2)
    assert roots(s) == ("f", "k")
    assert component_of(s, "f") == {"f", "g", "h"}
    assert component_of(s, "k") == {"k"}
    with pytest.raises(BoundsError):
        component_of(s, "g")  # grafted, not a root
    with pytest.raises(BoundsError):
        foliage_of(s, "zz")


def test_compose_drops_hats_keyed_to_the_grafted_root():
    # g is a composite when it is grafted: its row may not outlive that
    s = replay(parse_trace("new f 2 1\nnew g 2 1\nnew h 2 1\ncompose g 1 h\ncompose f 1 g\n"))
    assert s.hats == {"f": {1: "h", 2: "h", 3: "g", 4: "f"}}
    assert s.foliage == {(p, "f") for p in (1, 2, 3, 4)}


def test_replace_sets_fresh_rows(quadratic_pair):
    s = quadratic_pair
    assert component_of(s, "f") == {"f", "g"}
    assert replace(s) == s
    shrunk = replace(s, hats={"f": {1: "f", 2: "g"}}, members={})
    assert shrunk.hats == {"f": {1: "f", 2: "g"}} and shrunk.g_hook_op == {}
    assert foliage_of(shrunk, "f") == (1, 2)
    assert hat_map_of(shrunk, "f") == {1: "f", 2: "g"}
    assert component_of(shrunk, "f") == {"f"}
    assert s.members == {"f": {"g": "f"}} and foliage_of(s, "f") == (1, 2, 3, 4, 5)


FIELDS = {"config", "arity_op", "hats", "members"}


def test_states_cache_nothing(nested_triple):
    # the four fields are all a state holds, however it was built
    assert {f.name for f in fields(FlatState)} == FIELDS
    d = empty_decorated()
    for op, arity in (("f", 4), ("g", 3), ("h", 3)):
        d = new_operad_x(d, op, arity)
    d = compose_seq_x(compose_seq_x(d, "f", 2, "g"), "f", 4, "h")
    built = [
        nested_triple,
        d.base,
        load_state(dump_state(nested_triple)),
        load_decorated(dump_decorated(d)).base,
        replace(nested_triple, members=dict(nested_triple.members)),
    ]
    for state in built:
        # the check and the queries read the rows and leave nothing on the state
        assert state == nested_triple and check_invariants(state) == []
        assert component_of(state, "f") == {"f", "g", "h"}
        assert vars(state).keys() == FIELDS


def test_members_rows_are_not_empty_and_list_each_member_once(nested_triple):
    # the g_hook_op view keeps one root per member, so a dump cannot show
    # a member under two roots or an empty row: only the check sees them
    s = new_operad(nested_triple, "k", 1)
    twice = replace(s, members={"k": {"g": None}, **s.members})
    empty = replace(s, members={**s.members, "k": {}})
    for bad in (twice, empty):
        assert check_invariants(bad) == ["invr40"]
        assert dump_state(bad) == dump_state(s)


@pytest.mark.parametrize(
    "labels,rows",
    [
        # each parent chain, followed within its row, must end at the row's root;
        # a parent that moved also leaves an arity off by a child (SP3)
        (["invr40", "SP3"], {"f": {"g": "h", "h": "g"}}),
        (["invr40", "SP3"], {"f": {"g": "f", "h": "h"}}),
        (["invr40", "SP3"], {"f": {"g": "f", "h": "k"}}),
        # a row keyed by a member
        (["invr40", "SP2", "SP3"], {"f": {"g": "f", "h": "g"}, "g": {"k": "g"}}),
        # a row may list a child before its parent
        ([], {"f": {"h": "g", "g": "f"}}),
    ],
)
def test_members_rows_lead_every_member_to_its_root(nested_triple, labels, rows):
    s = new_operad(nested_triple, "k", 1)
    assert check_invariants(replace(s, members=rows)) == labels


def test_record_members_are_the_ghook_section_in_rows(nested_triple):
    record = sections(nested_triple)
    assert record.members == _rows(record.g_hook_op.items(), record.hook_op) == {"f": {"g": "f", "h": "g"}}
    assert record.to_state() == nested_triple and record.to_state().members is record.members


def test_hat_map_of_returns_a_copy(quadratic_pair):
    hats = hat_map_of(quadratic_pair, "f")
    hats[1] = "zz"
    del hats[2]
    assert hat_map_of(quadratic_pair, "f") == {1: "f", 2: "g", 3: "g", 4: "f", 5: "f"}


def test_invariants_clean_states(quadratic_pair, nested_triple):
    assert check_invariants(empty_state()) == []
    assert check_invariants(quadratic_pair) == []
    assert check_invariants(nested_triple) == []


def test_invariant_sp3_detects_unshrunk_inputs(nested_triple):
    # slot 4 is h's, so g's claim on it also breaks the slot map; a FlatState's
    # input sets are read off its hats, so only a dump's record can hold the claim
    bad = replace(sections(nested_triple), in_op={**nested_triple.in_op, "g": frozenset({2, 3, 4})})
    assert check_invariants(bad) == ["SP2", "SP3"]


def test_invariant_sp1_detects_missing_hat(nested_triple):
    # on a FlatState the foliage is the hats' keys, so only a dump can miss a hat
    record = sections(nested_triple)
    hats = {"f": {p: m for p, m in record.hats["f"].items() if p != 5}}
    assert check_invariants(replace(record, hats=hats)) == ["SP1", "SP2"]


def test_invariant_sp2_detects_lost_position(nested_triple):
    bad = replace(sections(nested_triple), in_op={**nested_triple.in_op, "h": frozenset({4, 6})})
    assert check_invariants(bad) == ["SP2", "SP3"]


# Each edit changes one section of the dump's raw record and keeps the
# others as read, so a view's section can disagree with its relation;
# the last edits a FlatState, whose empty hats row no dump can show.
@pytest.mark.parametrize(
    "labels,mutate",
    [
        (["inv10", "inv30", "inv60", "invr10", "SP3"], lambda s: replace(sections(s), my_operads=s.my_operads | {""})),
        (["inv30"], lambda s: replace(sections(s), arity_op={**s.arity_op, "zz": 3})),
        # a phantom slot also has no hat
        (["inv40", "SP1"], lambda s: replace(sections(s), foliage=s.foliage | {(50, "f")})),
        (["inv60"], lambda s: replace(sections(s), out_op={**s.out_op, "f": frozenset({7})})),
        (["SP2", "SP3"], lambda s: replace(sections(s), in_op={**s.in_op, "f": frozenset({49})})),
        (["invr20", "SP1", "SP2"], lambda s: replace(sections(s), hats={**s.hats, "zz": {1: "f"}})),
        (["invr40", "SP3"], lambda s: replace(sections(s), hook_op={**s.hook_op, "g": "zz"})),
        # hooking the root makes it a fake parent, so g's input count is off
        (["invr40", "SP3"], lambda s: replace(sections(s), hook_op={**s.hook_op, "f": "g"})),
        (["invr40", "SP2"], lambda s: replace(sections(s), g_hook_op={"g": "zz"})),
        (["SP2", "SP3"], lambda s: replace(sections(s), in_op={**s.in_op, "f": frozenset({1, 2, 3, 4, 5})})),
        # 4.0 and True equal 4 and 1, so only the arity rule's type test sees them
        (["inv30"], lambda s: replace(sections(s), arity_op={**s.arity_op, "f": 4.0})),
        (["inv30"], lambda s: replace(sections(new_operad(s, "h", 1)), arity_op={**s.arity_op, "h": True})),
        (["inv40"], lambda s: replace(s, hats={**s.hats, "g": {}})),
    ],
)
def test_corrupted_states_report_typing_labels(quadratic_pair, labels, mutate):
    assert check_invariants(mutate(quadratic_pair)) == labels


@given(n=st.integers(1, 6), m=st.integers(1, 6), data=st.data())
def test_compose_partitions_foliage(n, m, data):
    ii = data.draw(st.integers(1, n))
    s = build(NewOperad("f", n), NewOperad("g", m), ComposeSeq("f", ii, "g"))
    fol = foliage_of(s, "f")
    assert fol == tuple(range(1, n + m))
    ins = in_map_of(s, "f")
    assert sum(len(v) for v in ins.values()) == len(fol)
    assert frozenset().union(*ins.values()) == set(fol)
    assert set(hat_map_of(s, "f")) == set(fol)
    assert check_invariants(s) == []


@given(
    n=st.integers(2, 5),
    m=st.integers(1, 4),
    k=st.integers(1, 4),
    data=st.data(),
)
def test_two_step_compose_keeps_invariants(n, m, k, data):
    ii = data.draw(st.integers(1, n))
    jj = data.draw(st.integers(1, n + m - 1))
    s = build(
        NewOperad("f", n), NewOperad("g", m), NewOperad("h", k),
        ComposeSeq("f", ii, "g"), ComposeSeq("f", jj, "h"),
    )
    assert foliage_of(s, "f") == tuple(range(1, n + m + k - 1))
    assert check_invariants(s) == []


@given(
    n=st.integers(2, 5),
    m=st.integers(1, 4),
    k=st.integers(1, 4),
    data=st.data(),
)
def test_compose_lists_each_row_in_label_order(n, m, k, data):
    ii = data.draw(st.integers(1, n))
    jj = data.draw(st.integers(1, n + m - 1))
    s = build(
        NewOperad("f", n), NewOperad("g", m), NewOperad("h", k),
        ComposeSeq("f", ii, "g"), ComposeSeq("f", jj, "h"),
    )
    assert list(s.hats["f"]) == sorted(s.hats["f"])
