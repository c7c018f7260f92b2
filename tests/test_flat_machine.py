"""Create/compose events, their guards, relabelling, and the invariant checker."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from operadix import (
    BoundsError,
    ComposeSeq,
    Config,
    GuardFailed,
    NewOperad,
    OverflowFoliage,
    apply_event,
    check_invariants,
    component_of,
    compose_seq,
    compose_seq_with_witness,
    composition_law_violations,
    empty_state,
    foliage_of,
    hat_map_of,
    hook_map_of,
    in_map_of,
    new_operad,
    parse_trace,
    replay,
    roots,
)


def build(*events):
    state = empty_state()
    for ev in events:
        state = apply_event(state, ev)
    return state


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
    assert s.g_hat_op == {(p, "f"): "f" for p in (1, 2, 3, 4)}
    assert s.hook_op == {} and s.g_hook_op == {}


def test_new_operad_output_always_one():
    # the output count is validated against max_out, which is always 1
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
    assert guard_label(new_operad, s, "g", 2, 2) == "g6"  # outputs are capped at max_out
    assert guard_label(new_operad, s, "g", 2, 7) == "g6"


def test_new_operad_count_bound():
    s = empty_state()
    for k in range(8):
        s = new_operad(s, f"op{k}", 1)
    assert guard_label(new_operad, s, "op8", 1) == "g1"


def test_new_operad_foliage_budget():
    # events alone cannot fill the budget (max_fol >= max_oprd * max_args),
    # so the foliage is filled by hand
    s = replace(empty_state(), foliage=frozenset((p, "f") for p in range(1, 49)))
    assert guard_label(new_operad, s, "g", 1) == "g28"


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
    assert (w.hooked_in_op1, w.hooked_in_op2) == ({"f"}, {"g"})
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
    broken = replace(s2, foliage=frozenset((p, "f") for p in (1, 2, 3, 4)))
    assert composition_law_violations(broken, w) == ["law-size", "law-arity-sum"]


def test_compose_guards(quadratic_pair):
    s = new_operad(quadratic_pair, "h", 1)
    assert guard_label(compose_seq, s, "f", 1, "f") == "op-distinct"
    assert guard_label(compose_seq, s, "zz", 1, "h") == "rg20"
    assert guard_label(compose_seq, s, "f", 1, "zz") == "rg22"
    assert guard_label(compose_seq, s, "g", 2, "h") == "rg26"  # g is grafted
    assert guard_label(compose_seq, s, "h", 1, "g") == "rg24"  # g cannot move again
    assert guard_label(compose_seq, s, "f", 0, "h") == "rg72"
    assert guard_label(compose_seq, s, "f", 9, "h") == "rg72"


def test_compose_defensive_guards(quadratic_pair):
    # these fire only on hand-tampered or loaded states, never after events
    s = new_operad(quadratic_pair, "h", 1)
    foreign = replace(s, g_hat_op={**s.g_hat_op, (2, "f"): "h"})
    assert guard_label(compose_seq, foreign, "f", 2, "h") == "rg62"
    no_inputs = replace(s, in_op={k: v for k, v in s.in_op.items() if k != "g"})
    assert guard_label(compose_seq, no_inputs, "f", 2, "h") == "rg64"
    drained = replace(s, in_op={**s.in_op, "g": frozenset()})
    assert guard_label(compose_seq, drained, "f", 2, "h") == "rg70"


def test_compose_overflow_on_merged_state():
    # two roots this big cannot arise through events (the creation budget
    # blocks the second), so the overflow check needs a stitched state
    wide = Config(max_args=41, max_oprd=1, max_fol=48)
    s1 = new_operad(empty_state(wide), "f", 41)
    s2 = new_operad(empty_state(wide), "g", 9)
    merged = replace(
        s1,
        my_operads=s1.my_operads | s2.my_operads,
        arity_op={**s1.arity_op, **s2.arity_op},
        foliage=s1.foliage | s2.foliage,
        out_op={**s1.out_op, **s2.out_op},
        in_op={**s1.in_op, **s2.in_op},
        g_hat_op={**s1.g_hat_op, **s2.g_hat_op},
    )
    with pytest.raises(OverflowFoliage):
        compose_seq(merged, "f", 1, "g")


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
    # g is a composite when it is grafted: no (p, g) key may outlive that
    s = replay(parse_trace("new f 2 1\nnew g 2 1\nnew h 2 1\ncompose g 1 h\ncompose f 1 g\n"))
    assert [key for key in s.g_hat_op if key[1] == "g"] == []
    assert set(s.g_hat_op) == {(p, "f") for p in foliage_of(s, "f")}


def test_replace_derives_a_fresh_index(quadratic_pair):
    s = quadratic_pair
    assert foliage_of(s, "f") == (1, 2, 3, 4, 5)  # the index of s is now built
    assert replace(s) == s and "_index" not in repr(s)
    shrunk = replace(
        s, foliage=frozenset({(1, "f"), (2, "f")}), g_hat_op={(1, "f"): "f"}, g_hook_op={}
    )
    assert foliage_of(shrunk, "f") == (1, 2)
    assert hat_map_of(shrunk, "f") == {1: "f"}
    assert component_of(shrunk, "f") == {"f"}
    assert foliage_of(s, "f") == (1, 2, 3, 4, 5)


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
    bad = replace(nested_triple, in_op={**nested_triple.in_op, "g": frozenset({2, 3, 4})})
    assert check_invariants(bad) == ["SP3"]


def test_invariant_sp1_detects_missing_hat(nested_triple):
    hats = {k: v for k, v in nested_triple.g_hat_op.items() if k != (5, "f")}
    assert check_invariants(replace(nested_triple, g_hat_op=hats)) == ["SP1"]


def test_invariant_sp2_detects_lost_position(nested_triple):
    bad = replace(nested_triple, in_op={**nested_triple.in_op, "h": frozenset({4, 6})})
    assert check_invariants(bad) == ["SP2"]


@pytest.mark.parametrize(
    "labels,mutate",
    [
        (["inv10"], lambda s: replace(s, my_operads=s.my_operads | {""})),
        (["inv30"], lambda s: replace(s, arity_op={**s.arity_op, "zz": 3})),
        # a phantom slot also breaks the coverage invariants
        (["inv40", "SP1", "SP2"], lambda s: replace(s, foliage=s.foliage | {(50, "f")})),
        (["inv60"], lambda s: replace(s, out_op={**s.out_op, "f": frozenset({7})})),
        (
            ["invr10", "SP1", "SP2", "SP3"],
            lambda s: replace(s, in_op={**s.in_op, "f": frozenset({49})}),
        ),
        (["invr20"], lambda s: replace(s, g_hat_op={**s.g_hat_op, (1, "zz"): "f"})),
        (["invr30"], lambda s: replace(s, hook_op={**s.hook_op, "g": "zz"})),
        # hooking the root makes it a fake parent, so g's input count is off
        (["invr34", "SP3"], lambda s: replace(s, hook_op={**s.hook_op, "f": "g"})),
        (["invr40"], lambda s: replace(s, g_hook_op={"g": "zz"})),
        (["invr50", "SP3"], lambda s: replace(s, in_op={**s.in_op, "f": frozenset({1, 2, 3, 4, 5})})),
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
