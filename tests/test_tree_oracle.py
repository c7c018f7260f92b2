"""The reference tree model: grafting on real trees, flat views, equivalence."""

from dataclasses import replace

import pytest

from operadix import (
    BoundsError,
    ComposeSeq,
    DuplicateLabels,
    LEAF,
    NewOperad,
    TreeOperad,
    apply_event,
    compare_with_flat,
    component_of,
    derive_flat_view,
    dump_state,
    elementary,
    empty_state,
    format_tree,
    graft,
)
from operadix.serialize import _read_state
from operadix.tree_oracle import MirrorForest


def nested_tree():
    """f:4 with g:3 at 2 and h:3 grafted below g, eight leaves total."""
    t = graft(elementary("f", 4), 2, elementary("g", 3))
    return graft(t, 4, elementary("h", 3))


def test_elementary():
    t = elementary("f", 3)
    assert t.label == "f"
    assert len(t.children) == 3
    assert all(c is LEAF for c in t.children)
    view = derive_flat_view(t)
    assert view.foliage == (1, 2, 3)
    assert set(view.in_map) == {"f"}


def test_elementary_needs_positive_arity():
    with pytest.raises(BoundsError):
        elementary("f", 0)


def test_tree_operad_rejects_empty_children():
    with pytest.raises(BoundsError):
        TreeOperad("f", ())


def test_format_tree_numbers_leaves():
    t = graft(elementary("f", 4), 2, elementary("g", 2))
    assert format_tree(t) == "f(1,g(2,3),4,5)"
    assert format_tree(nested_tree()) == "f(1,g(2,3,h(4,5,6)),7,8)"
    assert format_tree(elementary("u", 1)) == "u(1)"


def test_graft_counts_leaves_across_subtrees():
    t = nested_tree()
    view = derive_flat_view(t)
    assert view.foliage == tuple(range(1, 9))
    assert set(view.in_map) == {"f", "g", "h"}
    # position 7 is back in f's own slots, after g's subtree
    t2 = graft(t, 7, elementary("k", 2))
    assert format_tree(t2) == "f(1,g(2,3,h(4,5,6)),k(7,8),9)"


def test_graft_bounds():
    f = elementary("f", 3)
    with pytest.raises(BoundsError):
        graft(f, 0, elementary("g", 1))
    with pytest.raises(BoundsError):
        graft(f, 4, elementary("g", 1))


def test_graft_rejects_shared_labels():
    t = graft(elementary("f", 2), 1, elementary("g", 1))
    with pytest.raises(DuplicateLabels):
        graft(t, 1, elementary("g", 2))


def test_forest_rejects_a_label_it_holds():
    forest = MirrorForest()
    forest.new("f", 2)
    forest.new("g", 1)
    forest.graft("f", 1, "g")
    for label in ("f", "g"):
        with pytest.raises(DuplicateLabels):
            forest.new(label, 1)
    assert list(forest.trees) == ["f"]
    assert forest.hats == {"f": {1: "g", 2: "f"}}


def test_a_failed_forest_graft_changes_nothing():
    forest = MirrorForest()
    for label, arity in (("f", 2), ("g", 2), ("h", 3)):
        forest.new(label, arity)
    forest.graft("f", 1, "g")
    relations = ("arity_op", "hats", "members")
    before = {name: repr(getattr(forest, name)) for name in ("trees", *relations)}
    for ii in (0, 4):  # f's composite has leaves 1..3
        with pytest.raises(BoundsError):
            forest.graft("f", ii, "h")
        assert {name: repr(getattr(forest, name)) for name in before} == before
    assert list(forest.trees) == ["f", "h"] and forest.hats["h"] == {1: "h", 2: "h", 3: "h"}


def test_flat_view_elementary():
    v = derive_flat_view(elementary("f", 3))
    assert v.foliage == (1, 2, 3)
    assert v.in_map == {"f": frozenset({1, 2, 3})}
    assert v.hat_map == {1: "f", 2: "f", 3: "f"}
    assert v.hook_map == {}


def test_flat_view_nested():
    v = derive_flat_view(nested_tree())
    assert v.foliage == tuple(range(1, 9))
    assert v.in_map == {
        "f": frozenset({1, 7, 8}),
        "g": frozenset({2, 3}),
        "h": frozenset({4, 5, 6}),
    }
    assert v.hat_map == {1: "f", 2: "g", 3: "g", 4: "h", 5: "h", 6: "h", 7: "f", 8: "f"}
    assert v.hook_map == {"g": "f", "h": "g"}


SMALL = [1, 2, 3]


def test_sequential_law_on_trees():
    # grafting into the grafted part: both association orders agree
    for n in SMALL:
        for m in SMALL:
            for k in [1, 2]:
                for i in range(1, n + 1):
                    for j in range(1, m + 1):
                        f, g, h = elementary("f", n), elementary("g", m), elementary("h", k)
                        left = graft(graft(f, i, g), i - 1 + j, h)
                        right = graft(f, i, graft(g, j, h))
                        assert left == right


def test_parallel_law_on_trees():
    # grafting into two different slots of f: order does not matter
    for n in [2, 3, 4]:
        for m in SMALL:
            for k_arity in [1, 2]:
                for i in range(1, n + 1):
                    for kk in range(i + 1, n + 1):
                        f = elementary("f", n)
                        g, h = elementary("g", m), elementary("h", k_arity)
                        left = graft(graft(f, i, g), kk - 1 + m, h)
                        right = graft(graft(f, kk, h), i, g)
                        assert left == right


def test_leaf_count_law():
    for n in SMALL:
        for m in SMALL:
            for i in range(1, n + 1):
                t = graft(elementary("f", n), i, elementary("g", m))
                assert len(derive_flat_view(t).foliage) == n + m - 1


def machine_nested_state():
    s = empty_state()
    for ev in [
        NewOperad("f", 4), NewOperad("g", 3), NewOperad("h", 3),
        ComposeSeq("f", 2, "g"), ComposeSeq("f", 4, "h"),
    ]:
        s = apply_event(s, ev)
    return s


def sections(state):
    """The raw record of state's dump, whose in section, unlike a FlatState's in_op, can drift from the hats."""
    return _read_state(dump_state(state), state.config)


def test_machine_agrees_with_tree():
    assert compare_with_flat(machine_nested_state(), "f", nested_tree()) == []


def test_comparison_reports_input_drift():
    s = machine_nested_state()
    bad = replace(sections(s), in_op={**s.in_op, "g": frozenset({2, 3, 4})})
    problems = compare_with_flat(bad, "f", nested_tree())
    assert problems and any(p.startswith("in:") for p in problems)


def test_comparison_reports_wrong_root():
    s = machine_nested_state()
    problems = compare_with_flat(s, "f", graft(elementary("x", 4), 2, elementary("g", 3)))
    assert any(p.startswith("root:") for p in problems)


def test_component_map_sends_members_to_their_root():
    # the members rows, and so g_hook_op, hold the root only, not the full
    # ancestor closure: h sits below g, yet is listed straight under f, with g as its parent
    s = machine_nested_state()
    assert derive_flat_view(nested_tree()).hook_map == {"g": "f", "h": "g"}
    assert s.hook_op == {"g": "f", "h": "g"}
    assert s.members == {"f": {"g": "f", "h": "g"}}
    assert s.g_hook_op == {"g": "f", "h": "f"}
    assert component_of(s, "f") == {"f", "g", "h"}


# One corruption of the worked example per mismatch class, each pinned to
# the exact messages compare_with_flat reports.
PINNED_MISMATCHES = {
    "root": (
        lambda s: s,
        lambda: graft(elementary("x", 4), 2, elementary("g", 3)),
        ["root: machine says 'f', tree says 'x'"],
    ),
    # a ninth hat is also a ninth leaf and a ninth input, since the foliage
    # is the hats' keys and the input sets are read off the hats
    "foliage": (
        lambda s: replace(s, hats={"f": {**s.hats["f"], 9: "f"}}),
        nested_tree,
        [
            "foliage: machine (1, 2, 3, 4, 5, 6, 7, 8, 9) != tree (1, 2, 3, 4, 5, 6, 7, 8)",
            "in: machine {'f': frozenset({8, 1, 9, 7}), 'g': frozenset({2, 3}), 'h': frozenset({4, 5, 6})} "
            "!= tree {'f': frozenset({8, 1, 7}), 'g': frozenset({2, 3}), 'h': frozenset({4, 5, 6})}",
            "hat: machine {2: 'g', 3: 'g', 4: 'h', 1: 'f', 5: 'h', 6: 'h', 7: 'f', 8: 'f', 9: 'f'} "
            "!= tree {1: 'f', 2: 'g', 3: 'g', 4: 'h', 5: 'h', 6: 'h', 7: 'f', 8: 'f'}",
        ],
    ),
    "members": (
        lambda s: replace(s, members={"f": {**s.members["f"], "k": "f"}}),
        nested_tree,
        ["members: machine ['f', 'g', 'h', 'k'] != tree ['f', 'g', 'h']"],
    ),
    # only a dump's record can hold input sets that drift from its hats
    "in": (
        lambda s: replace(sections(s), in_op={**s.in_op, "g": frozenset({2, 3, 4})}),
        nested_tree,
        [
            "in: machine {'f': frozenset({8, 1, 7}), 'g': frozenset({2, 3, 4}), "
            "'h': frozenset({4, 5, 6})} != tree {'f': frozenset({8, 1, 7}), "
            "'g': frozenset({2, 3}), 'h': frozenset({4, 5, 6})}"
        ],
    ),
    "hat": (
        lambda s: replace(s, hats={"f": {**s.hats["f"], 5: "g"}}),
        nested_tree,
        [
            "in: machine {'f': frozenset({8, 1, 7}), 'g': frozenset({2, 3, 5}), 'h': frozenset({4, 6})} "
            "!= tree {'f': frozenset({8, 1, 7}), 'g': frozenset({2, 3}), 'h': frozenset({4, 5, 6})}",
            "hat: machine {2: 'g', 3: 'g', 4: 'h', 1: 'f', 5: 'g', 6: 'h', 7: 'f', 8: 'f'} "
            "!= tree {1: 'f', 2: 'g', 3: 'g', 4: 'h', 5: 'h', 6: 'h', 7: 'f', 8: 'f'}"
        ],
    ),
    "hook": (
        lambda s: replace(s, members={"f": {**s.members["f"], "h": "f"}}),
        nested_tree,
        ["hook: machine {'g': 'f', 'h': 'f'} != tree {'g': 'f', 'h': 'g'}"],
    ),
    "arity": (
        lambda s: replace(s, arity_op={**s.arity_op, "g": 2}),
        nested_tree,
        ["arity: machine says 'g' has 2, tree says 3"],
    ),
    # a member listed under a non-root drops out of the root's component
    "ghook": (
        lambda s: replace(s, members={"f": {"g": "f"}, "g": {"h": "g"}}),
        nested_tree,
        ["members: machine ['f', 'g'] != tree ['f', 'g', 'h']"],
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_MISMATCHES))
def test_comparison_messages_are_pinned(case):
    mutate, tree, expected = PINNED_MISMATCHES[case]
    assert compare_with_flat(mutate(machine_nested_state()), "f", tree()) == expected


def test_comparison_rejects_grafted_root():
    s = machine_nested_state()
    grafted = replace(s, members={**s.members, "g": {"f": "g"}})
    with pytest.raises(BoundsError):
        compare_with_flat(grafted, "f", nested_tree())


def test_comparison_reports_missing_input_entry():
    s = machine_nested_state()
    bad = replace(sections(s), in_op={k: v for k, v in s.in_op.items() if k != "g"})
    assert compare_with_flat(bad, "f", nested_tree()) == [
        "in: machine {'f': frozenset({8, 1, 7}), 'h': frozenset({4, 5, 6})} != tree "
        "{'f': frozenset({8, 1, 7}), 'g': frozenset({2, 3}), 'h': frozenset({4, 5, 6})}"
    ]


def test_comparison_reports_missing_arity_entry():
    s = machine_nested_state()
    bad = replace(s, arity_op={k: v for k, v in s.arity_op.items() if k != "h"})
    # the input sets are keyed by the operads, so h's goes with its arity
    assert compare_with_flat(bad, "f", nested_tree()) == [
        "in: machine {'f': frozenset({8, 1, 7}), 'g': frozenset({2, 3})} != tree "
        "{'f': frozenset({8, 1, 7}), 'g': frozenset({2, 3}), 'h': frozenset({4, 5, 6})}",
        "arity: machine says 'h' has None, tree says 3",
    ]
