"""Grammar, AST printing, and elaboration of programs into event lists."""

import pytest

from operadix import (
    Atom,
    Compose,
    ComposeSeq,
    Config,
    Declaration,
    ElaborationError,
    NewOperad,
    ParseError,
    elaborate,
    foliage_of,
    parse,
    print_expr,
    print_program,
    replay,
)
from operadix.expr_parser import MAX_DEPTH


def test_parse_single_atom():
    decls, expr = parse("f:4; f")
    assert decls == (Declaration("f", 4),)
    assert expr == Atom("f")


def test_parse_nested_program():
    decls, expr = parse("f:4; g:3; h:3; (f o_2 g) o_4 h")
    assert decls == (Declaration("f", 4), Declaration("g", 3), Declaration("h", 3))
    assert expr == Compose(Compose(Atom("f"), 2, Atom("g")), 4, Atom("h"))


def test_compose_is_left_associative():
    _, expr = parse("f:3; g:1; h:1; f o_1 g o_2 h")
    assert expr == Compose(Compose(Atom("f"), 1, Atom("g")), 2, Atom("h"))


def test_parens_override_association():
    _, expr = parse("f:3; g:2; h:1; f o_2 (g o_1 h)")
    assert expr == Compose(Atom("f"), 2, Compose(Atom("g"), 1, Atom("h")))


@pytest.mark.parametrize(
    "src",
    [
        "f:2; g:1; f o_1 g",
        "f:2; g:1; f @ 1 g",
        "f:2; g:1; f o_ 1 g",
        "f:2; g:1; (f) o_1 (g)",
        "f:2;g:1;f@1g",
        "# prelude\nf:2; # binary\ng:1;\nf o_1 g\n",
    ],
)
def test_alias_comment_whitespace_forms(src):
    _, expr = parse(src)
    assert expr == Compose(Atom("f"), 1, Atom("g"))


@pytest.mark.parametrize(
    "src,line,col",
    [
        ("f:2; f $ g", 1, 8),
        ("f:2; g", 1, 6),  # undeclared
        ("f:2; f:3; f", 1, 6),  # duplicate declaration
        ("f:0; f", 1, 3),  # arity below 1
        ("f:2; (f o_1 f", 1, 14),  # unclosed paren
        ("f:2;", 1, 5),  # no expression
        ("", 1, 1),
        ("f:2; f o_x g", 1, 8),
        ("f:2; g:1;\nf o_1 g extra", 2, 9),
    ],
)
def test_parse_errors_carry_position(src, line, col):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert (err.value.line, err.value.col) == (line, col)


def test_print_expr_fully_parenthesized():
    _, expr = parse("f:4; g:3; h:3; (f o_2 g) o_4 h")
    assert print_expr(expr) == "((f o_2 g) o_4 h)"
    assert print_expr(Atom("f")) == "f"


def test_print_program_round_trips():
    src = "f:4; g:3; h:3; (f o_2 g) o_4 h"
    decls, expr = parse(src)
    printed = print_program(decls, expr)
    assert printed == "f:4; g:3; h:3; ((f o_2 g) o_4 h)"
    assert parse(printed) == (decls, expr)


def test_elaborate_nested_program():
    events = elaborate(*parse("f:4; g:3; h:3; (f o_2 g) o_4 h"))
    assert events == [
        NewOperad("f", 4),
        NewOperad("g", 3),
        NewOperad("h", 3),
        ComposeSeq("f", 2, "g"),
        ComposeSeq("f", 4, "h"),
    ]


def test_elaborate_right_associated_program():
    # inner graft runs first, then lands in f; slot arithmetic differs
    events = elaborate(*parse("f:4; g:3; h:3; f o_2 (g o_3 h)"))
    assert events == [
        NewOperad("f", 4),
        NewOperad("g", 3),
        NewOperad("h", 3),
        ComposeSeq("g", 3, "h"),
        ComposeSeq("f", 2, "g"),
    ]


def test_elaborate_emits_unused_declarations():
    events = elaborate(*parse("f:2; spare:3; f"))
    assert events == [NewOperad("f", 2), NewOperad("spare", 3)]


def test_elaborated_events_replay_to_expected_arity():
    decls, expr = parse("f:4; g:3; h:3; (f o_2 g) o_4 h")
    state = replay(elaborate(decls, expr))
    assert foliage_of(state, "f") == tuple(range(1, 9))


@pytest.mark.parametrize("src", ["f:2; g:1; f o_9 g", "f:2; g:1; f o_0 g"])
def test_elaborate_rejects_out_of_range_slot(src):
    with pytest.raises(ElaborationError):
        elaborate(*parse(src))


def test_elaborate_rejects_atom_reuse():
    with pytest.raises(ElaborationError):
        elaborate(*parse("f:2; f o_1 f"))


def test_elaborate_caps_declared_arity():
    with pytest.raises(ElaborationError):
        elaborate(*parse("f:7; f"))
    big = Config(max_args=7, max_oprd=8, max_fol=56)
    assert elaborate(*parse("f:7; f"), config=big) == [NewOperad("f", 7)]


def test_slot_arithmetic_against_machine():
    # both association orders of the same shape give the same state
    left = replay(elaborate(*parse("f:4; g:3; h:3; (f o_2 g) o_4 h")))
    right = replay(elaborate(*parse("f:4; g:3; h:3; f o_2 (g o_3 h)")))
    assert left == right


def chain(n: int) -> str:
    """n unary atoms composed left to right: a tree n - 1 compositions deep."""
    return "".join(f"a{k}:1; " for k in range(n)) + " o_1 ".join(f"a{k}" for k in range(n))


def test_nesting_up_to_max_depth_is_accepted():
    decls, expr = parse(chain(MAX_DEPTH + 1))
    wide = Config(max_args=1, max_oprd=MAX_DEPTH + 1, max_fol=MAX_DEPTH + 1)
    assert len(elaborate(decls, expr, wide)) == 2 * MAX_DEPTH + 1
    assert parse(print_program(decls, expr)) == (decls, expr)
    assert parse("f:1; " + "(" * MAX_DEPTH + "f" + ")" * MAX_DEPTH)[1] == Atom("f")


@pytest.mark.parametrize(
    "src,message",
    [
        (chain(MAX_DEPTH + 2), f"compositions nest deeper than {MAX_DEPTH}"),
        ("f:1; " + "(" * (MAX_DEPTH + 1) + "f" + ")" * (MAX_DEPTH + 1), f"parentheses nest deeper than {MAX_DEPTH}"),
    ],
)
def test_parse_rejects_deeper_nesting(src, message):
    with pytest.raises(ParseError, match=message):
        parse(src)


def test_elaborate_rejects_more_declarations_than_max_oprd():
    with pytest.raises(ElaborationError, match="9 declarations exceed max_oprd = 8"):
        elaborate(*parse(chain(9)))
