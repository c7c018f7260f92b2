"""Symbol-decorated slots over the base machine: transport, gluing, formats."""

from dataclasses import replace

import pytest

from operadix import (
    BoundsError,
    Config,
    GuardFailed,
    NewOperad,
    ComposeSeq,
    FlatState,
    SimConfig,
    StateFormatError,
    TraceReset,
    apply_event,
    check_gluing,
    check_invariants,
    compose_seq_x,
    decorated_to_json,
    default_alphabet,
    dump_decorated,
    empty_decorated,
    empty_state,
    erase,
    load_decorated,
    new_operad_x,
    replay,
    run,
)


def decorated_pair():
    """f:4 with abcd on its slots, g:2 with ef, g grafted into slot 2."""
    s = empty_decorated()
    s = new_operad_x(s, "f", 4)
    s = new_operad_x(s, "g", 2, decor={1: "e", 2: "f"})
    return compose_seq_x(s, "f", 2, "g")


def test_default_alphabet_matches_bounds():
    assert default_alphabet(Config()) == ("a", "b", "c", "d", "e", "f")
    wide = Config(max_args=30, max_oprd=1, max_fol=30)
    symbols = default_alphabet(wide)
    assert len(symbols) == 30
    assert symbols[25] == "z" and symbols[26] == "x1" and symbols[29] == "x4"


def test_empty_decorated_default():
    s = empty_decorated()
    assert s.alphabet == ("a", "b", "c", "d", "e", "f")
    assert s.in_op_x == {} and s.out_op_x == {}


@pytest.mark.parametrize(
    "alphabet",
    [
        ("a", "b"),  # shorter than max_args
        ("a", "b", "c", "d", "e", "a"),  # repeated symbol
        ("a", "b", "c", "d", "e", "no spaces allowed!"),
    ],
)
def test_empty_decorated_rejects_bad_alphabet(alphabet):
    with pytest.raises(BoundsError):
        empty_decorated(alphabet=alphabet)


def test_new_operad_x_default_decoration():
    s = new_operad_x(empty_decorated(), "f", 3)
    assert s.in_op_x == {"f": {1: "a", 2: "b", 3: "c"}}
    assert s.out_op_x == {"f": "a"}


def test_new_operad_x_explicit_decoration():
    s = new_operad_x(empty_decorated(), "f", 2, decor={1: "c", 2: "a"}, out_symbol="b")
    assert s.in_op_x["f"] == {1: "c", 2: "a"}
    assert s.out_op_x["f"] == "b"


def decoration_guard(fn, *args, **kwargs):
    with pytest.raises(GuardFailed) as err:
        fn(*args, **kwargs)
    return err.value.label


def test_new_operad_x_guards():
    s = new_operad_x(empty_decorated(), "f", 2)
    assert decoration_guard(new_operad_x, s, "g", 7) == "g4"  # the base bound is the decorated one
    assert decoration_guard(new_operad_x, s, "g", 2, decor={1: "a", 3: "b"}) == "decor-domain"
    assert decoration_guard(new_operad_x, s, "g", 2, decor={1: "a", 2: "zz"}) == "decor-symbol"
    assert decoration_guard(new_operad_x, s, "g", 2, decor={1: "a", 2: "a"}) == "decor-injective"
    assert decoration_guard(new_operad_x, s, "g", 2, out_symbol="zz") == "decor-symbol"
    # base guards run before any decoration check
    assert decoration_guard(new_operad_x, s, "f", 7) == "g3"


@pytest.mark.parametrize("decor", [{True: "a", 2.0: "b"}, {1: "a", 2.0: "b"}, {True: "a", 2: "b"}])
def test_new_operad_x_takes_only_int_slots(decor):
    # {True, 2.0} == {1, 2}, so only the key types tell these apart from {1: "a", 2: "b"}
    s = new_operad_x(empty_decorated(), "f", 2)
    assert decoration_guard(new_operad_x, s, "g", 2, decor=decor) == "decor-domain"
    valid = new_operad_x(s, "g", 2, decor={1: "a", 2: "b"})
    assert check_gluing(valid) == [] and load_decorated(dump_decorated(valid)) == valid


def test_compose_transports_symbols():
    s = decorated_pair()
    # slot 2 of f carried b; that symbol is consumed with the slot
    assert s.in_op_x["f"] == {1: "a", 4: "c", 5: "d"}
    assert s.in_op_x["g"] == {2: "e", 3: "f"}
    assert s.out_op_x == {"f": "a"}  # g's output symbol went with its output
    assert check_gluing(s) == []


def test_compose_transport_nested():
    s = empty_decorated()
    s = new_operad_x(s, "f", 4)
    s = new_operad_x(s, "g", 3, decor={1: "d", 2: "e", 3: "f"})
    s = new_operad_x(s, "h", 3, decor={1: "a", 2: "c", 3: "e"})
    s = compose_seq_x(s, "f", 2, "g")
    s = compose_seq_x(s, "f", 4, "h")
    assert s.in_op_x == {
        "f": {1: "a", 7: "c", 8: "d"},
        "g": {2: "d", 3: "e"},
        "h": {4: "a", 5: "c", 6: "e"},
    }
    assert check_gluing(s) == []
    assert check_invariants(s.base) == []


def test_erase_recovers_base_run():
    s = decorated_pair()
    base = replay([NewOperad("f", 4), NewOperad("g", 2), ComposeSeq("f", 2, "g")])
    assert erase(s) == base
    # simulator traces, replayed with decorations: symbols and slots move together
    for max_oprd in (8, 16):
        cfg = Config(max_oprd=max_oprd, max_fol=max_oprd * 6)
        for seed in (1, 2, 3, 4):
            trace = run(SimConfig(seed=seed, max_steps=150, config=cfg)).trace
            decorated, base = empty_decorated(cfg), empty_state(cfg)
            for event in trace:
                if isinstance(event, TraceReset):
                    decorated, base = empty_decorated(cfg), empty_state(cfg)
                    continue
                if isinstance(event, NewOperad):
                    decorated = new_operad_x(decorated, event.op_id, event.arity, event.outs)
                else:
                    decorated = compose_seq_x(decorated, event.op1, event.pos, event.op2)
                base = apply_event(base, event)
                assert check_gluing(decorated) == []
                assert erase(decorated) == base
            assert erase(decorated) == replay(trace, cfg)


def test_decorated_guard_failures_are_atomic():
    s = new_operad_x(decorated_pair(), "k", 1)
    before = replace(s)
    with pytest.raises(GuardFailed) as err:
        compose_seq_x(s, "f", 99, "k")
    assert err.value.label == "rg72"
    assert s == before


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda s: replace(s, in_op_x={k: v for k, v in s.in_op_x.items() if k != "g"}), "no slot decoration"),
        (lambda s: replace(s, in_op_x={**s.in_op_x, "zz": {}}), "unknown to the base"),
        (lambda s: replace(s, in_op_x={**s.in_op_x, "g": {2: "e"}}), "decorated slots"),
        (
            lambda s: replace(s, in_op_x={**s.in_op_x, "f": {1: "a", 4: "a", 5: "d"}}),
            "symbols repeat",
        ),
        (lambda s: replace(s, in_op_x={**s.in_op_x, "g": {2: "e", 3: "zz"}}), "not in the alphabet"),
        (lambda s: replace(s, out_op_x={}), "no output symbol"),
        (lambda s: replace(s, out_op_x={**s.out_op_x, "g": "a"}), "output symbol but no output"),
    ],
)
def test_gluing_detects_drift(mutate, fragment):
    problems = check_gluing(mutate(decorated_pair()))
    assert problems and any(fragment in p for p in problems)


def test_dump_decorated_sections():
    text = dump_decorated(decorated_pair())
    assert "[alphabet]\nalphabet: a,b,c,d,e,f\n" in text
    assert "inx: f->{1:a,4:c,5:d}" in text
    assert "inx: g->{2:e,3:f}" in text
    assert "outx: f->a" in text
    assert "outx: g" not in text


def test_decorated_round_trip():
    s = decorated_pair()
    assert load_decorated(dump_decorated(s)) == s


def test_decorated_round_trip_custom_alphabet():
    alphabet = ("p", "q", "r", "s", "t", "u")
    s = new_operad_x(empty_decorated(alphabet=alphabet), "f", 2)
    loaded = load_decorated(dump_decorated(s))
    assert loaded.alphabet == alphabet
    assert loaded == s


@pytest.mark.parametrize(
    "text",
    [
        "[operads]\noperads: f\n[inx]\ninx: f->{}\n",  # alphabet missing
        "[alphabet]\nalphabet: a,b,c,d,e,f\n[alphabet]\nalphabet: a,b,c,d,e,f\n",
        "[alphabet]\nalphabet: a,b,c,d,e,f\n[inx]\ninx: f->{1a}\n",
        "[alphabet]\nalphabet: a,b,c,d,e,f\n[inx]\ninx: f->{1:a}\ninx: f->{1:a}\n",
        "[alphabet]\nalphabet: a,b,c,d,e,f\n[inx]\ninx: f->{1:a,1:b}\n",
        "[alphabet]\nalphabet: a,b,c,d,e,f\n[outx]\noutx: f->\n",
    ],
)
def test_load_decorated_rejects_malformed(text):
    with pytest.raises(StateFormatError):
        load_decorated(text)


def test_load_decorated_reports_true_line_numbers():
    # the [alphabet] block comes first and line 10 is corrupt
    text = (
        "[alphabet]\nalphabet: a,b,c,d,e,f\n[inx]\ninx: f->{1:a,2:b}\n[outx]\noutx: f->a\n"
        "[operads]\noperads: f\n[arity]\narity: f->two\n[foliage]\nfoliage: (1,f)\n"
    )
    with pytest.raises(StateFormatError, match=r"^line 10: malformed arity entry"):
        load_decorated(text)
    with pytest.raises(StateFormatError, match=r"^line 3: expected a 'alphabet' entry"):
        load_decorated("[operads]\n[alphabet]\nbroken\n")


def test_load_decorated_rejects_a_broken_base_state():
    text = dump_decorated(decorated_pair()).replace("in: g->{2,3}", "in: g->{2,3,4}")
    with pytest.raises(StateFormatError, match=r"^state violates SP2, SP3$"):
        load_decorated(text)


def test_load_decorated_skips_comments_in_every_section():
    text = dump_decorated(decorated_pair())
    commented = text.replace("[inx]\n", "[inx]\n# note\n").replace("[outx]\n", "[outx]\n  # x\n")
    commented = commented.replace("[alphabet]\n", "[alphabet]\n#\n")
    loaded = load_decorated(commented)
    # the dump is read into a raw record, and only a checked one becomes a FlatState
    assert type(loaded.base) is FlatState
    assert loaded == decorated_pair()


def test_decorated_to_json():
    data = decorated_to_json(decorated_pair())
    assert data["alphabet"] == ["a", "b", "c", "d", "e", "f"]
    assert data["inx"]["f"] == [[1, "a"], [4, "c"], [5, "d"]]
    assert data["outx"] == {"f": "a"}
    assert data["operads"] == ["f", "g"]
