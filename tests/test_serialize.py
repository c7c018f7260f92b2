"""Text dumps, loading them back, and the JSON export."""

import json

import pytest

from operadix import (
    Config,
    NewOperad,
    ComposeSeq,
    StateFormatError,
    apply_event,
    check_invariants,
    dump_state,
    empty_state,
    load_state,
    state_to_json,
)

FULL_DUMP = """[operads]
operads: f
operads: g
operads: h
[arity]
arity: f->4
arity: g->3
arity: h->3
[foliage]
foliage: (1,f)
foliage: (2,f)
foliage: (3,f)
foliage: (4,f)
foliage: (5,f)
foliage: (6,f)
foliage: (7,f)
foliage: (8,f)
[in]
in: f->{1,7,8}
in: g->{2,3}
in: h->{4,5,6}
[out]
out: f->{1}
[hat]
hat: (1,f)->f
hat: (2,f)->g
hat: (3,f)->g
hat: (4,f)->h
hat: (5,f)->h
hat: (6,f)->h
hat: (7,f)->f
hat: (8,f)->f
[hook]
hook: g->f
hook: h->g
[ghook]
ghook: g->f
ghook: h->f
"""


def nested_state():
    s = empty_state()
    for ev in [
        NewOperad("f", 4), NewOperad("g", 3), NewOperad("h", 3),
        ComposeSeq("f", 2, "g"), ComposeSeq("f", 4, "h"),
    ]:
        s = apply_event(s, ev)
    return s


def test_dump_golden_text():
    assert dump_state(nested_state()) == FULL_DUMP


def test_dump_empty_state_keeps_sections():
    assert dump_state(empty_state()) == (
        "[operads]\n[arity]\n[foliage]\n[in]\n[out]\n[hat]\n[hook]\n[ghook]\n"
    )


def test_dump_fresh_operad_lines():
    text = dump_state(apply_event(empty_state(), NewOperad("g", 3)))
    assert "hat: (3,g)->g" in text
    assert "in: g->{1,2,3}" in text
    assert "out: g->{1}" in text


def test_round_trip_identity():
    for state in (empty_state(), nested_state()):
        assert load_state(dump_state(state)) == state


def test_round_trip_keeps_config():
    cfg = Config(max_args=3, max_oprd=2, max_fol=6)
    s = apply_event(empty_state(cfg), NewOperad("f", 3))
    loaded = load_state(dump_state(s), cfg)
    assert loaded == s
    assert loaded.config == cfg


def test_load_tolerates_blank_lines_and_comments():
    text = "# a state\n[operads]\noperads: f\n\n[arity]\narity: f->2\n[foliage]\nfoliage: (1,f)\nfoliage: (2,f)\n[in]\nin: f->{1,2}\n[out]\nout: f->{1}\n[hat]\nhat: (1,f)->f\nhat: (2,f)->f\n[hook]\n[ghook]\n"
    s = load_state(text)
    assert s.my_operads == {"f"}
    assert check_invariants(s) == []


@pytest.mark.parametrize(
    "text",
    [
        "[nonsense]\n",
        "operads: f\n",  # entry before any section
        "[operads]\noperads f\n",  # missing colon
        "[arity]\narity: f->x\n",
        "[arity]\narity: f->١\n",  # numbers are ASCII digits only
        "[hat]\nhat: (١,f)->f\n",
        "[foliage]\nfoliage: 1,f\n",
        "[in]\nin: f->{1,\n",
        "[hat]\nhat: (1,f)f\n",
        "[hook]\nhook: g-f\n",
        "[operads]\noperads: f\noperads: f\n",  # duplicate entry
        "[arity]\narity: f->2\narity: f->3\n",
        "[in]\nin: f->{1}\nin: f->{2}\n",
        "[hat]\nhat: (1,f)->f\nhat: (1,f)->g\n",
    ],
)
def test_load_rejects_malformed(text):
    with pytest.raises(StateFormatError):
        load_state(text)


@pytest.mark.parametrize(
    "text,message",
    [
        ("[hat]\nhat: (1,f)->f\nhat: (1,f)->g\n", "line 3: duplicate hat entry for (1, 'f')"),
        ("[hat]\nhat: (1,f)f\n", "line 2: malformed hat entry '(1,f)f'"),
        ("[hat]\nhat: (١,f)->f\n", "line 2: malformed hat entry '(١,f)->f'"),
        # one malformed and one repeated entry in each section
        ("[operads]\noperads: f-g\n", "line 2: bad operad id 'f-g'"),
        ("[operads]\noperads: f\n# again\noperads: f\n", "line 4: duplicate operad 'f'"),
        ("[arity]\narity: f->x\n", "line 2: malformed arity entry 'f->x'"),
        ("[arity]\narity: f->2\narity: f->3\n", "line 3: duplicate arity for 'f'"),
        ("[foliage]\nfoliage: 1,f\n", "line 2: malformed foliage entry '1,f'"),
        ("[foliage]\nfoliage: (1,f)\nfoliage: (1,f)\n", "line 3: duplicate foliage entry '(1,f)'"),
        ("[in]\nin: f->{1\n", "line 2: malformed in entry 'f->{1'"),
        ("[in]\nin: f->{1}\nin: f->{2}\n", "line 3: duplicate in entry for 'f'"),
        ("[out]\nout: f->1\n", "line 2: malformed out entry 'f->1'"),
        ("[out]\nout: f->{1}\n\nout: f->{}\n", "line 4: duplicate out entry for 'f'"),
        ("[hook]\nhook: g-f\n", "line 2: malformed hook entry 'g-f'"),
        ("[hook]\nhook: g->f\nhook: g->h\n", "line 3: duplicate hook entry for 'g'"),
        ("[ghook]\nghook: g->\n", "line 2: malformed ghook entry 'g->'"),
        ("[ghook]\nghook: g->f\nghook: g->f\n", "line 3: duplicate ghook entry for 'g'"),
        # the entry's position set, read after its key
        ("[in]\nin: f->{1,,2}\n", "line 2: malformed position set"),
        ("[out]\nout: f->{,}\n", "line 2: malformed position set"),
        ("[in]\nin: f->{1}\nin: f->{1,,2}\n", "line 3: duplicate in entry for 'f'"),
        ("[out]\nout: f->{1}\nout: f->{,}\n", "line 3: duplicate out entry for 'f'"),
        # the line grammar
        ("[nonsense]\n", "line 1: unknown section [nonsense]"),
        ("[operads]\n[alphabet]\n", "line 2: unknown section [alphabet]"),
        ("# header next\noperads: f\n", "line 2: entry before any section header"),
        ("[operads]\narity: f->2\n", "line 2: expected a 'operads' entry, got 'arity: f->2'"),
        ("[operads]\noperads f\n", "line 2: expected a 'operads' entry, got 'operads f'"),
        # the first bad line wins, whatever its kind
        ("[arity]\narity: f->x\n[nonsense]\n", "line 2: malformed arity entry 'f->x'"),
        ("[hook]\nhook: g->f\nhook: g->f\n[arity]\narity: f->x\n", "line 3: duplicate hook entry for 'g'"),
    ],
)
def test_load_names_the_bad_hat_line(text, message):
    with pytest.raises(StateFormatError) as err:
        load_state(text)
    assert str(err.value) == message


def test_hat_lines_of_one_root_load_into_one_row():
    # sorted as strings, the hat lines of f lie on both sides of g's
    state = apply_event(apply_event(empty_state(), NewOperad("f", 2)), NewOperad("g", 1))
    text = dump_state(state)
    assert "hat: (1,f)->f\nhat: (1,g)->g\nhat: (2,f)->f\n" in text
    assert load_state(text).hats == {"f": {1: "f", 2: "f"}, "g": {1: "g"}} == state.hats


def test_load_error_mentions_line_number():
    with pytest.raises(StateFormatError) as err:
        load_state("[operads]\noperads: f\nbroken line here\n")
    assert "3" in str(err.value)


def test_loaded_corrupt_state_reaches_checker():
    # the line format holds, so the loader runs the checker and names its labels
    text = FULL_DUMP.replace("in: g->{2,3}", "in: g->{2,3,4}")
    with pytest.raises(StateFormatError, match=r"^state violates SP2, SP3$"):
        load_state(text)


def test_zero_position_loads_but_fails_invariants():
    # 0 fits the line grammar; positions being 1-based is the checker's inv40
    with pytest.raises(StateFormatError, match=r"^state violates .*inv40"):
        load_state("[operads]\noperads: f\n[foliage]\nfoliage: (0,f)\n")


def test_state_to_json_shape():
    data = state_to_json(nested_state())
    assert data["operads"] == ["f", "g", "h"]
    assert data["arity"] == {"f": 4, "g": 3, "h": 3}
    assert data["in"] == {"f": [1, 7, 8], "g": [2, 3], "h": [4, 5, 6]}
    assert data["out"] == {"f": [1]}
    assert [1, "f", "f"] in data["hat"]
    assert data["hook"] == {"g": "f", "h": "g"}
    assert data["ghook"] == {"g": "f", "h": "f"}
    assert data["foliage"][0] == [1, "f"]
    json.dumps(data)  # must be serializable as-is


def test_state_to_json_deterministic():
    a = json.dumps(state_to_json(nested_state()))
    b = json.dumps(state_to_json(nested_state()))
    assert a == b
