"""The command line pipeline: exit codes, text output, JSON output."""

import contextlib
import io
import json
import re
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from operadix import (
    Config,
    StateFormatError,
    compose_seq_x,
    dump_decorated,
    dump_state,
    empty_decorated,
    load_decorated,
    load_state,
    new_operad_x,
    parse_trace,
    replay,
    state_to_json,
)
from operadix.cli import _resolve_config, build_parser, main
from operadix.serialize import _read_state

PROGRAM = "f:4; g:3; h:3; (f o_2 g) o_4 h\n"

TRACE = "new f 4 1\nnew g 3 1\nnew h 3 1\ncompose f 2 g\ncompose f 4 h\n"

GOLDEN_SIM = """seed: 1
rng: mt19937
steps: 10
fired: compose_seq=2 new_operad=8
guard-failures: g1=1
deadlock-resets: 0
oracle-checks: 0
violations: 0
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.op"
    path.write_text(PROGRAM)
    return str(path)


@pytest.fixture
def dump_file(tmp_path):
    path = tmp_path / "state.dump"
    path.write_text(dump_state(replay(parse_trace(TRACE))))
    return str(path)


def expected_dump():
    return dump_state(replay(parse_trace(TRACE)))


def test_parse_emits_state_dump(program_file, capsys):
    assert main(["parse", program_file]) == 0
    assert capsys.readouterr().out == expected_dump()


def test_parse_json(program_file, capsys):
    assert main(["parse", "--json", program_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["program"] == "f:4; g:3; h:3; ((f o_2 g) o_4 h)"
    assert data["trace"] == TRACE.splitlines()
    assert data["state"]["operads"] == ["f", "g", "h"]


def test_parse_reports_syntax_error(tmp_path, capsys):
    path = tmp_path / "bad.op"
    path.write_text("f:4; f $ g\n")
    assert main(["parse", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error" in err and "1:8" in err


def test_parse_leaves_the_arity_rule_to_elaborate(tmp_path, capsys):
    path = tmp_path / "zero.op"
    path.write_text("f:0; f\n")
    assert main(["parse", str(path)]) == 1
    assert capsys.readouterr().err == "error: declared arity 0 of 'f' is not an int in 1..6\n"


def test_parse_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(PROGRAM))
    assert main(["parse", "-"]) == 0
    assert capsys.readouterr().out == expected_dump()


def test_compose_replays_trace(tmp_path, capsys):
    path = tmp_path / "trace.txt"
    path.write_text(TRACE)
    assert main(["compose", str(path)]) == 0
    assert capsys.readouterr().out == expected_dump()


def test_compose_rejects_malformed_trace(tmp_path, capsys):
    path = tmp_path / "trace.txt"
    path.write_text("boom f 1 1\n")
    assert main(["compose", str(path)]) == 1
    assert "cannot parse" in capsys.readouterr().err


def test_compose_reports_guard_failure(tmp_path, capsys):
    path = tmp_path / "trace.txt"
    # creation takes arities 1..max_args and one output, as in every other entry point
    for trace, label in [("new f 2 1\nnew f 2 1\n", "g3"), ("new f 40 1\n", "g4"), ("new f 2 2\n", "g6")]:
        path.write_text(trace)
        assert main(["compose", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: [{label}] ")


@pytest.mark.parametrize(
    "command,text",
    [
        ("compose", "new f ² 1\n"),  # "²".isdigit() is true, int("²") fails
        ("compose", "new f 2 1\nnew g 1 1\ncompose f ² g\n"),
        ("compose", "new f ١ 1\n"),  # int("١") is 1
        ("parse", "f:١; f\n"),
        ("check", expected_dump().replace("arity: f->4", "arity: f->١")),
        ("check", expected_dump().replace("foliage: (1,f)", "foliage: (١,f)")),
    ],
)
def test_only_ascii_digits_are_numbers(tmp_path, capsys, command, text):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_check_clean_state(dump_file, capsys):
    assert main(["check", dump_file]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_check_finds_violation(tmp_path, capsys):
    path = tmp_path / "broken.dump"
    path.write_text(expected_dump().replace("in: g->{2,3}", "in: g->{2,3,4}"))
    assert main(["check", str(path)]) == 2
    # slot 4 is h's: g's claim on it breaks the slot map and g's input count
    assert capsys.readouterr().out == "violated: SP2\nviolated: SP3\n"


def test_check_json(tmp_path, capsys):
    path = tmp_path / "broken.dump"
    path.write_text(expected_dump().replace("in: g->{2,3}", "in: g->{2,3,4}"))
    assert main(["check", "--json", str(path)]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data == {"ok": False, "violations": ["SP2", "SP3"], "gluing": []}


def test_check_names_a_bad_alphabet_line(tmp_path, capsys):
    path = tmp_path / "short.dump"
    path.write_text("[operads]\n[alphabet]\nalphabet: a,,b\n")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == "error: line 3: alphabet has 3 symbols, needs at least max_args = 6\n"


def two_roots(**changes):
    """The roots f:3 and h:2, with some relations replaced."""
    return replace(replay(parse_trace("new f 3 1\nnew h 2 1\n")), **changes)


UNREACHABLE = {
    # made under wider bounds than the default ones the dump is checked with
    "arity-past-max_args": lambda: replay(parse_trace("new f 7 1\n"), Config(max_args=7, max_fol=56)),
    "past-max_oprd-and-max_fol": lambda: replay(
        parse_trace("".join(f"new f{k} 6 1\n" for k in range(9))), Config(max_oprd=9, max_fol=54)
    ),
    # a dump's in section, read as it is, disagrees with its hats
    "inputs-short-of-arity": lambda: replace(
        _read_state(dump_state(two_roots())), in_op={"f": frozenset({1}), "h": frozenset({1, 2})}
    ),
    # a dump's foliage section, read as it is, disagrees with its hats
    "foliage-with-a-gap": lambda: replace(
        _read_state(dump_state(two_roots())),
        foliage=frozenset({(1, "f"), (2, "f"), (9, "f"), (1, "h"), (2, "h")}),
    ),
    "hat-owned-by-another-root": lambda: two_roots(hats={"f": {1: "h", 2: "f", 3: "f"}, "h": {1: "h", 2: "h"}}),
    "no-arities": lambda: two_roots(arity_op={}),
    # every position lies in 1..max_fol, but f:2's two slots are not 1..2
    "slots-1-and-3": lambda: replace(replay(parse_trace("new f 2 1\n")), hats={"f": {1: "f", 3: "f"}}),
}


@pytest.mark.parametrize("build", UNREACHABLE.values(), ids=UNREACHABLE.keys())
def test_check_rejects_unreachable_states(tmp_path, capsys, build):
    state = build()
    text = dump_state(state)
    with pytest.raises(StateFormatError, match=r"^state violates "):
        load_state(text)
    path = tmp_path / "unreachable.dump"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().out.startswith("violated: ")
    # check and export read a dump as it is
    assert main(["export", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == state_to_json(state)


# root r:2 with members a:2 and b:2, each hooked to the other: every count
# and slot agrees, but no parent chain reaches the root
HOOK_CYCLE = """[operads]
operads: a
operads: b
operads: r
[arity]
arity: a->2
arity: b->2
arity: r->2
[foliage]
foliage: (1,r)
foliage: (2,r)
foliage: (3,r)
foliage: (4,r)
[in]
in: a->{3}
in: b->{4}
in: r->{1,2}
[out]
out: r->{1}
[hat]
hat: (1,r)->r
hat: (2,r)->r
hat: (3,r)->a
hat: (4,r)->b
[hook]
hook: a->b
hook: b->a
[ghook]
ghook: a->r
ghook: b->r
"""


def test_check_rejects_a_hook_cycle(tmp_path, capsys):
    with pytest.raises(StateFormatError, match=r"^state violates invr40$"):
        load_state(HOOK_CYCLE)
    path = tmp_path / "cycle.dump"
    path.write_text(HOOK_CYCLE)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().out == "violated: invr40\n"


def decorated_dump():
    s = new_operad_x(empty_decorated(), "f", 3)
    return dump_decorated(s)


def test_check_decorated_state(tmp_path, capsys):
    path = tmp_path / "dec.dump"
    path.write_text(decorated_dump())
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_check_decorated_gluing_break(tmp_path, capsys):
    path = tmp_path / "dec.dump"
    path.write_text(decorated_dump().replace("inx: f->{1:a,2:b,3:c}", "inx: f->{1:a,2:b}"))
    assert main(["check", str(path)]) == 2
    assert "gluing:" in capsys.readouterr().out


def test_simulate_golden(capsys):
    assert main(["simulate", "--seed", "1", "--steps", "10"]) == 0
    assert capsys.readouterr().out == GOLDEN_SIM


def test_simulate_json(capsys):
    assert main(["simulate", "--seed", "1", "--steps", "10", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["steps"] == 10
    assert data["fired"] == {"compose_seq": 2, "new_operad": 8}
    assert "elapsed_seconds" not in data


def test_simulate_rejects_zero_steps(capsys):
    assert main(["simulate", "--steps", "0"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_simulate_with_oracle(capsys):
    assert main(["simulate", "--seed", "2", "--steps", "30", "--oracle-every", "3"]) == 0
    assert "oracle-checks: 10" in capsys.readouterr().out


def test_axioms_small_sweep(capsys):
    assert main(["axioms", "--carrier", "2", "--max-arity", "1"]) == 0
    out = capsys.readouterr().out
    assert out == "sequential: OK (64 cases)\nparallel: OK (0 cases)\nidentity: OK (4 cases)\n"


def test_axioms_carrier_bounds(capsys):
    assert main(["axioms", "--carrier", "9"]) == 1
    assert "carrier" in capsys.readouterr().err


def test_eval_program(tmp_path, capsys):
    path = tmp_path / "x.op"
    path.write_text("f:2; g:1; f o_1 g\n")
    assert main(["eval", str(path), "--fn", "f=2:0110", "--fn", "g=2:10"]) == 0
    assert capsys.readouterr().out == "2:1001\n"


def test_eval_binds_a_declared_constant(tmp_path, capsys):
    # a 0-ary declaration parses, and circ consumes the slot it fills
    path = tmp_path / "x.op"
    path.write_text("g:2; c:0; g o_1 c\n")
    assert main(["eval", str(path), "--fn", "g=2:0110", "--fn", "c=2:1"]) == 0
    assert capsys.readouterr().out == "2:10\n"


def test_eval_missing_binding(tmp_path, capsys):
    path = tmp_path / "x.op"
    path.write_text("f:2; f\n")
    assert main(["eval", str(path)]) == 1


def test_eval_carrier_cross_check(tmp_path, capsys):
    path = tmp_path / "x.op"
    path.write_text("f:2; f\n")
    assert main(["eval", str(path), "--fn", "f=2:0110", "--carrier", "3"]) == 1
    assert "carrier" in capsys.readouterr().err


def test_eval_bad_fn_syntax(tmp_path, capsys):
    path = tmp_path / "x.op"
    path.write_text("f:2; f\n")
    assert main(["eval", str(path), "--fn", "f"]) == 1
    assert "name=carrier:table" in capsys.readouterr().err


def test_eval_rejects_non_ascii_digits(tmp_path, capsys):
    path = tmp_path / "x.op"
    path.write_text("f:2; g:1; f o_1 g\n")
    assert main(["eval", str(path), "--fn", "f=2:0110", "--fn", "g=2:1\u00b2"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["check", "export"])
def test_plain_dump_mentioning_alphabet_in_a_comment(tmp_path, capsys, command):
    path = tmp_path / "state.dump"
    path.write_text("# copied from [alphabet] notes\n" + expected_dump())
    assert main([command, "--json", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    if command == "check":
        assert data == {"ok": True, "violations": [], "gluing": []}
    else:
        assert "alphabet" not in data and data["operads"] == ["f", "g", "h"]


def test_export_state(dump_file, capsys):
    assert main(["export", dump_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["operads"] == ["f", "g", "h"]
    assert data["hook"] == {"g": "f", "h": "g"}


def test_export_decorated(tmp_path, capsys):
    path = tmp_path / "dec.dump"
    path.write_text(decorated_dump())
    assert main(["export", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["alphabet"] == ["a", "b", "c", "d", "e", "f"]


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text("max_args=2\nmax_oprd=2\nmax_fol=6\n")
    prog = tmp_path / "p.op"
    prog.write_text("f:3; f\n")
    # the config caps arity at 2, so the program is rejected
    assert main(["parse", "--config", str(cfg), str(prog)]) == 1
    # a flag widens the cap again
    assert main(["parse", "--config", str(cfg), "--max-args", "3", str(prog)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("key, value", [("max_args", 1), ("max_oprd", 1), ("max_fol", 49)])
def test_each_bound_has_its_own_flag(key, value):
    # one --max-* flag per Config field, and it overrides that field alone
    args = build_parser().parse_args(["check", f"--{key.replace('_', '-')}", str(value), "-"])
    assert _resolve_config(args) == replace(Config(), **{key: value})


def test_config_env_fallback(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text("max_args=2\nmax_oprd=2\nmax_fol=6\n")
    prog = tmp_path / "p.op"
    prog.write_text("f:3; f\n")
    monkeypatch.setenv("OPERADIX_CONFIG", str(cfg))
    assert main(["parse", str(prog)]) == 1
    capsys.readouterr()


def test_inconsistent_bounds_rejected(program_file, capsys):
    # max_fol must cover max_oprd * max_args
    assert main(["parse", "--max-fol", "7", program_file]) == 1
    assert "max_fol" in capsys.readouterr().err


def test_bad_config_file(tmp_path, program_file, capsys):
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text("max_args\n")
    assert main(["parse", "--config", str(cfg), program_file]) == 1


@pytest.mark.parametrize("argv", [["parse", "p.op"], ["simulate"], ["axioms"], ["check", "s.dump"]])
def test_max_out_is_not_a_bound(tmp_path, capsys, argv):
    # every operad has the one output 1, so no flag or config key sets it;
    # both are rejected before any file argument is read
    assert main([*argv, "--max-out", "1"]) == 1
    assert "unrecognized arguments: --max-out" in capsys.readouterr().err
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text("max_out=1\n")
    assert main([*argv, "--config", str(cfg)]) == 1
    assert "unknown config key 'max_out'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["\u0661", " +8 ", "1_6"])
def test_config_file_takes_only_ascii_digits(tmp_path, program_file, capsys, value):
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text(f"max_oprd={value}\n", encoding="utf-8")
    assert main(["parse", "--config", str(cfg), program_file]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key 'max_oprd' needs an integer") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--seed", "\u0661"],
        ["simulate", "--steps", " +8 "],
        ["simulate", "--oracle-every", "1_0"],
        ["simulate", "--max-oprd", "\u00b2"],
        ["simulate", "--max-args", "+4"],
        ["axioms", "--carrier", "\u0662"],
        ["axioms", "--max-arity", "1_0"],
        ["eval", "-", "--carrier", "2 "],
    ],
)
def test_integer_flags_take_only_ascii_digits(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "invalid int value" in err and "Traceback" not in err


def test_integer_flags_take_a_minus_sign(capsys):
    # the type accepts -?[0-9]+; the bounds are checked where they were before
    assert main(["axioms", "--carrier", "-1"]) == 1
    assert capsys.readouterr().err == "error: carrier must be in 1..4, got -1\n"
    assert main(["axioms", "--carrier", "1", "--max-arity", "02"]) == 0
    assert capsys.readouterr().out.startswith("sequential: OK (18 cases)")


def test_usage_errors(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["parse", "/definitely/not/there.op"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,source",
    [
        (["parse", "-"], "f:1; " + "(" * 3000 + "f" + ")" * 3000),
        (["parse", "-"], "".join(f"a{k}:1; " for k in range(3000)) + " o_1 ".join(f"a{k}" for k in range(3000))),
        (["eval", "-", "--fn", "f=2:10"], "f:1; " + "(" * 3000 + "f" + ")" * 3000),
    ],
    ids=["parse-parens", "parse-chain", "eval-parens"],
)
def test_deep_programs_fail_without_traceback(argv, source, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(source))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nest deeper than" in err


# Every text format, mutated token by token and fed to main in process:
# (name, argv, valid text).  In argv, "-" reads the mutant from stdin,
# "{mutant}" is the mutant itself and "{program}" a valid program file.
FUZZ_PROGRAM = "f:2; g:1; h:2; (f o_1 g) o_2 h  # comment\n"
FUZZ_FNS = ["--fn", "f=2:0110", "--fn", "g=2:10", "--fn", "h=2:0111"]
FUZZ_TARGETS = [
    ("program", ["parse", "-"], FUZZ_PROGRAM),
    ("program-json", ["parse", "--json", "-"], FUZZ_PROGRAM),
    ("program-eval", ["eval", "-", *FUZZ_FNS], FUZZ_PROGRAM),
    ("trace", ["compose", "-"], TRACE),
    ("dump", ["check", "-"], expected_dump()),
    ("decorated", ["check", "-"], dump_decorated(
        compose_seq_x(new_operad_x(new_operad_x(empty_decorated(), "f", 3), "g", 2), "f", 2, "g")
    )),
    ("config", ["parse", "--config", "-", "{program}"], "# bounds\nmax_args=4\nmax_oprd=3\nmax_fol=12\n"),
    ("fn", ["eval", "{program}", "--fn", "{mutant}", "--fn", "g=2:10", "--fn", "h=2:0111"], "f=2:0110"),
]
FUZZ_TOKEN_RE = re.compile(r"[0-9]+|[A-Za-z_]+|\s+|.", re.DOTALL)
FUZZ_EXTRA_TOKENS = [
    "", "0", "-1", "99", "١", "²", "é", "[alphabet]", "[hat]", "[inx]", "#", ":", ";",
    "->", "{", "}", ",", "(", ")", "=", "o_", "zz", "\n", "\t", "\r", "\x00",
]
FUZZ_POOL = sorted(
    {tok for _, _, text in FUZZ_TARGETS for tok in FUZZ_TOKEN_RE.findall(text)} | set(FUZZ_EXTRA_TOKENS)
)


def run_main(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2), (argv, stdin_text, err.getvalue())
    return code, out.getvalue()


@pytest.fixture(scope="module")
def fuzz_program(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "prog.op"
    path.write_text(FUZZ_PROGRAM)
    return str(path)


@settings(max_examples=250, deadline=None)
@given(
    target=st.sampled_from(FUZZ_TARGETS),
    edits=st.lists(
        st.tuples(st.sampled_from(["drop", "swap", "insert"]), st.integers(0, 400), st.sampled_from(FUZZ_POOL)),
        max_size=4,
    ),
)
def test_mutated_texts_never_raise(fuzz_program, target, edits):
    _, argv, text = target
    tokens = FUZZ_TOKEN_RE.findall(text)
    for action, at, token in edits:
        at %= len(tokens) + 1
        if action == "insert" or at == len(tokens):
            tokens.insert(at, token)
        elif action == "swap":
            tokens[at] = token
        else:
            del tokens[at]
    mutant = "".join(tokens)
    argv = [fuzz_program if arg == "{program}" else mutant if arg == "{mutant}" else arg for arg in argv]
    code, _ = run_main(argv, mutant)
    if argv[0] == "check" and code != 1:
        # a dump that check reads exports; one that it passes loads, and
        # its re-dump exports the same
        export_code, exported_text = run_main(["export", "-"], mutant)
        assert export_code == 0
        if code == 0:
            exported = json.loads(exported_text)
            redump = (
                dump_decorated(load_decorated(mutant)) if "alphabet" in exported else dump_state(load_state(mutant))
            )
            assert json.loads(run_main(["export", "-"], redump)[1]) == exported
