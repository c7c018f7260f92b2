"""The command line pipeline: exit codes, text output, JSON output."""

import io
import json

import pytest

from operadix import dump_decorated, dump_state, empty_decorated, new_operad_x, replay, parse_trace
from operadix.cli import main

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
    # creation takes arities 1..max_args and max_out outputs, as in every other entry point
    for trace, label in [("new f 2 1\nnew f 2 1\n", "g3"), ("new f 40 1\n", "g4"), ("new f 2 2\n", "g6")]:
        path.write_text(trace)
        assert main(["compose", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: [{label}] ")


def test_check_clean_state(dump_file, capsys):
    assert main(["check", dump_file]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_check_finds_violation(tmp_path, capsys):
    path = tmp_path / "broken.dump"
    path.write_text(expected_dump().replace("in: g->{2,3}", "in: g->{2,3,4}"))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().out == "violated: SP3\n"


def test_check_json(tmp_path, capsys):
    path = tmp_path / "broken.dump"
    path.write_text(expected_dump().replace("in: g->{2,3}", "in: g->{2,3,4}"))
    assert main(["check", "--json", str(path)]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data == {"ok": False, "violations": ["SP3"], "gluing": []}


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
