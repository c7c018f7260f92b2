"""Command line front end.

Subcommands form a small pipeline over text formats:

    parse     program -> state dump (parse, elaborate, replay)
    compose   trace   -> state dump
    check     dump    -> invariant report
    simulate  seed    -> run report
    axioms    bounds  -> axiom sweep report
    eval      program -> finite function table
    export    dump    -> JSON

Exit codes: 0 success, 1 usage or input errors, 2 when a requested
check ran and found genuine violations.  File arguments accept ``-``
for stdin.  Bounds come from --config or the OPERADIX_CONFIG file,
individual --max-* flags override either.  Output is deterministic
for identical inputs and flags; nothing timing-dependent is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .core import _CONFIG_KEYS, BoundsError, Config, OperadError, config_from_entries, parse_config_entries
from .decoration import _read_decorated, check_gluing, decorated_to_json
from .endomorphism import format_fn, interpret, parse_fn_spec, sweep_identity, sweep_parallel, sweep_sequential
from .expr_parser import elaborate, parse, print_program
from .flat_machine import check_invariants
from .serialize import _read_state, dump_state, state_to_json
from .simulator import SimConfig, format_report, format_trace, parse_trace, replay, report_to_json, run


class _UsageError(OperadError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage problems, not argparse's 2
        raise _UsageError(message)


_INT_RE = re.compile(r"-?[0-9]+\Z")


def _int(text: str) -> int:
    """The type of every integer flag: an optional minus and ASCII digits."""
    if not _INT_RE.match(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _resolve_config(args) -> Config:
    path = args.config or os.environ.get("OPERADIX_CONFIG")
    entries = parse_config_entries(_read(path)) if path else {}
    return config_from_entries(entries, **{key: getattr(args, key) for key in _CONFIG_KEYS})


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def cmd_parse(args, cfg: Config) -> int:
    decls, expr = parse(_read(args.file))
    events = elaborate(decls, expr, cfg)
    state = replay(events, cfg)
    if args.json:
        _emit_json({
            "program": print_program(decls, expr),
            "trace": format_trace(events).splitlines(),
            "state": state_to_json(state),
        })
    else:
        sys.stdout.write(dump_state(state))
    return 0


def cmd_compose(args, cfg: Config) -> int:
    state = replay(parse_trace(_read(args.file)), cfg)
    if args.json:
        _emit_json(state_to_json(state))
    else:
        sys.stdout.write(dump_state(state))
    return 0


def _is_decorated(text: str) -> bool:
    """True when a line, comments aside, is the [alphabet] section header."""
    return any(line.strip() == "[alphabet]" for line in text.splitlines())


def cmd_check(args, cfg: Config) -> int:
    text = _read(args.file)
    if _is_decorated(text):
        decorated = _read_decorated(text, cfg)
        bad = check_invariants(decorated.base)
        glue = check_gluing(decorated)
    else:
        bad = check_invariants(_read_state(text, cfg))
        glue = []
    if args.json:
        _emit_json({"ok": not bad and not glue, "violations": bad, "gluing": glue})
    else:
        if not bad and not glue:
            print("ok")
        for label in bad:
            print(f"violated: {label}")
        for problem in glue:
            print(f"gluing: {problem}")
    return 2 if bad or glue else 0


def cmd_simulate(args, cfg: Config) -> int:
    try:
        sim = SimConfig(
            seed=args.seed,
            max_steps=args.steps,
            config=cfg,
            oracle_check_every=args.oracle_every,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    report = run(sim)
    if args.json:
        _emit_json(report_to_json(report))
    else:
        sys.stdout.write(format_report(report))
    return 2 if report.violations else 0


def cmd_axioms(args, cfg: Config) -> int:
    if not 1 <= args.carrier <= 4:
        raise BoundsError(f"carrier must be in 1..4, got {args.carrier}")
    if not 1 <= args.max_arity <= 4:
        raise BoundsError(f"max arity must be in 1..4, got {args.max_arity}")
    results = {
        "sequential": sweep_sequential(args.carrier, args.max_arity),
        "parallel": sweep_parallel(args.carrier, args.max_arity),
        "identity": sweep_identity(args.carrier, args.max_arity),
    }
    if args.json:
        _emit_json({
            name: {"ok": r.ok, "cases": r.cases, "counterexample": r.counterexample}
            for name, r in results.items()
        })
    else:
        for name, r in results.items():
            line = f"{name}: {'OK' if r.ok else 'FAILED'} ({r.cases} cases)"
            if r.counterexample:
                line += f" counterexample: {r.counterexample}"
            print(line)
    return 0 if all(r.ok for r in results.values()) else 2


def cmd_eval(args, cfg: Config) -> int:
    decls, expr = parse(_read(args.file))
    binding = {}
    for item in args.fn:
        name, sep, spec = item.partition("=")
        if not sep or not name:
            raise _UsageError(f"--fn wants name=carrier:table, got {item!r}")
        binding[name] = parse_fn_spec(spec, carrier=args.carrier)
    declared = {d.name: d.arity for d in decls}
    result = interpret(expr, binding, declared)
    if args.json:
        _emit_json({
            "carrier": result.carrier,
            "arity": result.arity,
            "table": list(result.table),
            "spec": format_fn(result),
        })
    else:
        print(format_fn(result))
    return 0


def cmd_export(args, cfg: Config) -> int:
    text = _read(args.file)
    if _is_decorated(text):
        payload = decorated_to_json(_read_decorated(text, cfg))
    else:
        payload = state_to_json(_read_state(text, cfg))
    _emit_json(payload)
    return 0


def build_parser() -> _ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="bounds file with key=value lines")
    for key in _CONFIG_KEYS:
        common.add_argument(f"--{key.replace('_', '-')}", type=_int, help=f"override {key}")
    common.add_argument("--json", action="store_true", help="JSON output")

    parser = _ArgumentParser(prog="operadix", description="operads as data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common], help="program file to state dump")
    p.add_argument("file")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("compose", parents=[common], help="event trace to state dump")
    p.add_argument("file")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("check", parents=[common], help="invariant check of a state dump")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", parents=[common], help="randomized machine exploration")
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--steps", type=_int, default=1000)
    p.add_argument("--oracle-every", type=_int, default=0,
                   help="count an oracle check every N fired events")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("axioms", parents=[common], help="exhaustive axiom sweeps on finite functions")
    p.add_argument("--carrier", type=_int, default=2)
    p.add_argument("--max-arity", type=_int, default=2)
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("eval", parents=[common], help="evaluate a program over finite functions")
    p.add_argument("file")
    p.add_argument("--carrier", type=_int, default=None)
    p.add_argument("--fn", action="append", default=[],
                   metavar="NAME=CARRIER:TABLE", help="bind an atom to a function table")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export", parents=[common], help="state dump to JSON")
    p.add_argument("file")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args)
        return args.func(args, cfg)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OperadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
