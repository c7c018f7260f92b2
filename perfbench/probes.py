"""Fixed calls into each layer, made once per traced run.

A traced run reports every per-layer metric on every workload.  Where the
workload itself never calls a function, the function's times come from
``idle_times``: the function called on one fixed input, mostly the
worked example ``(f o_2 g) o_4 h``.  Counts and shares are not probed;
they stay 0 where a module does no work.  ``scaling`` and ``import_ms``
do not depend on the workload and run in every traced run.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import statistics
import subprocess
import sys
import time

from spans import nearest_rank

PROGRAM = "f:4; g:3; h:3;\n(f o_2 g) o_4 h\n"
REPEATS = 25


def _calls(ox) -> dict[str, tuple]:
    """Function key -> (one call, times to make it)."""
    cli = importlib.import_module("operadix.cli")
    cfg = ox.Config()
    decls, expr = ox.parse(PROGRAM)
    events = ox.elaborate(decls, expr, cfg)
    state = ox.replay(events, cfg)
    dump = ox.dump_state(state)
    two = ox.new_operad(ox.new_operad(ox.empty_state(cfg), "f", 4), "g", 3)
    tree = ox.graft(ox.graft(ox.elementary("f", 4), 2, ox.elementary("g", 3)), 4, ox.elementary("h", 3))
    decorated = ox.new_operad_x(ox.new_operad_x(ox.empty_decorated(cfg), "f", 4), "g", 3)
    decorated_dump = ox.dump_decorated(ox.compose_seq_x(decorated, "f", 2, "g"))
    binary, ternary = (ox.FiniteFn(2, n, tuple(i % 2 for i in range(2**n))) for n in (2, 3))
    binding = {name: ox.FiniteFn(3, n, (i,) * 3**n) for i, (name, n) in enumerate((("f", 4), ("g", 3), ("h", 3)))}

    def cli_check():
        saved, sys.stdin = sys.stdin, io.StringIO(dump)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(["check", "-"])
        finally:
            sys.stdin = saved

    return {
        "flat_machine.new_operad": (lambda: ox.new_operad(two, "h", 3), REPEATS),
        "flat_machine.compose_seq_with_witness": (lambda: ox.compose_seq_with_witness(two, "f", 2, "g"), REPEATS),
        "flat_machine.check_invariants": (lambda: ox.check_invariants(state), REPEATS),
        "flat_machine.composition_law_violations": (
            lambda: ox.composition_law_violations(*ox.compose_seq_with_witness(two, "f", 2, "g")), REPEATS),
        "simulator.replay": (lambda: ox.replay(events, cfg), REPEATS),
        "tree_oracle.graft": (lambda: ox.graft(ox.elementary("f", 4), 2, ox.elementary("g", 3)), REPEATS),
        "tree_oracle.compare_with_flat": (lambda: ox.compare_with_flat(state, "f", tree), REPEATS),
        "endomorphism.circ": (lambda: ox.circ(binary, 1, ternary), REPEATS),
        "endomorphism.interpret": (lambda: ox.interpret(expr, binding), REPEATS),
        "endomorphism.sweep_sequential": (lambda: ox.sweep_sequential(2, 2), 1),
        "endomorphism.sweep_parallel": (lambda: ox.sweep_parallel(2, 2), 1),
        "endomorphism.sweep_identity": (lambda: ox.sweep_identity(2, 3), 1),
        "expr_parser.parse": (lambda: ox.parse(PROGRAM), REPEATS),
        "expr_parser.print_program": (lambda: ox.print_program(decls, expr), REPEATS),
        "expr_parser.elaborate": (lambda: ox.elaborate(decls, expr, cfg), REPEATS),
        "serialize.dump_state": (lambda: ox.dump_state(state), REPEATS),
        "serialize.load_state": (lambda: ox.load_state(dump, cfg), REPEATS),
        "serialize.state_to_json": (lambda: ox.state_to_json(state), REPEATS),
        "decoration.compose_seq_x": (lambda: ox.compose_seq_x(decorated, "f", 2, "g"), REPEATS),
        "decoration.dump_decorated": (lambda: ox.dump_decorated(decorated), REPEATS),
        "decoration.load_decorated": (lambda: ox.load_decorated(decorated_dump, cfg), REPEATS),
        "decoration.check_gluing": (lambda: ox.check_gluing(decorated), REPEATS),
        "cli.main": (cli_check, REPEATS),
    }


# work per probed call, for the rate metrics: circ builds a 2**4-entry table
_WORK = {"endomorphism.circ": ("entries_per_s", 2**4), "expr_parser.parse": ("chars_per_s", len(PROGRAM))}


def idle_times(ox, idle: set[str]) -> dict[str, float]:
    """``total_s``, ``us_p50``, ``us_p99`` and rates for the idle function keys."""
    out: dict[str, float] = {}
    for key, (call, repeats) in _calls(ox).items():
        if key not in idle:
            continue
        durations = []
        for _ in range(repeats):
            start = time.perf_counter_ns()
            call()
            durations.append(time.perf_counter_ns() - start)
        durations.sort()
        total_s = sum(durations) / 1e9
        out[f"{key}.total_s"] = total_s
        out[f"{key}.us_p50"] = nearest_rank(durations, 50) / 1e3
        out[f"{key}.us_p99"] = nearest_rank(durations, 99) / 1e3
        if key in _WORK:
            name, work = _WORK[key]
            out[f"{key}.{name}"] = work * repeats / total_s
    return out


def scaling(ox) -> dict[str, float]:
    """µs per event as the bounds grow: no oracle, max_fol = 6 * max_oprd."""
    out = {}
    for max_oprd in (8, 32, 128):
        config = ox.Config(max_oprd=max_oprd, max_fol=6 * max_oprd)
        elapsed, events = 0.0, 0
        for seed in (1, 2):
            sim = ox.SimConfig(seed=seed, max_steps=4 * max_oprd, config=config)
            start = time.perf_counter()
            events += ox.run(sim).steps
            elapsed += time.perf_counter() - start
        out[f"simulator.event_us.oprd{max_oprd}"] = elapsed / events * 1e6
    return out


def import_ms(ox, pairs: int = 7) -> float:
    """Median start of an interpreter importing operadix.cli, minus a bare one."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ox.__file__)))
    bare, loaded = [], []
    for _ in range(pairs):
        for code, into in (("pass", bare), ("import operadix.cli", loaded)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            into.append(time.perf_counter() - start)
    return (statistics.median(loaded) - statistics.median(bare)) * 1e3
