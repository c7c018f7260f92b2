"""The four workloads: how each generates requests, runs one, and checks it.

Every workload talks to operadix only through the package's public names
(``ox.<name>``), and every public call goes through ``call(fn, *args)``:
plain ``fn(*args)`` when measuring, a span recorder when tracing, so both
runs execute the same calls.  A workload provides:

  inputs()                 endless request inputs, the same on every call
  warmup_input()           an input outside that sequence, for the warm-up
  request(inp, call)       the timed request
  check(inp, out, call)    problems found in the result, outside timing
  digest(out)              a small value equal for equal results
  units(inp, out)          work done, in the unit of ``work_metric``
  reconstruct(inp, out, call)  traced runs only: re-drive an opaque call
  layer_metrics(summary)   traced runs only: metrics the spans cannot give

and three constants: ``rate``, the requests an untraced run makes per
second of ``--seconds`` (sized so that a run takes about that long on a
2-vCPU Xeon VM and makes at least 110 requests at 22 s, so that ten
samples lie beyond p90); ``passes``, how often it makes each request,
whose latency is its fastest run; and ``cli_rate``, the ``operadix``
subprocesses per second of ``--seconds``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys

from reference import (
    arity,
    composites_after,
    leftmost,
    random_tree,
    source_text,
    state_problems,
    table_of,
)


def to_expr(ox, tree):
    if len(tree) == 2:
        return ox.Atom(tree[0])
    left, pos, right, _ = tree
    return ox.Compose(to_expr(ox, left), pos, to_expr(ox, right))


class Simulation:
    """Seeded ``run(SimConfig(...))`` requests, each a fixed number of events."""

    work_metric = "events_per_s"
    passes = 9
    cli_rate = 0

    def __init__(
        self, ox, seed: int, *, max_oprd: int, max_fol: int, steps: int, oracle_every: int, rate: float
    ):
        self.ox = ox
        self.rate = rate
        self.seed = seed
        self.config = ox.Config(max_oprd=max_oprd, max_fol=max_fol)
        self.steps = steps
        self.oracle_every = oracle_every
        self.fired = self.drawn = self.resets = 0

    def _sim(self, seed: int):
        return self.ox.SimConfig(
            seed=seed, max_steps=self.steps, config=self.config, oracle_check_every=self.oracle_every
        )

    def inputs(self):
        rng = random.Random(self.seed)
        while True:
            yield self._sim(rng.getrandbits(32))

    def warmup_input(self):
        return self._sim(random.Random(f"warm-up {self.seed}").getrandbits(32))

    def request(self, sim, call):
        return call(self.ox.run, sim)

    def units(self, sim, report) -> int:
        return report.steps

    def digest(self, report) -> int:
        return hash((
            report.trace, report.steps, report.deadlock_resets, report.deadlock_states,
            report.violations, report.oracle_checks,
            tuple(sorted(report.fired.items())), tuple(sorted(report.guard_failures.items())),
        ))

    def check(self, sim, report, call) -> list[str]:
        ox = self.ox
        problems = [f"violation at step {v.step}: {v.kind} {v.labels}" for v in report.violations]
        if report.steps != sim.max_steps:
            problems.append(f"fired {report.steps} of {sim.max_steps} events")
        resets = sum(1 for event in report.trace if isinstance(event, ox.TraceReset))
        if resets != report.deadlock_resets or len(report.trace) - resets != report.steps:
            problems.append("trace does not match the reported steps and resets")
        final = call(ox.replay, report.trace, self.config)
        problems += [f"replayed state violates {label}" for label in ox.check_invariants(final)]
        problems += state_problems(final, *composites_after(report.trace))
        return problems

    def reconstruct(self, sim, report, call) -> list[str]:
        """The calls run() made for each fired event, taken from its trace.

        Guard-rejected draws are not in the trace, so their cost stays
        in the simulator's own share.
        """
        ox, every = self.ox, sim.oracle_check_every
        state, mirrors, fired, resets, problems = ox.empty_state(self.config), {}, 0, 0, []
        for event in report.trace:
            if isinstance(event, ox.TraceReset):
                resets += 1
                call(ox.dump_state, state)
                state, mirrors = ox.empty_state(self.config), {}
                continue
            if isinstance(event, ox.NewOperad):
                state = call(ox.new_operad, state, event.op_id, event.arity, event.outs)
                bad = call(ox.check_invariants, state)
            else:
                state, witness = call(ox.compose_seq_with_witness, state, event.op1, event.pos, event.op2)
                bad = call(ox.check_invariants, state)
                bad += call(ox.composition_law_violations, state, witness)
            fired += 1
            if every:
                if isinstance(event, ox.NewOperad):
                    mirrors[event.op_id] = call(ox.elementary, event.op_id, event.arity)
                else:
                    grafted = mirrors.pop(event.op2)
                    mirrors[event.op1] = call(ox.graft, mirrors[event.op1], event.pos, grafted)
                if fired % every == 0:
                    for root in sorted(mirrors):
                        bad += call(ox.compare_with_flat, state, root, mirrors[root])
            if bad:
                problems.append(f"replayed event {fired} violates {bad}")
        if resets != report.deadlock_resets:
            problems.append(f"replay reset {resets} times, run() {report.deadlock_resets}")
        self.fired += report.steps
        self.drawn += report.steps + sum(report.guard_failures.values())
        self.resets += report.deadlock_resets
        return problems

    def layer_metrics(self, summary) -> dict[str, float]:
        out = {
            "simulator.fire_ratio": self.fired / self.drawn if self.drawn else 0.0,
            "simulator.deadlock_resets": 1000 * self.resets / self.fired if self.fired else 0.0,
        }
        run_s = summary["functions"].get("simulator.run", {}).get("total_s", 0.0)
        own_s = summary["modules"].get("simulator", {}).get("busy_s", 0.0)
        out["simulator.self_share"] = own_s / run_s if run_s else 0.0
        return out


class Evaluation:
    """The exhaustive carrier-2 axiom sweeps, then seeded ``interpret`` requests."""

    work_metric = "cases_per_s"
    rate = 150  # the three sweeps are the first of these
    passes = 5  # the sweeps take seconds on each pass
    cli_rate = 0
    SWEEPS = (
        ("sweep_sequential", 2, 2, 25920),
        ("sweep_parallel", 2, 2, 6400),
        ("sweep_identity", 2, 3, 804),
    )
    CARRIER = 3
    MAX_RESULT_ARITY = 7

    def __init__(self, ox, seed: int):
        self.ox = ox
        self.seed = seed
        self.circ_entries = 0

    def inputs(self):
        for sweep in self.SWEEPS:
            yield ("sweep",) + sweep
        rng = random.Random(self.seed)
        while True:
            yield self._program(rng)

    def warmup_input(self):
        return self._program(random.Random(f"warm-up {self.seed}"))

    def _program(self, rng):
        """2 to 4 atoms of arity 1 to 3, at most 3**7 result entries."""
        s = self.CARRIER
        k = rng.randint(2, 4)
        while True:
            arities = [rng.randint(1, 3) for _ in range(k)]
            if sum(arities) - (k - 1) <= self.MAX_RESULT_ARITY:
                break
        atoms = [(f"f{i}", a) for i, a in enumerate(arities)]
        tables = {name: tuple(rng.randrange(s) for _ in range(s**a)) for name, a in atoms}
        tree = random_tree(rng, atoms)
        binding = {name: self.ox.FiniteFn(s, a, tables[name]) for name, a in atoms}
        return ("interpret", tree, tables, to_expr(self.ox, tree), binding, dict(atoms))

    def request(self, inp, call):
        if inp[0] == "sweep":
            return call(getattr(self.ox, inp[1]), inp[2], inp[3])
        _, _, _, expr, binding, declared = inp
        return call(self.ox.interpret, expr, binding, declared)

    def units(self, inp, out) -> int:
        return out.cases if inp[0] == "sweep" else 0

    def digest(self, out) -> int:
        return hash(out)

    def check(self, inp, out, call) -> list[str]:
        if inp[0] == "sweep":
            name, expected = inp[1], inp[4]
            if out.ok and out.cases == expected:
                return []
            return [f"{name}: ok={out.ok} cases={out.cases}, expected ok with {expected}"]
        _, tree, tables, _, _, _ = inp
        expected = table_of(tree, tables, self.CARRIER)
        if (out.carrier, out.arity, out.table) != (self.CARRIER, arity(tree), expected):
            return [f"interpret of {tree} differs from the pointwise reference"]
        return []

    def reconstruct(self, inp, out, call) -> list[str]:
        """``circ`` calls that ``interpret`` or ``sweep_identity`` make, re-driven."""
        ox = self.ox
        if inp[0] == "interpret":
            _, _, _, expr, binding, _ = inp

            def walk(node):
                if isinstance(node, ox.Atom):
                    return binding[node.name]
                return self._circ(call, walk(node.left), node.pos, walk(node.right))

            return [] if walk(expr) == out else ["re-driven circ calls differ from interpret"]
        if inp[1] != "sweep_identity":
            return []
        one, cases, failed = ox.identity_fn(inp[2]), 0, 0
        for n in range(1, inp[3] + 1):
            for f in ox.all_functions(inp[2], n):
                for ii in range(1, n + 1):
                    cases += 1
                    if self._circ(call, f, ii, one) != f or self._circ(call, one, 1, f) != f:
                        failed += 1
        if failed or cases != inp[4]:
            return [f"re-driven identity sweep: {failed} of {cases} cases failed"]
        return []

    def _circ(self, call, f, ii, g):
        out = call(self.ox.circ, f, ii, g)
        self.circ_entries += len(out.table)
        return out

    def layer_metrics(self, summary) -> dict[str, float]:
        circ = summary["functions"].get("endomorphism.circ")
        return {"endomorphism.circ.entries_per_s": self.circ_entries / circ["total_s"]} if circ else {}


class TextPipeline:
    """Seeded programs through parse, replay, dumps and the decorated layer.

    Sequential ``operadix`` subprocesses run on the same texts, spread
    evenly over the first pass.
    """

    work_metric = "programs_per_s"
    rate = 50
    passes = 9
    cli_rate = 3
    COMMANDS = ("parse", "check", "export")

    def __init__(self, ox, seed: int):
        self.ox = ox
        self.seed = seed
        self.config = ox.Config()
        self.cli_calls = 0
        self.env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ox.__file__)))
        self.env.pop("OPERADIX_CONFIG", None)
        self.chars = 0

    def inputs(self):
        rng = random.Random(self.seed)
        while True:
            yield self._program(rng)

    def warmup_input(self):
        return self._program(random.Random(f"warm-up {self.seed}"))

    def _program(self, rng):
        """2 to 8 atoms of arity 1 to 6, all used once, under the default bounds."""
        names = rng.sample([f"{c}{i}" for c in "fghpq" for i in range(10)], rng.randint(2, 8))
        atoms = [(name, rng.randint(1, self.config.max_args)) for name in names]
        tree = random_tree(rng, atoms)
        decls = rng.sample(atoms, len(atoms))
        source = source_text(rng, decls, tree)
        expected = (tuple(self.ox.Declaration(n, a) for n, a in decls), to_expr(self.ox, tree))
        return source, expected, tree, decls

    def request(self, inp, call):
        ox, cfg = self.ox, self.config
        decls, expr = call(ox.parse, inp[0])
        canonical = call(ox.print_program, decls, expr)
        events = call(ox.elaborate, decls, expr, cfg)
        state = call(ox.replay, events, cfg)
        dump = call(ox.dump_state, state)
        loaded = call(ox.load_state, dump, cfg)
        bad = call(ox.check_invariants, loaded)
        as_json = call(ox.state_to_json, loaded)
        decorated = call(ox.empty_decorated, cfg)
        for event in events:
            if isinstance(event, ox.NewOperad):
                decorated = call(ox.new_operad_x, decorated, event.op_id, event.arity, event.outs)
            else:
                decorated = call(ox.compose_seq_x, decorated, event.op1, event.pos, event.op2)
        decorated_dump = call(ox.dump_decorated, decorated)
        reloaded = call(ox.load_decorated, decorated_dump, cfg)
        gluing = call(ox.check_gluing, reloaded)
        return (decls, expr), canonical, dump, loaded, bad, as_json, decorated_dump, reloaded, gluing

    def units(self, inp, out) -> int:
        return 1

    def digest(self, out) -> int:
        program, canonical, dump, *_, decorated_dump, _, _ = out
        return hash((program, canonical, dump, decorated_dump))

    def check(self, inp, out, call) -> list[str]:
        ox = self.ox
        _, expected, tree, decls = inp
        program, canonical, dump, loaded, bad, as_json, decorated_dump, reloaded, gluing = out
        root, leaves = leftmost(tree), arity(tree)
        problems = [f"invariant {label} violated" for label in bad]
        problems += [f"gluing: {problem}" for problem in gluing]
        if program != expected:
            problems.append("parse tree differs from the generated program")
        if ox.parse(canonical) != program:
            problems.append("print_program does not parse back to the same program")
        if ox.dump_state(loaded) != dump:
            problems.append("dump -> load -> dump is not byte-identical")
        problems += state_problems(loaded, {root: leaves}, dict(decls))
        if as_json["foliage"] != [[p, root] for p in range(1, leaves + 1)]:
            problems.append("state_to_json foliage differs")
        if ox.erase(reloaded) != loaded:
            problems.append("erased decorated state differs from the plain state")
        if ox.dump_decorated(reloaded) != decorated_dump:
            problems.append("decorated dump -> load -> dump is not byte-identical")
        return problems

    def cli_expectation(self, inp, out) -> tuple[str, str, str]:
        """The next subcommand in turn, its stdin and the output it must print."""
        command = self.COMMANDS[self.cli_calls % len(self.COMMANDS)]
        self.cli_calls += 1
        dump, as_json = out[2], out[5]
        if command == "parse":
            return command, inp[0], dump
        if command == "check":
            return command, dump, "ok\n"
        return command, dump, json.dumps(as_json, indent=2) + "\n"

    def run_cli(self, command: str, stdin: str) -> tuple[int, str]:
        done = subprocess.run(
            [sys.executable, "-m", "operadix.cli", command, "-"],
            input=stdin, capture_output=True, text=True, env=self.env, timeout=60, check=False,
        )
        return done.returncode, done.stdout

    def main_in_process(self, command: str, stdin: str, call) -> tuple[int, str]:
        """``cli.main`` in this process, with stdin and stdout redirected."""
        cli = importlib.import_module("operadix.cli")
        buffer, saved = io.StringIO(), sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(buffer):
                code = call(cli.main, [command, "-"])
        finally:
            sys.stdin = saved
        return code, buffer.getvalue()

    def reconstruct(self, inp, out, call) -> list[str]:
        """Nothing is opaque here; only count the characters parsed."""
        self.chars += len(inp[0])
        return []

    def layer_metrics(self, summary) -> dict[str, float]:
        parse = summary["functions"].get("expr_parser.parse")
        return {"expr_parser.parse.chars_per_s": self.chars / parse["total_s"]} if parse else {}


WORKLOADS = {
    "sim-default": lambda ox, seed: Simulation(
        ox, seed, max_oprd=8, max_fol=48, steps=200, oracle_every=0, rate=6
    ),
    "sim-wide-oracle": lambda ox, seed: Simulation(
        ox, seed, max_oprd=64, max_fol=384, steps=50, oracle_every=1, rate=5
    ),
    "eval": Evaluation,
    "text-pipeline": TextPipeline,
}
