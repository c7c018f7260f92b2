"""Output equality: the simulator and text outputs of a parent commit against the working tree's.

    python3 bench/outputs.py --parent HEAD

Run from the root of a git checkout.  The parent is a commit, exported
with ``git archive`` into a temporary directory; the change is the same
files of the working tree, as in bench/trajectory.py.  Each side runs in
a fresh ``python3 -B`` with ``PYTHONHASHSEED=0`` and that side's ``src/``
on ``PYTHONPATH``, and fires ``run(SimConfig(...))`` on every config of
a fixed matrix: seeds 1-8, ``max_oprd`` 8, 16 and 64 with
``max_fol = 6 * max_oprd``, and ``oracle_check_every`` 0, 1 and 3, at
1,500 steps.  Per config it hashes, with sha256, the report text
(``format_report``), its JSON (``report_to_json``), the trace
(``format_trace``) and the deadlock dumps.

It also takes the first 400 programs of perfbench's ``text-pipeline``
generator at seed ``TEXT_SEED``, imported unchanged from ``perfbench/``
as bench/trajectory.py does, runs each through that workload's request
and hashes, per block of 50 programs, ``print_program``, ``dump_state``,
``state_to_json``, ``dump_decorated``, ``decorated_to_json``,
``check_invariants`` and ``check_gluing``.  None of these shows a
frozenset's repr, whose order depends on how the set was built.

To gate the dump readers, it gives the plain and the decorated dump of
each of the first ``READER_PROGRAMS`` of those programs ``READER_EDITS``
seeded token edits in turn (drop, replace or insert, as in the CLI fuzz
test; the ``[alphabet]`` header and its ``alphabet:`` line are never
edited), runs the text after every edit through in-process
``operadix.cli.main`` with ``check --json -`` and with ``export -``,
and hashes the exit codes, stdout and stderr per block of 50 programs.

To gate the output of failing runs, it makes ``run()`` compose through
one of two corruptions, as ``tests/test_simulator.py``'s
``patch_compose`` does: ``swap`` swaps the owners of two slots of op1's
row, and ``drop`` hands op2's slots to op1 on every other compose.  It
runs seeds ``FAILING_SEEDS`` × ``oracle_check_every`` 0, 1 and 3 at
``FAILING_STEPS`` steps under each and hashes ``format_report`` and
``report_to_json`` per config.

It prints one hash per config and block, lists those whose hashes
differ between the sides, and exits 1 if any does.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from trajectory import copy_worktree, export_commit

SEEDS = tuple(range(1, 9))
MAX_OPRD = (8, 16, 64)
ORACLE_EVERY = (0, 1, 3)
STEPS = 1_500
TEXT_SEED = 1
TEXT_PROGRAMS = 400
TEXT_BLOCK = 50
HASHER = """\
import hashlib, json
from operadix import Config, SimConfig, format_report, format_trace, report_to_json, run
hashes = {{}}
for seed in {seeds}:
    for max_oprd in {max_oprd}:
        for every in {every}:
            config = Config(max_oprd=max_oprd, max_fol=6 * max_oprd)
            report = run(SimConfig(seed=seed, max_steps={steps}, config=config, oracle_check_every=every))
            parts = [format_report(report), json.dumps(report_to_json(report)), format_trace(report.trace)]
            digest = hashlib.sha256("\\0".join(parts + list(report.deadlock_states)).encode())
            hashes[f"seed={{seed}} max_oprd={{max_oprd}} oracle_check_every={{every}}"] = digest.hexdigest()
print(json.dumps(hashes))
"""
TEXT_HASHER = """\
import hashlib, itertools, json, sys
sys.path[:0] = ["src", "perfbench"]
import operadix as ox
from workloads import WORKLOADS
workload = WORKLOADS["text-pipeline"](ox, {seed})
programs = list(itertools.islice(workload.inputs(), {programs}))
hashes = {{}}
for start in range(0, len(programs), {block}):
    parts = []
    for program in programs[start:start + {block}]:
        _, canonical, dump, _, bad, as_json, decorated_dump, reloaded, gluing = workload.request(
            program, lambda fn, *args: fn(*args)
        )
        parts += [canonical, dump, json.dumps(as_json), decorated_dump,
                  json.dumps(ox.decorated_to_json(reloaded)), repr(bad), repr(gluing)]
    name = f"text-pipeline seed={seed} programs {{start + 1}}-{{start + {block}}}"
    hashes[name] = hashlib.sha256("\\0".join(parts).encode()).hexdigest()
print(json.dumps(hashes))
"""
FAILING_SEEDS = (1, 2, 3, 4)
FAILING_STEPS = 120
FAILING_HASHER = """\
import hashlib, json
from dataclasses import replace
from operadix import SimConfig, format_report, report_to_json, run
from operadix import flat_machine, simulator
compose = flat_machine.compose_seq_with_witness

def swap(state, op1, op2):
    row = state.hats[op1]
    first = min(row)
    other = min((p for p in row if row[p] != row[first]), default=None)
    if other is None:
        return state
    return replace(state, hats={{**state.hats, op1: {{**row, first: row[other], other: row[first]}}}})

def drop(state, op1, op2):
    if len(state.g_hook_op) % 2:
        row = {{p: op1 if m == op2 else m for p, m in state.hats[op1].items()}}
        return replace(state, hats={{**state.hats, op1: row}})
    return state

hashes = {{}}
for corrupt in (swap, drop):
    def corrupting(state, op1, ii, op2, corrupt=corrupt):
        after, witness = compose(state, op1, ii, op2)
        return corrupt(after, op1, op2), witness
    simulator.compose_seq_with_witness = flat_machine.compose_seq_with_witness = corrupting
    for seed in {seeds}:
        for every in {every}:
            report = run(SimConfig(seed=seed, max_steps={steps}, oracle_check_every=every))
            text = format_report(report) + "\\0" + json.dumps(report_to_json(report))
            name = f"failing {{corrupt.__name__}} seed={{seed}} oracle_check_every={{every}}"
            hashes[name] = hashlib.sha256(text.encode()).hexdigest()
print(json.dumps(hashes))
"""
READER_PROGRAMS = 200
READER_EDITS = 5
READER_HASHER = """\
import contextlib, hashlib, io, itertools, json, os, random, re, sys
sys.path[:0] = ["src", "perfbench"]
os.environ.pop("OPERADIX_CONFIG", None)
import operadix as ox
from operadix.cli import main
from workloads import WORKLOADS
TOKEN_RE = re.compile(r"[0-9]+|[A-Za-z_]+|\\s+|.", re.DOTALL)
KEPT_RE = re.compile(r"(\\n\\[alphabet\\]\\nalphabet: [^\\n]*\\n)")
EXTRA = ["", "0", "-1", "99", "\u0661", "\u00b2", "\u00e9", "[hat]", "[inx]", "#", ":", "->", "{{", "}}", ",", "(",
         ")", "zz", "\\n", "\\t", "\\r", "\\x00"]
workload = WORKLOADS["text-pipeline"](ox, {seed})
programs = list(itertools.islice(workload.inputs(), {programs}))
rng = random.Random({seed})
hashes = {{}}
for start in range(0, len(programs), {block}):
    parts = []
    for program in programs[start:start + {block}]:
        outputs = workload.request(program, lambda fn, *args: fn(*args))
        for text in (outputs[2], outputs[6]):
            # the [alphabet] header and its line are one token, kept whole
            pieces = KEPT_RE.split(text)
            kept = pieces[1] if len(pieces) == 3 else None
            tokens = [t for k, piece in enumerate(pieces) for t in ([piece] if k == 1 else TOKEN_RE.findall(piece))]
            pool = sorted(set(tokens) - {{kept, "alphabet"}} | set(EXTRA))
            for _ in range({edits}):
                at, action, token = rng.randrange(len(tokens) + 1), rng.choice(["drop", "swap", "insert"]), rng.choice(pool)
                if action == "insert" or at == len(tokens) or tokens[at] == kept:
                    tokens.insert(at, token)
                elif action == "swap":
                    tokens[at] = token
                else:
                    del tokens[at]
                for argv in (["check", "--json", "-"], ["export", "-"]):
                    out, err = io.StringIO(), io.StringIO()
                    sys.stdin = io.StringIO("".join(tokens))
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main(argv)
                    parts += [str(code), out.getvalue(), err.getvalue()]
    name = f"reader seed={seed} programs {{start + 1}}-{{start + {block}}}"
    hashes[name] = hashlib.sha256("\\0".join(parts).encode()).hexdigest()
print(json.dumps(hashes))
"""


def output_hashes(checkout: Path) -> dict[str, str]:
    """One sha256 per config of the matrix and per block of programs, computed on checkout/src in fresh interpreters."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONHASHSEED": "0"}
    hashes: dict[str, str] = {}
    for code in (
        HASHER.format(seeds=SEEDS, max_oprd=MAX_OPRD, every=ORACLE_EVERY, steps=STEPS),
        TEXT_HASHER.format(seed=TEXT_SEED, programs=TEXT_PROGRAMS, block=TEXT_BLOCK),
        READER_HASHER.format(seed=TEXT_SEED, programs=READER_PROGRAMS, block=TEXT_BLOCK, edits=READER_EDITS),
        FAILING_HASHER.format(seeds=FAILING_SEEDS, every=ORACLE_EVERY, steps=FAILING_STEPS),
    ):
        proc = subprocess.run([sys.executable, "-B", "-c", code], cwd=checkout, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"output run in {checkout} failed:\n{proc.stderr}")
        hashes.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    return hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="parent commit (default HEAD)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="outputs-") as tmp:
        parent_dir, change_dir = Path(tmp, "parent"), Path(tmp, "change")
        parent_commit = export_commit(args.parent, parent_dir)
        change_commit = copy_worktree(change_dir)
        parent, change = output_hashes(parent_dir), output_hashes(change_dir)

    print(f"parent: {parent_commit}\nchange: {change_commit}")
    differ = [name for name in parent if parent[name] != change.get(name)]
    for name, digest in parent.items():
        print(f"{name}: {digest}" if name not in differ else f"{name}: {digest} != {change.get(name)}")
    print(f"{len(parent) - len(differ)} of {len(parent)} configs and blocks equal")
    for name in differ:
        print(f"differs: {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
