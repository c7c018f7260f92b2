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


def output_hashes(checkout: Path) -> dict[str, str]:
    """One sha256 per config of the matrix and per block of programs, computed on checkout/src in fresh interpreters."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONHASHSEED": "0"}
    hashes: dict[str, str] = {}
    for code in (
        HASHER.format(seeds=SEEDS, max_oprd=MAX_OPRD, every=ORACLE_EVERY, steps=STEPS),
        TEXT_HASHER.format(seed=TEXT_SEED, programs=TEXT_PROGRAMS, block=TEXT_BLOCK),
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
